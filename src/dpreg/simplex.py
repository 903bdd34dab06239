"""Simplex transforms, group statistics, and refined estimators.

Each record contributes a non-negative vector summing to exactly 1 to each of
two query groups, so adding or removing one record moves each group's sum
vector by l1-distance exactly 1. A group privatized with per-component
Laplace noise at scale 1/eps is therefore eps-DP, and the total of a noisy
group doubles as a free estimate of the dataset size.

The x-group of a record is (x^2, x - x^2, 1 - x); the xy-group is
(xy, (1 - x)y, 1 - y). ``refine`` recombines the six noisy sums into
estimates of n, S_x, S_y, S_{x^2}, S_{xy} by averaging, for each target, two
independent unbiased readings with inverse-variance weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import as_dataset, exact_sum
from .noise import RandomStream

# Inverse-variance weights for the refined estimators. Each reading's
# variance is proportional to how many independent Laplace terms it sums,
# so the weights come from the term counts: a 1-term direct reading vs a
# 5-term complement reading gives (5/6, 1/6); 2 terms vs 4 gives (2/3, 1/3).
_W_DIRECT_1 = 5.0 / 6.0
_W_COMPL_1 = 1.0 / 6.0
_W_DIRECT_2 = 2.0 / 3.0
_W_COMPL_2 = 1.0 / 3.0


def _check_unit(value, name: str) -> None:
    v = np.asarray(value)
    if ((v < 0.0) | (v > 1.0) | ~np.isfinite(v)).any():
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def simplex_transform_x(x):
    """Map x in [0, 1] to (x^2, x - x^2, 1 - x); accepts arrays.

    The three components are non-negative and sum to 1 exactly, which is
    what caps the per-record l1 contribution at 1.
    """
    _check_unit(x, "x")
    x = np.asarray(x, dtype=np.float64) if not np.isscalar(x) else x
    xx = x * x
    return (xx, x - xx, 1.0 - x)


def simplex_transform_xy(x, y):
    """Map (x, y) in [0, 1]^2 to (xy, (1 - x)y, 1 - y); accepts arrays."""
    _check_unit(x, "x")
    _check_unit(y, "y")
    return (x * y, (1.0 - x) * y, 1.0 - y)


@dataclass(frozen=True)
class Group1Stats:
    """Sums of the x-group components over a dataset."""

    s_x2: float
    s_x_minus_x2: float
    s_one_minus_x: float

    def components(self):
        return (self.s_x2, self.s_x_minus_x2, self.s_one_minus_x)

    def total(self):
        return self.s_x2 + self.s_x_minus_x2 + self.s_one_minus_x


@dataclass(frozen=True)
class Group2Stats:
    """Sums of the xy-group components over a dataset."""

    s_xy: float
    s_one_minus_x_y: float
    s_one_minus_y: float

    def components(self):
        return (self.s_xy, self.s_one_minus_x_y, self.s_one_minus_y)

    def total(self):
        return self.s_xy + self.s_one_minus_x_y + self.s_one_minus_y


@dataclass(frozen=True)
class NoisyGroupStats:
    """Privatized group sums plus the budget halves that produced them."""

    group1: Group1Stats
    group2: Group2Stats
    eps1: float
    eps2: float

    def __post_init__(self):
        if not (self.eps1 > 0) or not (self.eps2 > 0):
            raise ValueError(f"budget shares must be positive, got {self.eps1}, {self.eps2}")


@dataclass(frozen=True)
class RefinedStats:
    """Refined estimates of the sufficient statistics; fields broadcast."""

    n_hat: float
    s_x: float
    s_y: float
    s_x2: float
    s_xy: float


def exact_group_stats(data):
    """Noise-free group sums of a dataset, cached on the ``Dataset``.

    Each component sum is exact and correctly rounded, bit-identical to
    ``math.fsum``, so repeated fits see one order-independent value per
    component.
    """
    ds = as_dataset(data)
    cached = ds.cache.get("simplex_groups")
    if cached is None:
        g1c = simplex_transform_x(ds.x)
        g2c = simplex_transform_xy(ds.x, ds.y)
        cached = (
            Group1Stats(*(exact_sum(c) for c in g1c)),
            Group2Stats(*(exact_sum(c) for c in g2c)),
        )
        ds.cache["simplex_groups"] = cached
    return cached


def privatize_groups(
    g1: Group1Stats,
    g2: Group2Stats,
    eps1: float,
    eps2: float,
    stream: RandomStream,
) -> NoisyGroupStats:
    """Add per-component Laplace noise at scale 1/eps to each group.

    Draw order is fixed (the three x-group components, then the three
    xy-group components) so a replayed stream replays the noise.
    """
    if not (eps1 > 0) or not (eps2 > 0):
        raise ValueError(f"budget shares must be positive, got {eps1}, {eps2}")
    z1 = stream.laplace(1.0 / eps1, size=3)
    z2 = stream.laplace(1.0 / eps2, size=3)
    c1 = g1.components()
    c2 = g2.components()
    return NoisyGroupStats(
        Group1Stats(c1[0] + z1[0], c1[1] + z1[1], c1[2] + z1[2]),
        Group2Stats(c2[0] + z2[0], c2[1] + z2[1], c2[2] + z2[2]),
        eps1,
        eps2,
    )


def refine(noisy: NoisyGroupStats) -> RefinedStats:
    """Recombine noisy group sums into refined sufficient statistics.

    Each target statistic has two independent unbiased readings, one from
    its own group and one from the other group's total minus complements;
    they are averaged with the inverse-variance weights above. Requires an
    even budget split (eps1 == eps2), since the fixed weights assume both
    groups carry equally noisy components.

    Works elementwise when the group fields hold equal-shape arrays, which
    the Monte Carlo helpers use to simulate many trials at once.
    """
    if noisy.eps1 != noisy.eps2:
        raise ValueError(
            f"refine requires an even budget split, got eps1={noisy.eps1}, eps2={noisy.eps2}"
        )
    g1, g2 = noisy.group1, noisy.group2
    n_x = g1.total()
    n_y = g2.total()
    n_hat = 0.5 * (n_x + n_y)
    s_x2 = _W_DIRECT_1 * g1.s_x2 + _W_COMPL_1 * (n_y - g1.s_x_minus_x2 - g1.s_one_minus_x)
    s_xy = _W_DIRECT_1 * g2.s_xy + _W_COMPL_1 * (n_x - g2.s_one_minus_x_y - g2.s_one_minus_y)
    s_x = _W_DIRECT_2 * (g1.s_x2 + g1.s_x_minus_x2) + _W_COMPL_2 * (n_y - g1.s_one_minus_x)
    s_y = _W_DIRECT_2 * (g2.s_xy + g2.s_one_minus_x_y) + _W_COMPL_2 * (n_x - g2.s_one_minus_y)
    return RefinedStats(n_hat=n_hat, s_x=s_x, s_y=s_y, s_x2=s_x2, s_xy=s_xy)


def added_record_delta(group: str, x: float, y: float = 0.0) -> np.ndarray:
    """Change in a group's sum vector when one record (x, y) is added.

    Sums shift by exactly the added record's contribution, so the delta is
    the transform of (x, y) itself.
    """
    if group == "group1":
        return np.asarray(simplex_transform_x(x), dtype=np.float64)
    if group == "group2":
        return np.asarray(simplex_transform_xy(x, y), dtype=np.float64)
    raise ValueError(f"group must be 'group1' or 'group2', got {group!r}")


def sensitivity_oracle(group: str, grid_step: float) -> float:
    """Brute-force max l1 norm of the added-record delta over a unit grid.

    Evaluates the delta at every (x, y) on a grid with the given step
    (endpoints included) and returns the largest l1 norm found. For these
    transforms the norm is identically 1; the oracle checks rather than
    assumes that.
    """
    if not (0 < grid_step <= 0.1):
        raise ValueError(f"grid_step must lie in (0, 0.1], got {grid_step}")
    steps = round(1.0 / grid_step)
    pts = np.linspace(0.0, 1.0, steps + 1)
    xg, yg = np.meshgrid(pts, pts, indexing="ij")
    if group == "group1":
        comps = simplex_transform_x(xg)
    elif group == "group2":
        comps = simplex_transform_xy(xg, yg)
    else:
        raise ValueError(f"group must be 'group1' or 'group2', got {group!r}")
    l1 = np.abs(comps[0]) + np.abs(comps[1]) + np.abs(comps[2])
    return float(l1.max())


def optimal_weights(var1: float, var2: float) -> tuple[float, float]:
    """Inverse-variance weights minimizing the combined estimator variance.

    For independent unbiased readings with variances var1 and var2 the
    minimizing convex combination weights are (var2, var1) / (var1 + var2).
    """
    if not (var1 > 0) or not (var2 > 0):
        raise ValueError(f"variances must be positive, got {var1}, {var2}")
    total = var1 + var2
    return (var2 / total, var1 / total)
