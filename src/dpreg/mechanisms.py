"""epsilon-DP linear and polynomial regression mechanisms and their registry.

Every fitter shares one contract: records in the unit square, an epsilon
budget, a seeded stream, and a :class:`FitResult` out, whatever the
degree. Degenerate draws return the constant fallback fit y = 0.5 with the
flag set instead of raising, so Monte Carlo loops never die mid-run.

``MECHANISMS``, the registry, holds one :class:`Mechanism` record per
name, and every other table is read from it (DECISIONS.md, D15). A
record's draw ``(record, blocks, budgets, hyper)`` takes an iterable of
blocks of ``(data, stream)`` pairs, which its caller sizes, since a
Laplace draw sums a block's datasets at once (D22). It draws each pair's
uniforms once and returns one row of released numbers per pair and
budget, pair-major; row p * len(budgets) + j equals, bit for bit, the
release of pair p at ``budgets[j]`` alone. Its solve, post-processing
that costs no budget, maps any (N, k) stack of releases to (N, d + 1)
coefficients and an (N,) fallback mask. The draws keep no ledger: their
rows together are not epsilon-DP at any one budget (D3). Each fitter is
one ``_fit`` call: it writes the ledger from the record's parts and runs
the draw on one block of one pair at one budget (D8); the sweep draws
all its iterations in one call.

* ``dp_rss_poly_fit`` is the refined release in :mod:`dpreg.simplex` at
  any degree d: two privatized simplex query groups, refined power sums,
  and the normal equations. It falls back when the refined size or
  x-spread is not positive or the equations are numerically singular.
  ``dp_rss_fit`` is its degree 1, bit for bit.
* ``dp_ss_fit`` privatizes eight clamped sums directly (the baseline the
  refined mechanism improves on) and reads the statistics off them plainly.
  Its record differs from ``dp_rss``'s only in its parts, cells and
  reading, so it shares the draw, the solve and the fallback rule of
  ``dp_rss_fit``.
* ``dp_theil_sen_fit`` privatizes the 25th/75th percentiles of pairwise
  line projections with the exponential-mechanism median. It never falls
  back: with no projections each median picks a point of the clip range.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import simplex
from .data import Bounds, as_dataset
from .median import _check_clip, _dp_medians, _width
from .noise import NoiseLedger, RandomStream, _as_count, _as_epsilon
from .simplex import _fallback_coeffs, _laplace_draw, _solve_refined

FALLBACK_ALPHA, FALLBACK_BETA = _fallback_coeffs(1)
# Most entries, budgets x pools x padded width, of one blocked median pass
# of the Theil-Sen draw.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class FitResult:
    """Fitted polynomial y = coeffs[0] x^d + ... + coeffs[d]; a line at d = 1.

    ``coeffs`` holds the coefficients, highest power first. ``fallback`` is
    True when the mechanism hit a degenerate draw and returned the constant
    fit y = 0.5 instead of an estimate. ``alpha_hat`` and ``beta_hat`` read
    the slope and intercept of a line and raise ``ValueError`` at any other
    degree.
    """

    coeffs: tuple
    fallback: bool = False

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def alpha_hat(self) -> float:
        return self._line()[0]

    @property
    def beta_hat(self) -> float:
        return self._line()[1]

    def _line(self) -> tuple:
        if self.degree != 1:
            raise ValueError(f"a degree-{self.degree} fit is not a line")
        return self.coeffs


@dataclass(frozen=True)
class TheilSenHyper:
    """Tuning knobs of the private Theil-Sen fitter.

    ``k`` is the number of random matchings whose pair projections are
    pooled; each median then runs at a k-th of its budget share, since a
    record moves up to k of its projections. ``r_lo``/``r_hi`` clip the
    projected values before the private median (the default [-2, 2] covers
    every line reachable from data in the unit square); the line through
    any two points of the range, of slope up to 2 (r_hi - r_lo) and
    intercept up to max(|r_lo|, |r_hi|) + (r_hi - r_lo)/2, must be finite.
    """

    k: int = 1
    r_lo: float = -2.0
    r_hi: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "k", _as_count(self.k, "k"))
        lo, hi = self.r_lo, self.r_hi
        _check_clip(lo, hi)
        if not np.isfinite([2.0 * (hi - lo), max(abs(lo), abs(hi)) + (hi - lo) / 2.0]).all():
            raise ValueError(f"clip range [{lo}, {hi}] lets a slope or intercept overflow")


def dp_rss_fit(data, budget, stream: RandomStream, ledger: NoiseLedger | None = None) -> FitResult:
    """Fit a line from the refined release of the two simplex groups.

    Degree 1 of the release in :mod:`dpreg.simplex`: Laplace noise at scale
    2/epsilon on each group sum, refined estimates of n, S_x, S_y, S_{x^2},
    S_{xy}, and the 2x2 normal equations. Falls back when the refined size
    or x-spread is not positive or the equations are numerically singular.
    """
    return _fit("dp_rss", data, budget, stream, ledger)


def dp_rss_poly_fit(
    data,
    degree: int,
    budget,
    stream: RandomStream,
    ledger: NoiseLedger | None = None,
) -> FitResult:
    """Fit a degree-``degree`` polynomial with refined private statistics.

    Spends half the budget on each group, as the parts of the ``dp_rss``
    record in ``MECHANISMS`` declare and the ledger records, refines every
    power sum, and solves the normal equations
    (``dpreg.simplex._solve_refined``). Degree 1 is ``dp_rss_fit``: same
    noise, ledger, statistics, fallbacks and result.
    Falls back to the constant fit y = 0.5 when the refined size or x-spread
    is not positive or the normal equations are numerically singular.
    """
    return _fit("dp_rss_poly", data, budget, stream, ledger, degree)


def dp_ss_fit(data, budget, stream: RandomStream, ledger: NoiseLedger | None = None) -> FitResult:
    """Baseline fitter (NoisyStats): privatize eight clamped sums, then solve.

    Releases S_x, S_{1-x}, S_y, S_{1-y}, S_{xy}, S_{1-xy}, S_{x^2},
    S_{1-x^2}, each with Laplace noise at scale 4/epsilon, estimates the
    size as a quarter of their total, and solves the least-squares normal
    equations of the noisy statistics under the fallback rule of
    ``dp_rss_fit``.
    """
    return _fit("dp_ss", data, budget, stream, ledger)


def _pair_projections(x: np.ndarray, y: np.ndarray, perm: np.ndarray):
    """Project each matched pair's line onto x = 0.25 and x = 0.75.

    ``perm`` pairs consecutive entries; an odd leftover index is dropped.
    Pairs with equal x coordinates define no slope and contribute nothing.
    """
    if perm.size % 2 == 1:
        perm = perm[:-1]
    i, j = perm[0::2], perm[1::2]
    xi, xj = x[i], x[j]
    keep = xj != xi
    # x is filtered before y is gathered, and each result is written over a
    # gather that is no longer read, so at most five n/2-length arrays are
    # alive at once; each value is the plain expression's. Continuous data
    # has no tied pair, and then nothing is filtered.
    if not keep.all():
        xi, xj, i, j = xi[keep], xj[keep], i[keep], j[keep]
    yi, yj = y[i], y[j]
    slope = yj - yi
    mid_y = np.add(yi, yj, out=yi)
    mid_y *= 0.5
    slope /= np.subtract(xj, xi, out=yj)
    mid_x = np.add(xi, xj, out=xi)
    mid_x *= 0.5
    z25 = np.subtract(0.25, mid_x, out=xj)
    z25 *= slope
    z25 += mid_y
    z75 = np.subtract(0.75, mid_x, out=yj)
    z75 *= slope
    z75 += mid_y
    return z25, z75


def _theil_sen_draw(release, blocks, budgets, hyper: TheilSenHyper):
    """The private percentiles (p25, p75) of ``dp_theil_sen_fit`` for each pair and budget.

    Row p * len(budgets) + j is pair p of ``blocks``, read in order, at ``budgets[j]``.
    A pair draws its ``k`` matchings, then the four uniforms of its two
    medians, and nothing else; its matchings, projections and their sort
    serve every budget. A run of consecutive pairs with as many projections
    is cut into passes of as many pairs as keep the weight array within
    ``_BLOCK_ENTRIES``, or one. A pass is one ``_dp_medians`` call, every
    step of which reads one pool's row, so each pair's medians equal, bit
    for bit, those of a call on that pair alone (DECISIONS.md, D16, D23).
    The draws never depend on the data: with fewer than two records or no
    pair of distinct x, each median picks a point of the clip range. Every
    budget is checked before the first pair is taken.
    """
    # A record lands in k pairs, so it moves up to k projections of each
    # list; each median runs at eps/(2k) to spend its eps/2 share.
    parts = [_as_epsilon(b) / (release.share * hyper.k) for b in budgets]

    def draws():  # each pair's projection count, both its pools and its four uniforms
        for data, stream in itertools.chain.from_iterable(blocks):
            ds = as_dataset(data)
            z25s, z75s = zip(*[_pair_projections(ds.x, ds.y, stream.permutation(len(ds)))
                               for _ in range(hyper.k)])
            yield sum(z.size for z in z25s), (z25s, z75s), stream.uniform(4)

    releases = []
    for m, run in itertools.groupby(draws(), key=lambda draw: draw[0]):
        per_pass = max(1, _BLOCK_ENTRIES // (2 * len(parts) * _width(m)))
        while chunk := list(itertools.islice(run, per_pass)):
            _, pools, uniforms = zip(*chunk)
            medians = _dp_medians(list(itertools.chain.from_iterable(pools)), parts,
                                  hyper.r_lo, hyper.r_hi, np.concatenate(uniforms))
            # Column 2p + c is pair p's median c: pair-major rows, as one pair per call gives.
            releases.append(medians.reshape(len(parts), -1, 2).swapaxes(0, 1).reshape(-1, 2))
    return np.concatenate(releases)


def _theil_sen_solve(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The line through (0.25, p25) and (0.75, p75) of each row; none falls back."""
    alpha = (p[:, 1] - p[:, 0]) / 0.5
    return np.column_stack([alpha, p[:, 0] - alpha * 0.25]), np.zeros(len(p), dtype=bool)


def dp_theil_sen_fit(
    data,
    budget,
    stream: RandomStream,
    hyper: TheilSenHyper | None = None,
    ledger: NoiseLedger | None = None,
) -> FitResult:
    """Fit a line from private percentiles of pairwise projections.

    The budget splits in two halves: one private median for each of the
    25th- and 75th-percentile projection lists, pooled over ``hyper.k``
    random matchings. A record lands in ``k`` pairs and so moves up to ``k``
    values of each list, so each median runs at epsilon/(2k), which is
    epsilon/2 for the record (DECISIONS.md, D14). The line through the two
    private percentile points gives the fit. Every input spends the whole
    budget the same way; with fewer than two records, or no matched pair
    with distinct x values, the medians pick points of the clip range.
    """
    return _fit("dp_theil_sen", data, budget, stream, ledger, hyper)


def denormalize_fit(fit: FitResult, bounds: Bounds) -> FitResult:
    """Map a unit-square line fit back to the original data scale.

    Inverts the affine map of :func:`dpreg.data.normalize`: a line through
    the normalized data corresponds to slope (dy/dx) * alpha' and intercept
    y_min + dy * (beta' - (x_min/dx) * alpha') on the raw scale. Pure
    post-processing, so it costs no budget; the fallback flag is preserved.
    A fit of any other degree raises ``ValueError``: re-expanding a
    polynomial about x_min loses too many digits to trust (DECISIONS.md,
    D10).
    """
    dx, dy = bounds.x_span, bounds.y_span
    alpha = (dy / dx) * fit.alpha_hat
    beta = bounds.y_min + dy * (fit.beta_hat - (bounds.x_min / dx) * fit.alpha_hat)
    return FitResult((alpha, beta), fit.fallback)


@dataclass(frozen=True)
class Mechanism:
    """One mechanism: the one place where its name is a key (DECISIONS.md, D15).

    ``parts``: ``(ledger label, Laplace?)`` in draw order. Each spends
    eps / ``share``, the integer ``len(parts)`` (D8); a Laplace part draws
    at scale ``share`` / eps. ``draw``, on blocks of pairs that its caller
    sizes (D22), and ``solve`` are its core (module docstring), ``fit`` its
    public fitter. ``hyper``: the draw's degree or ``TheilSenHyper``, or
    None when each call gives the degree, so that the fits are polynomials.
    A Laplace release has cells: ``rows(x, y, d)`` yields ``(cell, row)``,
    and ``reading(d)`` reads the noisy sums (D11).
    """

    parts: tuple
    draw: Callable
    solve: Callable
    fit: Callable
    hyper: object = None
    rows: Callable | None = None
    reading: Callable | None = None

    @property
    def share(self) -> int:
        return len(self.parts)


MECHANISMS = {
    "dp_rss": Mechanism((("x-group sums", True), ("xy-group sums", True)), _laplace_draw,
                        _solve_refined, dp_rss_fit, hyper=1, rows=simplex._component_rows,
                        reading=simplex.transfer_matrix),
    "dp_ss": Mechanism((("pair s_x/s_1mx", True), ("pair s_y/s_1my", True),
                        ("pair s_xy/s_1mxy", True), ("pair s_x2/s_1mx2", True)),
                       _laplace_draw, _solve_refined, dp_ss_fit, hyper=1, rows=simplex._ss_rows,
                       reading=simplex._ss_reading),
    "dp_theil_sen": Mechanism((("25th-percentile median", False),
                               ("75th-percentile median", False)),
                              _theil_sen_draw, _theil_sen_solve, dp_theil_sen_fit,
                              hyper=TheilSenHyper()),
}
# The refined release at any degree: the groups, ledger and core of dp_rss.
MECHANISMS["dp_rss_poly"] = replace(MECHANISMS["dp_rss"], fit=dp_rss_poly_fit, hyper=None)


def _lines() -> dict:
    """The records of ``MECHANISMS`` that fit lines, by name, read at each call."""
    return {name: m for name, m in MECHANISMS.items() if m.hyper is not None}


FITTERS = {name: m.fit for name, m in _lines().items()}


def _fit(name: str, data, budget, stream: RandomStream, ledger: NoiseLedger | None, hyper=None):
    """One private fit: ``MECHANISMS[name]`` on one pair at ``(eps,)``, at ``hyper`` or its own.

    Checks the budget and the records, then writes the ledger from the
    record's parts before the first uniform is drawn, so it never depends
    on the data or the draws.
    """
    mech = MECHANISMS[name]
    eps = _as_epsilon(budget)
    ds = as_dataset(data)
    if ledger is not None:
        for label, laplace in mech.parts:
            ledger.record(label, eps / mech.share, scale=mech.share / eps if laplace else None)
    hyper = mech.hyper if hyper is None else hyper
    coeffs, fallback = mech.solve(mech.draw(mech, [[(ds, stream)]], (eps,), hyper))
    return FitResult(tuple(coeffs[0].tolist()), bool(fallback[0]))
