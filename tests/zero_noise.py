"""A stream whose Laplace draws are exactly zero, for tests only.

It releases the exact sums while a fit's ledger still records its epsilon,
so it is kept out of the package (DECISIONS.md, D20). The tests import it
from here: ``from zero_noise import ZeroNoiseStream``.
"""

import numpy as np

from dpreg import RandomStream


class ZeroNoiseStream(RandomStream):
    """Stream whose Laplace draws are exactly zero.

    Used to check that mechanisms reduce to their non-private estimators
    when the noise is switched off. Its Laplace uniforms are all 1/2, the
    centre of the inverse CDF, so every draw is +0.0 and no uniform is
    consumed; scale validation is kept so misuse still surfaces.
    """

    def __init__(self, seed: int = 0, stream_index: int = 0):
        super().__init__(seed, stream_index)

    def _laplace_u(self, size, out=None):
        if out is not None:
            out.fill(0.5)
            return out
        return 0.5 if size is None else np.full(size, 0.5)
