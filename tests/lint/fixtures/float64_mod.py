"""Fixture: two float64 products, one behind a 2**53 gate and one without.

The overflow checker's tests pair this file with proof ledgers that leave
the ungated product unproven, prove the gated one as ``float64-exact``, and
void that proof when its ``2**53`` gate is missing or its bound too wide.
"""

import numpy as np

_FLOAT64_EXACT = 1 << 53


class Kernel:
    def __init__(self, weights, bound):
        self.weights = weights.astype(np.float64) if bound < _FLOAT64_EXACT else None

    def gated(self, x):
        if self.weights is None:
            raise ValueError("bound too wide for float64")
        return x @ self.weights

    def ungated(self, x, w):
        return x.astype(np.float64) @ w
