"""Brute-force maximal-field values at single cells.

The library sweeps every window length with a float64 prefix and a sliding
trailing maximum.  The oracle instead enumerates every window that contains
the requested cell and averages it from an extended-precision prefix, so it
shares neither the sweep nor its rounding with the code it checks.
"""

from __future__ import annotations

import math

import numpy as np

_WIDE = np.longdouble


def prefix_1d(values: np.ndarray) -> np.ndarray:
    p = np.zeros(values.size + 1, dtype=_WIDE)
    np.cumsum(values.astype(_WIDE), out=p[1:])
    return p


def prefix_2d(values: np.ndarray) -> np.ndarray:
    n0, n1 = values.shape
    p = np.zeros((n0 + 1, n1 + 1), dtype=_WIDE)
    p[1:, 1:] = values.astype(_WIDE).cumsum(axis=0).cumsum(axis=1)
    return p


def field_1d(prefix: np.ndarray, i: int, block: int = 32) -> float:
    """max over windows [s, e) with s <= i < e of the window average."""
    n = prefix.size - 1
    starts = np.arange(0, i + 1)
    best = -math.inf
    for e0 in range(i + 1, n + 1, block):
        ends = np.arange(e0, min(e0 + block, n + 1))
        avg = (np.subtract.outer(prefix[ends], prefix[starts])
               / np.subtract.outer(ends, starts))
        best = max(best, float(avg.max()))
    return best


def field_2d(prefix: np.ndarray, i: int, j: int, h: float,
             alpha: float = 0.0) -> float:
    """max over square windows containing cell (i, j) of side^alpha avg."""
    n = prefix.shape[0] - 1
    best = -math.inf
    for L in range(1, n + 1):
        s = np.arange(max(0, i - L + 1), min(i, n - L) + 1)
        t = np.arange(max(0, j - L + 1), min(j, n - L) + 1)
        S = (prefix[np.ix_(s + L, t + L)] - prefix[np.ix_(s, t + L)]
             - prefix[np.ix_(s + L, t)] + prefix[np.ix_(s, t)])
        m = float((S.max() / (L * L)).astype(float))
        if alpha:
            m *= (L * h) ** alpha
        best = max(best, m)
    return best
