"""Certified windows of photon-number laws, walked from their term ratios."""

import math
from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .special_math import anchored_products

# certified bound on the mass a window leaves out, summed over both sides
_TAIL_MASS = 1e-12
# longest window walked before certification gives up
_MAX_WINDOW = 10_000_000
_CHUNK = 4096  # terms multiplied and summed per step of scan_from_ratios


def _mode(ratio):
    """First n >= 0 with ratio(n) < 1, for a nonincreasing ratio that ends below 1."""
    lo, hi = -1, 1
    while ratio(hi) >= 1.0:
        if hi > 2 ** 53:
            raise SolverError("term ratios round to >= 1 up to n = 2^53: no mode")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # ratio(lo) >= 1 > ratio(hi), with ratio(-1) taken as >= 1
        mid = (lo + hi) // 2
        if ratio(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return hi


class Window(NamedTuple):
    """The certified window n = offset..cutoff of a ratio law, and its moments.

    ``tail_bound`` bounds the mass outside the window, and the mean and
    variance are taken over the window.
    """

    offset: int
    cutoff: int
    tail_bound: float
    mean: float
    variance: float


def scan_from_ratios(ratio):
    """Certified window of the law with term ratios p(n+1)/p(n) = ratio(n).

    ``ratio`` maps photon numbers (ndarray or int) to the exact ratios,
    positive, nonincreasing and ending below 1; a ratio that is 0 at n = 0
    is the vacuum.  The window first reaches 12 widths (at least 64 terms)
    to each side of the mode, or from n = 0 when the left gap is no wider
    than the window; a side whose mass _geometric_tail cannot yet bound
    by 5e-13 doubles its reach, up to 1e7 terms.  Each walk multiplies and
    sums the terms x_n (x = 1 at the mode) over one anchored chunk about the
    mode, then _CHUNK at a time outward from its edges; no window is stored.
    """
    mode = _mode(ratio)
    if ratio(mode) == 0.0:
        return Window(0, 0, 0.0, 0.0, 0.0)
    # width of the law: near a Gaussian bulk ln ratio(n) falls by 1/sd^2
    # per step, and a geometric tail decays at rate -ln ratio(mode)
    fall = math.log(ratio(mode) / ratio(mode + 1))
    width = min(fall ** -0.5 if fall > 0.0 else math.inf, -1.0 / math.log(ratio(mode)))
    left = right = max(math.ceil(12.0 * width), 64)
    while True:
        hi = mode + right
        lo = max(mode - left, 0)
        if lo <= hi - lo + 1:
            lo = 0
        if hi - lo + 1 > _MAX_WINDOW:
            raise SolverError(
                f"tail certification still open at a window of {_MAX_WINDOW} terms")
        # sums over n != mode of x, (n-mode) x, (n-mode)^2 x: first
        # over one anchored chunk of up to _CHUNK terms about the mode, then
        # outward from its edge terms where the window is wider
        a = max(lo, min(mode - _CHUNK // 2, hi + 1 - _CHUNK))
        b = min(hi, a + _CHUNK - 1)
        d = np.arange(a - mode, b - mode + 1, dtype=float)
        x = anchored_products(ratio(mode + d[:-1]), mode - a)
        edges = {-1: x[0], 1: x[-1]}
        x[mode - a] = 0.0
        sums = np.array(_chunk_sums(d, x))
        for sign, done, reach in ((-1, mode - a, mode - lo), (1, b - mode, hi - mode)):
            for start in range(done + 1, reach + 1, _CHUNK):
                d = np.arange(start, min(start + _CHUNK, reach + 1), dtype=float)
                f = ratio(mode + d - 1.0) if sign > 0 else 1.0 / ratio(mode - d)
                f[0] *= edges[sign]  # continues the previous chunk's product
                x = np.cumprod(f)
                edges[sign] = x[-1]
                sums += _chunk_sums(sign * d, x)
        rest, first, second = map(float, sums)
        total = 1.0 + rest
        tails = (_geometric_tail(edges[-1] / total, 1.0 / ratio(lo - 1)) if lo > 0 else 0.0,
                 _geometric_tail(edges[1] / total, ratio(hi)))
        if None not in tails:
            shift = first / total
            return Window(lo, hi, tails[0] + tails[1],
                          mode + shift, second / total - shift * shift)
        left, right = (2 * left if tails[0] is None else left,
                       2 * right if tails[1] is None else right)


def _chunk_sums(d, x):
    """Sums of x, d x and d^2 x over terms x at offsets d from the mode."""
    return x.sum(), d @ x, (d * d) @ x


def _geometric_tail(p, ratio):
    """Certified mass beyond an edge term ``p``, or None while that side is short.

    With the terms beyond the edge bounded by p r^k, k = 1, 2, ..., for a
    ratio r < 1, the tail mass is at most p r/(1-r).  A side is short while
    r >= 1 (the edge has not passed the mode), or while that mass exceeds
    half of the 1e-12 that a window may omit.
    """
    if not ratio < 1.0:
        return None
    mass = p * (ratio / (1.0 - ratio))
    return None if mass > 0.5 * _TAIL_MASS else mass
