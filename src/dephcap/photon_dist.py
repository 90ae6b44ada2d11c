"""Windowed photon-number distributions with certified tail bounds."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .scalar_math import LN2
from .special_math import anchored_products

_MASS_SLACK = 1e-12
# certified bounds on what a window leaves out, summed over both sides
_TAIL_MASS = 1e-12
_TAIL_ENTROPY_BITS = 1e-11
# longest window walked (80 MB once built) before certification gives up
_MAX_WINDOW = 10_000_000
_CHUNK = 4096  # terms multiplied and summed per step of scan_from_ratios


@dataclass
class PhotonDistribution:
    """Probabilities over total photon number n = offset, ..., cutoff.

    ``probs[i]`` is the probability of n = offset + i.  ``tail_bound`` is a
    certified upper bound on the probability mass outside the stored window,
    so probs.sum() + tail_bound accounts for all mass.
    """

    probs: np.ndarray
    tail_bound: float = 0.0
    offset: int = 0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if probs.min() < -_MASS_SLACK:
            raise ValueError(f"negative probability entry {probs.min()}")
        self.probs = np.clip(probs, 0.0, None)
        if self.tail_bound < 0.0:
            raise ValueError("tail bound must be nonnegative")
        total = float(self.probs.sum())
        if total > 1.0 + _MASS_SLACK or total + self.tail_bound < 1.0 - _MASS_SLACK:
            raise ValueError(
                f"mass {total} plus tail bound {self.tail_bound} does not reach 1")

    @property
    def cutoff(self):
        """Largest stored photon number."""
        return self.offset + self.probs.size - 1

    def mean(self):
        return self.offset + float(np.arange(self.probs.size) @ self.probs)

    def variance(self):
        i = np.arange(self.probs.size)
        mu = float(i @ self.probs)
        return float(((i - mu) ** 2) @ self.probs)


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

    ``tail_bound`` bounds the mass outside the window, ``mode`` is the term
    the walk anchors at, and the entropy (in bits), mean and variance are
    taken over the window.
    """

    offset: int
    cutoff: int
    mode: int
    tail_bound: float
    entropy: float
    mean: float
    variance: float


def scan_from_ratios(ratio):
    """Certified window of the law with term ratios p(n+1)/p(n) = ratio(n).

    ``ratio`` maps photon numbers (ndarray or int) to the exact ratios,
    positive, nonincreasing and ending below 1; a ratio that is 0 at n = 0
    is the vacuum.  The window first reaches 12 widths (at least 64 terms)
    to each side of the mode, or from n = 0 when the left gap is no wider
    than the window; a side that _geometric_tail finds short doubles its
    reach, up to 1e7 terms.  Each walk multiplies and sums the terms x_n
    (x = 1 at the mode) over one anchored chunk about the mode, then _CHUNK
    at a time outward from its edges, so no window is stored.
    H = ln S - sum x ln x / S with S = 1 + sum_{n != mode} x_n adds two
    nonnegative terms and rounds no mass near 1 to 1.
    """
    mode = _mode(ratio)
    if ratio(mode) == 0.0:
        return Window(0, 0, 0, 0.0, 0.0, 0.0, 0.0)
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
        # sums over n != mode of x, x ln x, (n-mode) x, (n-mode)^2 x: first
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
        rest, xlnx, first, second = map(float, sums)
        total = 1.0 + rest
        tails = (_geometric_tail(edges[-1] / total, 1.0 / ratio(lo - 1)) if lo > 0 else 0.0,
                 _geometric_tail(edges[1] / total, ratio(hi)))
        if None not in tails:
            shift = first / total
            return Window(lo, hi, mode, tails[0] + tails[1],
                          (math.log1p(rest) - xlnx / total) / LN2,
                          mode + shift, second / total - shift * shift)
        left, right = (2 * left if tails[0] is None else left,
                       2 * right if tails[1] is None else right)


def _chunk_sums(d, x):
    """Sums of x, x ln x, d x and d^2 x over terms x at offsets d from the mode."""
    return x.sum(), x @ np.log(np.maximum(x, 5e-324)), d @ x, (d * d) @ x


def build_from_ratios(ratio):
    """The law of scan_from_ratios' certified window, stored.

    One anchored_products pass over the window, renormalized to its sum.
    """
    window = scan_from_ratios(ratio)
    x = anchored_products(ratio(np.arange(window.offset, window.cutoff, dtype=float)),
                          window.mode - window.offset)
    return PhotonDistribution(x / x.sum(), window.tail_bound, window.offset)


def _geometric_tail(p, ratio, gap=None):
    """Certified mass beyond an edge term ``p``, or None while that side is short.

    With the terms beyond the edge bounded by p r^k, k = 1, 2, ..., for a
    ratio r < 1, the tail mass is at most p r/(1-r) and its entropy at most
    [-ln(p) r/(1-r) - ln(r) r/(1-r)^2] p.  ``gap`` is 1 - r where the caller
    forms it without rounding r, and then ln r = log1p(-gap).  A side is
    short while r >= 1 (the edge has not passed the mode), or while its mass
    exceeds half of the 1e-12 or its entropy half of the 1e-11 bits that a
    window may omit.
    """
    if not (ratio < 1.0 if gap is None else gap > 0.0):
        return None
    if p < 1e-304:
        # also covers an edge term that underflowed to 0, where ln(p) fails;
        # r/(1-r) is below 1e16 where 1 - r is computed, and below about
        # sigma < 1.4e154 at a wide law's edges: such a tail is below 1e-150
        return 0.0
    if gap is None:
        gap, log_ratio = 1.0 - ratio, math.log(ratio)
    else:
        log_ratio = math.log1p(-gap)
    geo = ratio / gap
    mass = p * geo
    entropy = p * (max(-math.log(p), 0.0) * geo - log_ratio * geo / gap) / LN2
    if mass > 0.5 * _TAIL_MASS or entropy > 0.5 * _TAIL_ENTROPY_BITS:
        return None
    return mass
