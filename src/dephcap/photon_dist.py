"""Windowed photon-number distributions with certified tail bounds."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .scalar_math import LN2
from .special_math import anchored_products

_MASS_SLACK = 1e-12
# certified bounds on what a window leaves out, summed over both sides
_TAIL_MASS = 1e-12
_TAIL_ENTROPY_BITS = 1e-11
# longest window built (80 MB of float64) before certification gives up
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


def point_mass():
    """The vacuum distribution (all mass at n = 0)."""
    return PhotonDistribution(np.array([1.0]), 0.0)


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


def _certified_window(ratio, measure):
    """(lo, tail mass bound, result) of the certified window of a ratio law.

    ``measure(lo, hi, mode)`` returns (P(lo), P(hi), result) of the terms
    n = lo..hi anchored at the mode.  The window first reaches 12 widths (at
    least 64 terms) to each side of the mode, or from n = 0 when the left gap
    is no wider than the window.  Each tail is bounded by a geometric series
    (ratio 1/ratio(lo-1) left, ratio(hi) right) below 1e-12 of mass and
    1e-11 bits in total; a short side doubles its reach, up to 1e7 terms.
    """
    mode = _mode(ratio)
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
        p_lo, p_hi, result = measure(lo, hi, mode)
        certs, short = certify_edges(p_lo, 1.0 / ratio(lo - 1) if lo > 0 else None,
                                     p_hi, ratio(hi))
        if not any(short):
            return lo, certs[0].mass + certs[1].mass, result
        left, right = (2 * left if short[0] else left,
                       2 * right if short[1] else right)


def build_from_ratios(ratio):
    """Certified window of the law with term ratios p(n+1)/p(n) = ratio(n).

    ``ratio`` maps photon numbers (ndarray or int) to the exact ratios,
    positive, nonincreasing and ending below 1; their products anchored at
    the mode are renormalized over the window of _certified_window.
    """
    def measure(lo, hi, mode):
        x = anchored_products(ratio(np.arange(lo, hi, dtype=float)), mode - lo)
        probs = x / x.sum()
        return probs[0], probs[-1], probs

    lo, tail, probs = _certified_window(ratio, measure)
    return PhotonDistribution(probs, tail, lo)


def scan_from_ratios(ratio):
    """(entropy in bits, mean, variance) over build_from_ratios' window.

    Its terms x_n (x = 1 at the mode) are multiplied and summed _CHUNK at a
    time.  H = ln S - sum x ln x / S with S = 1 + sum_{n != mode} x_n adds two
    nonnegative terms and rounds no mass near 1 to 1.
    """
    def measure(lo, hi, mode):
        # sums over n != mode of x, x ln x, (n-mode) x, (n-mode)^2 x; edge terms
        sums, edges = np.zeros(4), []
        for sign, reach in ((-1, mode - lo), (1, hi - mode)):
            x_end = 1.0
            for start in range(1, reach + 1, _CHUNK):
                d = np.arange(start, min(start + _CHUNK, reach + 1), dtype=float)
                f = ratio(mode + d - 1.0) if sign > 0 else 1.0 / ratio(mode - d)
                f[0] *= x_end  # continues the previous chunk's product
                x = np.cumprod(f)
                x_end = x[-1]
                sums += (x.sum(), x @ np.log(np.maximum(x, 5e-324)),
                         sign * (d @ x), (d * d) @ x)
            edges.append(x_end)
        rest, xlnx, first, second = map(float, sums)
        total = 1.0 + rest
        shift = first / total
        return edges[0] / total, edges[1] / total, (
            (math.log1p(rest) - xlnx / total) / LN2,
            mode + shift, second / total - shift * shift)

    return _certified_window(ratio, measure)[2]


def certify_edges(p_lo, left, p_hi, right, gaps=(None, None)):
    """(tail certificates, [left short, right short]) beyond a window's edges.

    ``p_lo`` and ``p_hi`` are the edge terms, ``left`` = P(lo-1)/P(lo) (None
    where the window starts at n = 0) and ``right`` = P(hi+1)/P(hi); ``gaps``
    may give each side's 1 - ratio, formed where the ratio rounds to 1.  A
    side falls short while its bound exceeds half of the 1e-12 of mass or
    half of the 1e-11 bits.
    """
    certs = (_geometric_tail(p_lo, left, gaps[0]) if left is not None else _TailCertificate(),
             _geometric_tail(p_hi, right, gaps[1]))
    return certs, [c is None or c.mass > 0.5 * _TAIL_MASS
                   or c.entropy > 0.5 * _TAIL_ENTROPY_BITS for c in certs]


@dataclass
class _TailCertificate:
    mass: float = 0.0
    entropy: float = 0.0  # bits


def _geometric_tail(p, ratio, gap=None):
    """Certified bounds on the mass and entropy beyond an edge term ``p``.

    With the terms beyond the edge bounded by p r^k, k = 1, 2, ..., for a
    ratio r < 1, the tail mass is at most p r/(1-r) and its entropy at most
    [-ln(p) r/(1-r) - ln(r) r/(1-r)^2] p, both evaluated here in bits.
    ``gap`` is 1 - r where the caller forms it without rounding r, and then
    ln r = log1p(-gap).  Returns None while r >= 1 (the edge has not passed
    the mode).
    """
    if not (ratio < 1.0 if gap is None else gap > 0.0):
        return None
    if p < 1e-304:
        # also covers an edge term that underflowed to 0, where ln(p) fails;
        # r/(1-r) is below 1e16 where 1 - r is computed, and below about
        # sigma < 1.4e154 at a wide law's edges: such a tail is below 1e-150
        return _TailCertificate()
    if gap is None:
        gap, log_ratio = 1.0 - ratio, math.log(ratio)
    else:
        log_ratio = math.log1p(-gap)
    geo = ratio / gap
    mass = p * geo
    entropy = p * (max(-math.log(p), 0.0) * geo - log_ratio * geo / gap)
    return _TailCertificate(mass, entropy / LN2)
