"""Windowed photon-number distributions with certified tail bounds."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .special_math import LN2, anchored_products

_MASS_SLACK = 1e-12
# certified bounds on what a window leaves out, summed over both sides
_TAIL_MASS = 1e-12
_TAIL_ENTROPY_BITS = 1e-11
# longest window built (80 MB of float64) before certification gives up
_MAX_WINDOW = 10_000_000


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
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # ratio(lo) >= 1 > ratio(hi), with ratio(-1) taken as >= 1
        mid = (lo + hi) // 2
        if ratio(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def build_from_ratios(ratio):
    """Certified window of the law with term ratios p(n+1)/p(n) = ratio(n).

    ``ratio`` maps an ndarray (or int) of photon numbers to the exact ratios;
    it must be positive and nonincreasing in n, and end below 1.  The terms
    are products of these ratios anchored at the mode, renormalized over the
    window, which is legitimate because the law is normalized by
    construction.  The window first reaches 12 widths (at least 64 terms) to
    each side of the mode.  Beyond it each side is bounded by a geometric
    series (on the left with ratio 1/ratio(L-1), on the right with
    ratio(R)), certifying the omitted mass below 1e-12 and its entropy below
    1e-11 bits in total; a side that misses its half doubles its reach, and
    a window beyond 1e7 terms is a SolverError.  The window starts at n = 0
    whenever the left gap would be no wider than the window, so narrow laws
    near the vacuum keep probs[n] = P(n).  Cost is O(sd), not O(mean).
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
        x = anchored_products(ratio(np.arange(lo, hi, dtype=float)), mode - lo)
        probs = x / x.sum()
        certs = (_geometric_tail(probs[0], 1.0 / ratio(lo - 1)) if lo > 0
                 else _TailCertificate(),
                 _geometric_tail(probs[-1], ratio(hi)))
        short = [c is None or c.mass > 0.5 * _TAIL_MASS
                 or c.entropy > 0.5 * _TAIL_ENTROPY_BITS for c in certs]
        if not any(short):
            break
        left, right = (2 * left if short[0] else left,
                       2 * right if short[1] else right)
    return PhotonDistribution(probs, certs[0].mass + certs[1].mass, lo)


@dataclass
class _TailCertificate:
    mass: float = 0.0
    entropy: float = 0.0  # bits


def _geometric_tail(p, ratio):
    """Certified bounds on the mass and entropy beyond an edge term ``p``.

    With the terms beyond the edge bounded by p r^k, k = 1, 2, ..., for a
    ratio r < 1, the tail mass is at most p r/(1-r) and its entropy at most
    [-ln(p) r/(1-r) - ln(r) r/(1-r)^2] p, both evaluated here in bits.
    Returns None while r >= 1 (the edge has not passed the mode).
    """
    if not ratio < 1.0:
        return None
    if p < 1e-304:
        # also covers an edge term that underflowed to 0, where ln(p) fails;
        # r/(1-r) < 1e16 keeps such a tail below 1e-288
        return _TailCertificate()
    geo = ratio / (1.0 - ratio)
    mass = p * geo
    entropy = p * (max(-math.log(p), 0.0) * geo - math.log(ratio) * geo / (1.0 - ratio))
    return _TailCertificate(mass, entropy / LN2)
