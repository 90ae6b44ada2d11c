"""Certified windows of photon-number laws, found by bisection on their closed-form ln P(n)."""

import math
from typing import NamedTuple

from .errors import SolverError

# certified bound on the mass a window leaves out, summed over both sides
_TAIL_MASS = 1e-12
# rounding allowed per term t of ln P(n), times 1 + |t|: math.lgamma is within
# 4.8 ulp * max(1, |lgamma x|) of 50-digit mpmath on x in [1e-3, 1e15]
_TERM_ULPS = 8.0 * 2.0 ** -52
# largest allowance on ln P(n) at an edge: beyond it, lgamma's cancellation
# rather than the law would size the window
_MAX_ALLOWANCE = 4.0


def _first(passes, limit, refusal):
    """Least k in 0..limit with passes(k), for passes monotone in k: doubling, then bisection."""
    fail, k = -1, 0
    while not passes(k):
        fail, k = k, 2 * k + 1
        if k > limit:
            raise SolverError(refusal)
    while k - fail > 1:  # passes(k), and not passes(fail), with passes(-1) taken as false
        mid = (fail + k) // 2
        fail, k = (fail, mid) if passes(mid) else (mid, k)
    return k


def _mode(ratio):
    """First n >= 0 with ratio(n) < 1, for a nonincreasing ratio that ends below 1."""
    return _first(lambda n: ratio(n) < 1.0, 2 ** 53,
                  "term ratios round to >= 1 up to n = 2^53: no mode")


class Window(NamedTuple):
    """Photon numbers offset..cutoff of a law; ``tail_bound`` bounds the mass outside them."""

    offset: int
    cutoff: int
    tail_bound: float


class PhotonLaw(NamedTuple):
    """P(n) = C(n+m-1, m-1)^power base^n / e^log_norm, with ln(base) as ``log_base``.

    The negative binomial has power 1, the optimal pure-dephasing input power 2.
    """

    m: float
    power: int
    base: float
    log_base: float
    log_norm: float

    def ratio(self, n):
        """Exact term ratio P(n+1)/P(n) = ((n+m)/(n+1))^power base."""
        return ((n + self.m) / (n + 1.0)) ** self.power * self.base

    def log_pmf(self, n):
        """ln P(n) from math.lgamma, and the allowance on its rounding, summed over its terms."""
        a, b, c = math.lgamma(n + self.m), math.lgamma(self.m), math.lgamma(n + 1.0)
        lead = n * self.log_base
        terms = self.power * (3.0 + abs(a) + abs(b) + abs(c)) + 2.0 + abs(lead) + abs(self.log_norm)
        return self.power * (a - b - c) + lead - self.log_norm, _TERM_ULPS * terms


def _edge(law, mode, side):
    """(edge, certified mass beyond it) of the left (side -1) or right (+1) side."""
    def tail(k):  # the rule at the edge k steps out from the mode, or None
        n = max(mode + side * k, 0)
        if side < 0 and n == 0:
            return 0.0
        value, allowance = law.log_pmf(n)
        ratio = law.ratio(n) if side > 0 else 1.0 / law.ratio(n - 1)
        return _geometric_tail(math.exp(min(value + allowance, 0.0)), ratio)

    # the rule shrinks as the edge moves out, and fails at k = -1, short of the mode
    k = _first(lambda k: tail(k) is not None, 2 ** 53 - mode,
               f"photon-number window edge past 2^53 (m={law.m:g})")
    edge = max(mode + side * k, 0)
    if law.log_pmf(edge)[1] > _MAX_ALLOWANCE:
        raise SolverError(f"ln P(n) at edge {edge} has a rounding allowance above {_MAX_ALLOWANCE}")
    return edge, tail(k)


def build_from_log_pmf(law):
    """Tightest window of a PhotonLaw that _geometric_tail certifies on both sides.

    Beyond an edge the terms fall at least geometrically at the edge's own
    ratio, so the rule's bound shrinks as the edge moves out; each edge is
    the first that passes, by doubling and bisection from the mode.  The
    edge term is raised by its log_pmf allowance, so the window omits at
    most 1e-12 in all whatever lgamma's rounding.  An edge past 2^53 (not
    every integer there is a float) or past _MAX_ALLOWANCE raises
    SolverError.  A base of 0 is the vacuum.
    """
    if law.base == 0.0:
        return Window(0, 0, 0.0)
    mode = _mode(law.ratio)
    (offset, left), (cutoff, right) = _edge(law, mode, -1), _edge(law, mode, 1)
    return Window(offset, cutoff, left + right)


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
