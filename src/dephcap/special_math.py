"""Numerically stable building blocks on numpy arrays.

Sums whose terms span a huge dynamic range are taken as products of exact
term ratios anchored at the largest term (``anchored_products``), which
keeps every term at a few ulps relative; only the anchor itself is carried
as a log.  A law too wide to sum is evaluated through ``stirling_remainder``
and ``bd0``, the parts of its log-pmf in the saddle-point form of C. Loader
("Fast and Accurate Computation of Binomial Probabilities", 2000).
Entropies are in bits, as in ``scalar_math``.
"""

import math

import numpy as np

from .scalar_math import check_photons


def log_binomial(n, k):
    """Natural log of the binomial coefficient C(n, k) for integer arguments.

    Summed as sum_i ln((n-k+i)/i) over the smaller side of the coefficient,
    which keeps the relative error at a few ulps even for n ~ 1e7 (a plain
    lgamma difference loses digits to cancellation there).
    """
    for name, value in (("n", n), ("k", k)):
        if not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value}")
    n = int(n)
    k = int(k)
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    k = min(k, n - k)
    if k == 0:
        return 0.0
    i = np.arange(1, k + 1, dtype=float)
    return float(np.log((n - k + i) / i).sum())


# Stirling series 1/(12x) - 1/(360x^3) + ... + 1/(1188x^9), as a polynomial in
# 1/x^2; and 1/3, 1/5, ..., 1/17, the odd series of artanh, as one in v^2
_STIRLING = (1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)
_ARTANH = tuple(1.0 / j for j in range(17, 2, -2)) + (0.0,)


def stirling_remainder(x):
    """ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2, elementwise, for x >= 30.

    Five terms of its series: there the next one is below 1e-19.
    """
    return np.polyval(_STIRLING, (1.0 / x) ** 2) / x


def bd0(x, d):
    """Loader's deviance x ln(x/(x-d)) - d >= 0, elementwise, for x - d > 0.

    With v = d/(2x-d) it is d v + 2x (v^3/3 + v^5/5 + ...), terms of one
    sign, summed to v^17 where |v| < 0.1 (the rest is below 1e-18 of the
    sum); elsewhere -x log1p(-d/x) - d cancels at most one digit.
    """
    v = d / (2.0 * x - d)
    series = d * v + 2.0 * x * v * np.polyval(_ARTANH, v * v)
    return np.where(np.abs(v) < 0.1, series, -x * np.log1p(-d / x) - d)


_MASS_TOL = 1e-9


def shannon_entropy(p):
    """Shannon entropy in bits of a probability vector.

    ``p`` may be an array of probabilities or any object with ``probs`` and
    ``tail_bound`` attributes (see PhotonDistribution); in the latter case the
    certified tail is allowed to account for missing mass.  Entries must be
    nonnegative and the total mass must sit within ``_MASS_TOL`` (1e-9) of 1.
    """
    tail = getattr(p, "tail_bound", 0.0)
    probs = np.asarray(getattr(p, "probs", p), dtype=float)
    if probs.size and probs.min() < 0.0:
        raise ValueError("negative probability entry")
    total = float(probs.sum())
    if total > 1.0 + _MASS_TOL or total + tail < 1.0 - _MASS_TOL:
        raise ValueError(f"probability mass {total} (tail bound {tail}) is not 1")
    nz = probs[probs > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


# Most modes of one integer block: the pure-dephasing solve holds a few floats
# per mode, and a certified law's window stops at the same 1e7 terms
MAX_MODES = 10_000_000


def check_block(m, energy, integer=True):
    """Validated (m, E) of an m-mode block at mean photon number E per mode.

    ``m`` must be a positive integer of at most MAX_MODES and is returned as
    int; with ``integer=False`` any real m >= 1 is accepted and returned as
    float, so log-spaced mode grids stay exact.  ``energy`` must pass
    check_photons.
    """
    if integer:
        if m > MAX_MODES:  # before any per-mode array is allocated
            raise ValueError(f"mode count {m} exceeds the limit of {MAX_MODES} modes")
        if not float(m).is_integer() or m < 1:
            raise ValueError(f"mode count must be a positive integer, got {m}")
        m = int(m)
    elif m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    else:
        m = float(m)
    return m, check_photons(energy)


def anchored_products(ratios, anchor):
    """Terms x_0..x_N with x[anchor] = 1 and x[j+1] = x[j] * ratios[j].

    Built by cumulative products outward from the anchor, written straight
    into x; anchored at the largest term, every entry lies in [0, 1] and
    carries a relative error of a few ulps per step, whatever the dynamic
    range.
    """
    x = np.empty(ratios.size + 1)
    x[anchor] = 1.0
    np.multiply.accumulate(ratios[anchor:], out=x[anchor + 1:])
    left = x[:anchor][::-1]  # x[anchor-1], ..., x[0]
    np.divide(1.0, ratios[:anchor][::-1], out=left)
    np.multiply.accumulate(left, out=left)
    return x


class SquaredBinomialSeries:
    """The law P(n) ~ C(n+m-1, m-1)^2 z^n of one m, for any z in [0, 1).

    Its normalizer S0(z) = sum_n C(n+m-1, m-1)^2 z^n = 2F1(m, m; 1; z).
    Euler's transformation (DLMF 15.8(i)) makes it finite:

        S0(z) = (1-z)^(1-2m) Q(z),  Q(z) = sum_{k<m} C(m-1, k)^2 z^k,

    a polynomial with positive coefficients, so no truncation or tail
    certificate is involved.  The mean z d(ln S0)/dz is (2m-1) z/(1-z) plus
    the mean of the weights of Q, and the variance (its derivative in ln z)
    is (2m-1) z/(1-z)^2 plus their variance.  Q is summed as ratio products
    anchored at its largest term.  What does not depend on z is built once:
    the bases ((m-1-k)/(k+1))^2 of the term ratios of Q, and ln C(m-1, k) per
    anchor k.
    """

    def __init__(self, m):
        self.m, _ = check_block(m, 0.0)
        k = np.arange(self.m - 1, dtype=float)
        self.bases = ((self.m - 1.0 - k) / (k + 1.0)) ** 2
        self._log_binomials = {}  # ln C(m-1, k) by anchor k

    def at(self, z):
        """ln S0(z), mean and variance of the law at z."""
        if not 0.0 <= z < 1.0:
            raise ValueError(f"series argument must lie in [0, 1), got {z}")
        if z == 0.0:
            return 0.0, 0.0, 0.0
        m = self.m
        ratios = self.bases * z
        top = ratios.size - int(ratios[::-1].searchsorted(1.0))  # ratios decrease in k
        w = anchored_products(ratios, top)
        del ratios  # freed before ln C(m-1, top) and the moments allocate
        log_c = self._log_binomials.get(top)
        if log_c is None:
            log_c = self._log_binomials[top] = log_binomial(m - 1, top)
        w[top] = 0.0  # Q = 1 + rest: log1p(rest) keeps the (m-1)^2 z of Q at tiny z
        rest = float(w.sum())
        w[top] = 1.0
        total = 1.0 + rest
        k = np.arange(m, dtype=float)
        mean_q = float(k @ w) / total
        k -= mean_q
        var_q = float(np.square(k, out=k) @ w) / total
        log_q = math.log1p(rest) + 2.0 * log_c + top * math.log(z)
        geo = (2 * m - 1) * z / (1.0 - z)
        return ((1 - 2 * m) * math.log1p(-z) + log_q,
                geo + mean_q,
                geo / (1.0 - z) + var_q)


def squared_binomial_law(m, z):
    """ln S0(z), mean and variance of the law P(n) ~ C(n+m-1, m-1)^2 z^n at z."""
    return SquaredBinomialSeries(m).at(z)


# former name of squared_binomial_law, looked up by perfbench/spans.py
_squared_series_logs = squared_binomial_law
