"""Numerically stable building blocks on numpy arrays.

Sums whose terms span a huge dynamic range are taken as products of exact
term ratios anchored at the largest term (``anchored_products``), which
keeps every term at a few ulps relative; only the anchor itself is carried
as a log.  Entropies are in bits, as in ``scalar_math``.
"""

import math

import numpy as np

from .scalar_math import check_photons


_MASS_TOL = 1e-9


def shannon_entropy(p):
    """Shannon entropy in bits of a probability vector.

    ``p`` may be an array of probabilities or any object with ``probs`` and
    ``tail_bound`` attributes (see JointFockDiagonal); in the latter case the
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
# per mode, about 240 MB at this limit
MAX_MODES = 10_000_000


def check_block(m, energy, integer=True):
    """Validated (m, E) of an m-mode block at mean photon number E per mode.

    ``m`` must be a positive integer of at most MAX_MODES and is returned as
    int; with ``integer=False`` any finite m >= 1 is accepted and returned as
    float, so log-spaced mode grids stay exact.  ``energy`` must pass
    check_photons.
    """
    if integer:
        if m > MAX_MODES:  # before any per-mode array is allocated
            raise ValueError(f"mode count {m} exceeds the limit of {MAX_MODES} modes")
        if not float(m).is_integer() or m < 1:
            raise ValueError(f"mode count must be a positive integer, got {m}")
        m = int(m)
    elif not 1 <= m < math.inf:  # NaN too
        raise ValueError(f"mode count must be >= 1 and finite, got {m}")
    else:
        m = float(m)
    return m, check_photons(energy)


def check_weight(z):
    """``z`` if it lies in [0, 1), where the law C(n+m-1, m-1)^2 z^n sums."""
    if not 0.0 <= z < 1.0:
        raise ValueError(f"series argument must lie in [0, 1), got {z}")
    return z


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
    anchored at its largest term, whose log is the sum of the logs of the
    ratios before it, all >= 1.  Only the bases ((m-1-k)/(k+1))^2 of those
    ratios are built once, as they do not depend on z.
    """

    def __init__(self, m):
        self.m, _ = check_block(m, 0.0)
        k = np.arange(self.m - 1, dtype=float)
        self.bases = ((self.m - 1.0 - k) / (k + 1.0)) ** 2

    def at(self, z):
        """ln S0(z), mean and variance of the law at z."""
        if check_weight(z) == 0.0:
            return 0.0, 0.0, 0.0
        m = self.m
        ratios = self.bases * z
        top = ratios.size - int(ratios[::-1].searchsorted(1.0))  # ratios decrease in k
        w = anchored_products(ratios, top)
        # ln of Q's largest term C(m-1, top)^2 z^top, from the ratios before it
        log_top = float(np.log(ratios[:top], out=ratios[:top]).sum())
        del ratios  # freed before the moments allocate
        w[top] = 0.0  # Q = 1 + rest: log1p(rest) keeps the (m-1)^2 z of Q at tiny z
        rest = float(w.sum())
        w[top] = 1.0
        total = 1.0 + rest
        k = np.arange(m, dtype=float)
        mean_q = float(k @ w) / total
        k -= mean_q
        var_q = float(np.square(k, out=k) @ w) / total
        log_q = math.log1p(rest) + log_top
        geo = (2 * m - 1) * z / (1.0 - z)
        return ((1 - 2 * m) * math.log1p(-z) + log_q,
                geo + mean_q,
                geo / (1.0 - z) + var_q)


def squared_binomial_law(m, z):
    """ln S0(z), mean and variance of the law P(n) ~ C(n+m-1, m-1)^2 z^n at z."""
    return SquaredBinomialSeries(m).at(z)


# former name of squared_binomial_law, looked up by perfbench/spans.py
_squared_series_logs = squared_binomial_law
