"""Numerically stable building blocks on numpy arrays.

Sums whose terms span a huge dynamic range are taken as products of exact
term ratios anchored at the largest term (``anchored_products``), which
keeps every term at a few ulps relative; only the anchor itself is carried
as a log.  Entropies are in bits, as in ``scalar_math``.
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


def check_block(m, energy, integer=True):
    """Validated (m, E) of an m-mode block at mean photon number E per mode.

    ``m`` must be a positive integer and is returned as int; with
    ``integer=False`` any real m >= 1 is accepted and returned as float, so
    log-spaced mode grids stay exact.  ``energy`` must pass check_photons.
    """
    if integer:
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

    Built by cumulative products outward from the anchor; anchored at the
    largest term, every entry lies in [0, 1] and carries a relative error of
    a few ulps per step, whatever the dynamic range.
    """
    x = np.empty(ratios.size + 1)
    x[anchor] = 1.0
    x[anchor + 1:] = np.cumprod(ratios[anchor:])
    x[:anchor] = np.cumprod(1.0 / ratios[:anchor][::-1])[::-1]
    return x


def squared_binomial_law(m, z):
    """ln S0(z), mean and variance of the law P(n) ~ C(n+m-1, m-1)^2 z^n.

    S0(z) = sum_n C(n+m-1, m-1)^2 z^n = 2F1(m, m; 1; z).  Euler's
    transformation (DLMF 15.8(i)) makes it finite:

        S0(z) = (1-z)^(1-2m) Q(z),  Q(z) = sum_{k<m} C(m-1, k)^2 z^k,

    a polynomial with positive coefficients, so no truncation or tail
    certificate is involved.  The mean z d(ln S0)/dz is (2m-1) z/(1-z) plus
    the mean of the weights of Q, and the variance (its derivative in ln z)
    is (2m-1) z/(1-z)^2 plus their variance.  Q is summed as ratio products
    anchored at its largest term.
    """
    m, _ = check_block(m, 0.0)
    if not 0.0 <= z < 1.0:
        raise ValueError(f"series argument must lie in [0, 1), got {z}")
    if z == 0.0:
        return 0.0, 0.0, 0.0
    k = np.arange(m, dtype=float)
    ratios = ((m - 1.0 - k[:-1]) / (k[:-1] + 1.0)) ** 2 * z
    top = int(np.count_nonzero(ratios >= 1.0))  # ratios decrease in k
    w = anchored_products(ratios, top)
    w[top] = 0.0  # Q = 1 + rest: log1p(rest) keeps the (m-1)^2 z of Q at tiny z
    rest = float(w.sum())
    w[top] = 1.0
    total = 1.0 + rest
    mean_q = float(k @ w) / total
    var_q = float(((k - mean_q) ** 2) @ w) / total
    log_q = math.log1p(rest) + 2.0 * log_binomial(m - 1, top) + top * math.log(z)
    geo = (2 * m - 1) * z / (1.0 - z)
    return ((1 - 2 * m) * math.log1p(-z) + log_q,
            geo + mean_q,
            geo / (1.0 - z) + var_q)


# former name of squared_binomial_law, looked up by perfbench/spans.py
_squared_series_logs = squared_binomial_law
