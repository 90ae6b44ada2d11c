"""Numerically stable building blocks on numpy arrays.

The pure-dephasing law's normaliser, an m-term polynomial, is summed from
its first 257 terms where those are all or nearly all of it, and read from
Laplace's integral at 96 nodes elsewhere, so its cost does not grow with m.
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


# Most modes of one integer block: the documented and tested range of the
# pure-dephasing solve, not a memory limit (it holds no per-mode array)
MAX_MODES = 10_000_000


def check_block(m, energy, integer=True):
    """Validated (m, E) of an m-mode block at mean photon number E per mode.

    ``m`` must be a positive integer of at most MAX_MODES and is returned as
    int; with ``integer=False`` any finite m >= 1 is accepted and returned as
    float, so log-spaced mode grids stay exact.  ``energy`` must pass
    check_photons.
    """
    if integer:
        if m > MAX_MODES:  # first, as float(m) overflows past 1e308
            raise ValueError(f"mode count {m} exceeds the limit of {MAX_MODES} modes")
        if not float(m).is_integer() or m < 1:
            raise ValueError(f"mode count must be a positive integer, got {m}")
        m = int(m)
    elif not 1 <= m < math.inf:  # NaN too
        raise ValueError(f"mode count must be >= 1 and finite, got {m}")
    else:
        m = float(m)
    return m, check_photons(energy)


# Q's head: its terms k <= _HEAD, all of them while m - 1 <= _HEAD
_HEAD = 256
# Laplace's integral: its midpoint nodes, and their reach in peak scales
_NODES, _REACH = 96, 16.0


def squared_binomial_law(m, z):
    """ln S0(z), mean and variance of the law P(n) ~ C(n+m-1, m-1)^2 z^n at z.

    S0(z) = 2F1(m, m; 1; z) = (1-z)^(1-2m) Q(z) by Euler's transformation
    (DLMF 15.8(i)), Q(z) = sum_{k<m} C(m-1, k)^2 z^k.  The mean z d(ln S0)/dz
    is (2m-1) z/(1-z) plus the mean of Q's weights, and the variance, its
    derivative in ln z, (2m-1) z/(1-z)^2 plus theirs.  With n = m - 1 they
    come from _head where n <= 256 or n sqrt(z) <= 2, which drops under
    1e-800 of Q, else from _laplace, which drops under 1e-22 of I >= 7e-5.
    """
    n = check_block(m, 0.0)[0] - 1
    if not 0.0 <= z < 1.0:  # where the law sums
        raise ValueError(f"series argument must lie in [0, 1), got {z}")
    if z == 0.0:
        return 0.0, 0.0, 0.0
    r = math.sqrt(z)
    log_q, mean_q, var_q = _head(n, z) if n <= _HEAD or n * r <= 2.0 else _laplace(n, z, r)
    geo = (2 * n + 1) * z / (1.0 - z)
    return -(2 * n + 1) * math.log1p(-z) + log_q, geo + mean_q, geo / (1.0 - z) + var_q


def _head(n, z):
    """ln Q, mean and variance of Q's weights from its terms k <= 256.

    The terms are products of the exact ratios ((n-k+1)/k)^2 z from 1 at
    k = 0: all of Q below n = 257, none above C(256, 128)^2 ~ 3e152; above
    it n sqrt(z) <= 2 bounds each by 4^k/(k!)^2, so they miss 1e-800 of Q.
    ln Q is log1p of those beside the 1, which keeps Q = 1 + n^2 z + ....
    """
    k = np.arange(1.0, min(n, _HEAD) + 1.0)
    terms = np.cumprod(((n + 1.0 - k) / k) ** 2 * z)
    rest = float(terms.sum())
    mean = float(k @ terms) / (1.0 + rest)
    var = (mean * mean + float((k - mean) ** 2 @ terms)) / (1.0 + rest)
    return math.log1p(rest), mean, var


def _laplace(n, z, r):
    """ln Q, mean and variance of Q's weights from Laplace's integral.

    With c = 4r/(1+r)^2 and u = 1 - c s, s = sin^2(t/2), Laplace's first
    integral for the Legendre polynomial gives Q = (1+r)^(2n) I, with
    I = (1/pi) int_0^pi u^n dt.  Q's weights have mean n <h> and variance
    n <Dh> + n^2 (<h^2> - <h>^2), averaged with the weights u^n, where
    h = (z + r cos t)/g = r/(1+r) - b s/u, b = 2r(1-r)/(1+r)^3, and
    Dh = (z + (1+z) r cos t/2)/g^2, g = (1+r)^2 u.  u^n peaks at t = 0 with
    scale w = sqrt(2/(nc)), n c > 2; the first 96 of the K = max(96,
    ceil(6 pi/w)) midpoint nodes on [0, pi] reach to pi or to 16 w.  With
    |u^n| <= e^6.1 for |Im t| < 2w, Trefethen and Weideman's bound (SIAM
    Review 56, 2014) puts the K-node rule's error below 1e-30, and
    u^n <= exp(-nc t^2/pi^2) the dropped nodes' below 1e-22, against
    I >= w/(2 pi) >= 7e-5 for n <= 1e7 (README, Numerics).
    """
    c = 4.0 * r / (1.0 + r) ** 2
    count = max(_NODES, math.ceil(_NODES * math.pi / (_REACH * math.sqrt(2.0 / (n * c)))))
    s = np.sin((np.arange(_NODES) + 0.5) * (0.5 * math.pi / count)) ** 2
    u = 1.0 - c * s
    weights = np.exp(n * np.log1p(-c * s))
    total = float(weights.sum())
    b = 2.0 * r * (1.0 - r) / (1.0 + r) ** 3
    y = s / u  # only the small part b s/u of h is averaged
    mean_y = float(weights @ y) / total
    dh = (z + 0.5 * (1.0 + z) * r * (1.0 - 2.0 * s)) / ((1.0 + r) ** 4 * u * u)
    spread = b * b * float(weights @ (y - mean_y) ** 2) / total
    hi = 134217729.0 * r - (134217729.0 * r - r)  # Veltkamp: hi, r - hi split r
    r_lo = (z - hi * hi - 2.0 * hi * (r - hi) - (r - hi) ** 2) / (2.0 * r)  # sqrt(z) - r
    return (2 * n * (math.log1p(r) + r_lo / (1.0 + r)) + math.log(total / count),
            n * (r / (1.0 + r) - b * mean_y),
            n * float(weights @ dh) / total + n * n * spread)


# former name of squared_binomial_law, looked up by perfbench/spans.py
_squared_series_logs = squared_binomial_law
