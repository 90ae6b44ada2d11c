"""Total photon count of an m-mode block of thermal modes, and its entropy.

Feeding each mode of an m-mode block with one arm of a two-mode squeezed
vacuum state makes the block's total photon number negative-binomial
distributed.  Sacrificing that total as side information costs its entropy
H(N), so a rate R of the dephasing-free channel (its assisted capacity, or
the Holevo rate of phase encoding) gives the lower bound R - H(N)/m per mode
under collective dephasing; the command line forms those bounds.

H(N) of a wide law (mean mE at least 13 standard deviations above 30) is a
175-node trapezoid over Loader's form of its pmf, whatever m and E; a narrow
law, at most about 312 (E+1) terms across, is summed by scan_from_ratios.
"""

import math

import numpy as np

from .errors import ContractViolation, SolverError
from .photon_dist import build_from_ratios, certify_edges, point_mass, scan_from_ratios
from .scalar_math import LN2
from .special_math import bd0, check_block, stirling_remainder

# entropy prefactor of a unit-variance Gaussian, ~4.1327
GAUSSIAN_ENTROPY_FACTOR = math.sqrt(2.0 * math.pi * math.e)


def _negative_binomial_ratio(m, energy):
    # exact term ratios P(n+1)/P(n) = (n+m) q / (n+1): their products keep each
    # entry at ~1e-13 relative, where gammaln differences overrun the 1e-12
    # mass window once m reaches ~1e4
    q = energy / (energy + 1.0)
    return lambda n: (n + m) / (n + 1.0) * q


def _check_moments(mean, variance, m, energy):
    for name, got, want in (("mean", mean, m * energy),
                            ("variance", variance, m * energy * (energy + 1.0))):
        if abs(got - want) > 1e-9 * want:
            raise ContractViolation(f"negative-binomial {name} {got} misses {want}")


def thermal_total_photon_dist(m, energy):
    """Total photon number over m independent thermal modes of mean ``energy``.

    Negative binomial: P(n) = C(n+m-1, m-1) E^n / (E+1)^(n+m), with mean m E
    and variance m E (E+1); both moments are re-verified on the materialized
    window to 1e-9 relative as a guard on the cutoff certification.
    """
    # real-valued m >= 1 is accepted so log-spaced mode grids stay exact;
    # the negative-binomial law is well defined for any positive shape
    m, energy = check_block(m, energy, integer=False)
    if energy == 0.0:
        return point_mass()
    dist = build_from_ratios(_negative_binomial_ratio(m, energy))
    _check_moments(dist.mean(), dist.variance(), m, energy)
    return dist


# trapezoid nodes of a wide law, in standard deviations about its mean mE;
# its left edge is at least 30 photons, where stirling_remainder is exact
_NODES_PER_SIGMA = 6
_WIDE_SPAN = (-13, 16)


def _log_nb_pmf(m, energy, offset):
    """ln P(t) of the negative binomial at t = mE + offset, in Loader's form.

    With D = offset/(E+1), ln P(t) = delta(t+m) - delta(m) - delta(t)
    - bd0(m, -D) - bd0(t, D) - ln(2 pi t (t+m)/m)/2, where no term is a
    difference of two large logs.  D is taken from the offset, so the
    rounding of mE only shifts the law.
    """
    t, d = m * energy + offset, offset / (energy + 1.0)
    delta = stirling_remainder(np.stack((t + m, t)))
    dev = bd0(np.stack((np.full_like(t, m), t)), np.stack((-d, d)))
    return (delta[0] - delta[1] - dev[0] - dev[1] - stirling_remainder(m)
            - 0.5 * (np.log(2.0 * math.pi * t) + np.log1p(t / m)))


def _entropy_wide(m, energy):
    """(entropy in bits, mean, variance) of a law with mE - 13 sigma >= 30.

    A trapezoid with step h = sigma/6 over [mE - 13 sigma, mE + 16 sigma]
    of the continuous law, which matches the sum over integers to about
    exp(-2 pi^2 sigma^2) and converges geometrically in h.  With S = h sum p,
    H = ln S - h sum p ln p / S cancels any constant offset in ln P, and S
    must be 1 to 1e-12: one guard on ln P, h and the sum-to-integral step.
    The integer tails beyond both edges are certified as the scan's are.
    """
    mean, sigma = m * energy, math.sqrt(m * energy * (energy + 1.0))
    z = np.arange(_WIDE_SPAN[0] * _NODES_PER_SIGMA,
                  _WIDE_SPAN[1] * _NODES_PER_SIGMA + 1) / _NODES_PER_SIGMA
    edges = np.array([np.ceil(mean + _WIDE_SPAN[0] * sigma),
                      np.floor(mean + _WIDE_SPAN[1] * sigma)])
    log_p = _log_nb_pmf(m, energy, np.concatenate((z * sigma, edges - mean)))
    p = np.exp(log_p[:-2])
    h = sigma / _NODES_PER_SIGMA
    total = h * float(p.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise SolverError(f"negative-binomial trapezoid mass {total} misses 1")
    ratio = _negative_binomial_ratio(m, energy)
    p_lo, p_hi = np.exp(log_p[-2:]) / total
    _, short = certify_edges(p_lo, 1.0 / ratio(edges[0] - 1.0), p_hi, ratio(edges[1]))
    if any(short):
        raise SolverError(f"negative-binomial tails beyond [{edges[0]:.17g}, "
                          f"{edges[1]:.17g}] are not certified")
    first, second = float(z @ p) * h / total, float((z * z) @ p) * h / total
    return ((math.log(total) - h * float(p @ log_p[:-2]) / total) / LN2,
            mean + sigma * first, sigma * sigma * (second - first * first))


def entropy_total_exact(m, energy):
    """Entropy in bits of the total-count negative-binomial law.

    A wide law is integrated by _entropy_wide from 177 terms; a narrow one
    is streamed over thermal_total_photon_dist's window in O(chunk) memory.
    """
    m, energy = check_block(m, energy, integer=False)
    if energy == 0.0:
        return 0.0
    sigma = math.sqrt(m * energy * (energy + 1.0))
    if m * energy + _WIDE_SPAN[0] * sigma >= 30.0:
        entropy, mean, variance = _entropy_wide(m, energy)
    else:
        entropy, mean, variance = scan_from_ratios(_negative_binomial_ratio(m, energy))
    _check_moments(mean, variance, m, energy)
    return entropy


def entropy_total_asym(m, energy):
    """Large-m Gaussian approximation log2[sqrt(2 pi e) sqrt(m E (E+1))].

    Returns NaN when the argument of the log drops below 1 (the regime where
    the approximation stops making sense); NaN then propagates through any
    bound built on top of it.
    """
    m, energy = check_block(m, energy, integer=False)
    arg = GAUSSIAN_ENTROPY_FACTOR * math.sqrt(m * energy * (energy + 1.0))
    if arg < 1.0:
        return math.nan
    return math.log2(arg)

