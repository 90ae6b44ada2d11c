"""Total photon count of an m-mode block of thermal modes, and its entropy.

Feeding each mode of an m-mode block with one arm of a two-mode squeezed
vacuum state makes the block's total photon number negative-binomial
distributed.  Sacrificing that total as side information costs its entropy
H(N), so a rate R of the dephasing-free channel (its assisted capacity, or
the Holevo rate of phase encoding) gives the lower bound R - H(N)/m per mode
under collective dephasing; the command line forms those bounds.
"""

import math

from .errors import ContractViolation
from .photon_dist import build_from_ratios, point_mass, scan_from_ratios
from .special_math import check_block

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


def entropy_total_exact(m, energy):
    """Entropy in bits of the total-count negative-binomial law.

    Streamed over thermal_total_photon_dist's window in O(chunk) memory.
    """
    m, energy = check_block(m, energy, integer=False)
    if energy == 0.0:
        return 0.0
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

