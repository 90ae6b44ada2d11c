"""Closed-form capacities of the single-mode thermal-loss channel.

The channel mixes the signal with a thermal environment on a beamsplitter of
transmissivity ``kappa``; ``n_b`` is the mean photon number the channel adds
to a vacuum input.  Both assisted and unassisted capacities of this channel
are known in closed form in terms of the thermal entropy function.
"""

import math
from dataclasses import dataclass

from .errors import ContractViolation, SolverError
from .scalar_math import check_photons, thermal_entropy_g


@dataclass(frozen=True)
class ThermalLossChannel:
    kappa: float
    n_b: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError(f"transmissivity must lie in (0, 1], got {self.kappa}")
        check_photons(self.n_b, "added noise")
        if self.kappa == 1.0 and self.n_b != 0.0:
            raise ValueError("a lossless channel cannot add thermal noise")

    def output_mean(self, energy):
        """Mean photon number at the output for input mean ``energy``."""
        return self.kappa * energy + self.n_b


def _intermediates(ch, energy):
    """(output mean E', discriminant D, A+, A-) entering the capacity formula.

    D^2 = (E + E' + 1)^2 - 4 kappa E (E + 1) is evaluated in the expanded form
    D^2 - 1 = E^2 (1-kappa)^2 + 2 E [(1+kappa) n_b + (1-kappa)] + n_b^2 + 2 n_b,
    whose terms are all nonnegative.  The occupations
    A+- = (D - 1 +- (E' - E)) / 2 are formed without cancelling differences:
    D - 1 = (D^2 - 1) / (D + 1), the larger one is (D - 1)/2 + |E' - E|/2, and
    the smaller one is the product
    A+ A- = 2 E (E+1) n_b (n_b + 1 - kappa) / (X + D), with
    X = E (1-kappa) + n_b + 1 + 2 E n_b, divided by the larger one.
    At E = 0 they are exactly (n_b, n_b + 1, n_b, 0), returned without the
    n_b^2 that overflows beyond n_b ~ 1.3e154.
    """
    kappa, n_b = ch.kappa, ch.n_b
    if energy == 0.0:
        return n_b, n_b + 1.0, n_b, 0.0
    e_prime = kappa * energy + n_b
    d_sq_m1 = (energy * (1.0 - kappa) * (energy * (1.0 - kappa))  # ** 2 raises on overflow
               + energy * (2.0 * ((1.0 + kappa) * n_b + (1.0 - kappa)))  # 2E is inf past 9e307
               + n_b * n_b + 2.0 * n_b)
    big_d = math.sqrt(1.0 + d_sq_m1)
    gap = n_b - (1.0 - kappa) * energy  # E' - E
    larger = 0.5 * d_sq_m1 / (big_d + 1.0) + 0.5 * abs(gap)
    x = energy * (1.0 - kappa) + n_b + 1.0 + 2.0 * energy * n_b
    product = (2.0 * energy * (energy + 1.0) * n_b * (n_b + (1.0 - kappa))
               / (x + big_d)) if n_b > 0.0 else 0.0  # not inf * 0 = nan at huge E
    if not math.isfinite(larger + product):
        raise SolverError(f"thermal-loss occupations overflow double precision at "
                          f"kappa={kappa}, n_b={n_b}, E={energy}")
    smaller = product / larger if larger > 0.0 else 0.0
    if gap >= 0.0:
        return e_prime, big_d, larger, smaller
    return e_prime, big_d, smaller, larger


def ea_capacity(ch, energy):
    """Entanglement-assisted classical capacity in bits per channel use."""
    check_photons(energy)
    e_prime, _, a_plus, a_minus = _intermediates(ch, energy)
    return (thermal_entropy_g(energy) + thermal_entropy_g(e_prime)
            - thermal_entropy_g(a_plus) - thermal_entropy_g(a_minus))


def hsw_capacity(ch, energy):
    """Unassisted (Holevo) classical capacity in bits per channel use."""
    check_photons(energy)
    return thermal_entropy_g(ch.output_mean(energy)) - thermal_entropy_g(ch.n_b)


def advantage_ratio(ch, energy):
    """Ratio of assisted to unassisted capacity; undefined at zero energy."""
    if energy <= 0.0:
        raise ValueError("capacity ratio is undefined at zero input energy")
    return ea_capacity(ch, energy) / hsw_capacity(ch, energy)


@dataclass(frozen=True)
class CapacityReport:
    """Both capacities plus the intermediates of the assisted formula."""

    kappa: float
    n_b: float
    energy: float
    ea: float
    hsw: float
    ratio: float
    e_prime: float
    big_d: float
    a_plus: float
    a_minus: float


def capacity_report(ch, energy):
    """Both capacities, refused unless ea >= hsw (1 - 1e-12) and, at E > 0, hsw > 0."""
    check_photons(energy)
    e_prime, big_d, a_plus, a_minus = _intermediates(ch, energy)
    ea = ea_capacity(ch, energy)
    hsw = hsw_capacity(ch, energy)
    if not ea >= hsw * (1.0 - 1e-12):
        raise ContractViolation(f"assisted capacity {ea} is below the unassisted {hsw} "
                                f"at kappa={ch.kappa}, n_b={ch.n_b}, E={energy}")
    if energy > 0.0 and not hsw > 0.0:
        raise SolverError(f"unassisted capacity rounds to 0 at n_b={ch.n_b}, E={energy}")
    ratio = ea / hsw if energy > 0.0 else math.nan
    return CapacityReport(ch.kappa, ch.n_b, energy, ea, hsw, ratio,
                          e_prime, big_d, a_plus, a_minus)
