"""Exact entanglement-assisted capacity of the collective-phase dephasing channel.

The channel applies one uniformly random phase to all ``m`` modes of a block,
which projects states onto the subspaces of fixed total photon number.  Its
assisted capacity under a per-mode energy constraint E is attained by an input
whose total-photon-number law has weights proportional to
C(n+m-1, m-1)^2 lambda^n, with lambda fixed by the mean constraint
sum_n n P(n) = m E, and with each n-photon shell populated uniformly.
"""

import math
from dataclasses import dataclass

from .errors import ContractViolation, SolverError
from .photon_dist import PhotonLaw, build_from_log_pmf
from .scalar_math import LN2, thermal_entropy_g
from .special_math import check_block, squared_binomial_law

# perfbench/spans.py traces the normaliser's evaluations under this former name.
# It reads .probs from optimal_total_distribution and bounds.thermal_total_photon_dist,
# so window() and entropy_total_exact never call them by name (ROADMAP item 1b)
_squared_series_logs = squared_binomial_law

_MEAN_RTOL = 1e-10
_MAX_ITER = 100


def solve_lambda(m, energy):
    """(lambda, ln S0(lambda), mean) of the optimal total-photon-number law.

    The mean of the law P(n) ~ C(n+m-1, m-1)^2 lambda^n is strictly
    increasing in lambda, with derivative d(mean)/d(ln lambda) = variance,
    so Newton's method runs in ln lambda on the closed-form mean and
    variance.  The mean is at least (2m-1) lambda/(1-lambda), so the root
    lies in the bracket (0, T/(T+2m-1)] for target mean T = m E; every
    evaluation narrows the bracket, and a Newton step that leaves it is
    replaced by bisection.  Each step is one evaluation of the normaliser,
    and ln S0 and the mean are the last step's, at the lambda returned; the
    mean is verified to reproduce the target m E to 1e-10 relative.
    """
    m, energy = check_block(m, energy)
    if energy == 0.0:
        return 0.0, 0.0, 0.0
    target = m * energy
    lo, hi = 0.0, target / (target + 2.0 * m - 1.0)
    if hi == 1.0:  # no float is left between the root and S0's pole
        raise SolverError(f"lambda bracket top rounded to 1 (m={m}, E={energy})")
    # ln lambda = 2 ln q + t + O(m^-3) at large m, from the Laplace-Heine
    # asymptote of Q (see README); elsewhere two guesses exact at m = 1: the
    # first tends to q^2, the second is the E -> 0 limit, where mean = m^2 lambda
    q = energy / (energy + 1.0)
    t = (energy + 0.5) / (energy * (energy + 1.0) * m)
    lam = min(q * q * math.exp(t) if m > 1 and t < 1.0
              else max(q ** (2.0 - 1.0 / m), q / m), hi)
    for _ in range(_MAX_ITER):
        log_s0, mean, var = _squared_series_logs(m, lam)
        miss = mean - target
        # the mean is within 1e-15 relative, or the Newton step in ln lambda
        # is below 1e-15, where rounding of the mean takes over
        if abs(miss) <= 1e-15 * max(target, var):
            break
        if miss < 0.0:
            lo = lam
        else:
            hi = lam
        if var == 0.0:  # lambda ~ E/m or a bisection step rounded to 0
            raise SolverError(
                f"lambda solve underflowed to 0: E is too close to the "
                f"smallest float (m={m}, E={energy})")
        step = lam * math.exp(min(-miss / var, 700.0))
        if not lo < step < hi:
            step = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        if step == lam:
            break
        lam = step
    else:
        raise SolverError(
            f"lambda solve did not converge within {_MAX_ITER} iterations "
            f"(m={m}, E={energy})")
    if abs(miss) > _MEAN_RTOL * target:
        raise SolverError(
            f"solved lambda={lam} reproduces mean {mean} instead of "
            f"{target} (m={m}, E={energy})")
    return lam, log_s0, mean


def _optimal_law(m, lam, log_s0):
    """The photon_dist.PhotonLaw C(n+m-1, m-1)^2 lambda^n / S0(lambda)."""
    return PhotonLaw(m, 2, lam, math.log(lam) if lam > 0.0 else -math.inf, log_s0)


def optimal_total_distribution(m, lam):
    """Certified window of the capacity-achieving total-photon-number law.

    ``lam`` in [0, 1) is the weight parameter lambda of solve_lambda.  The
    photon_dist.Window omits less than 1e-12 of the mass on both sides; see
    photon_dist.build_from_log_pmf.  ln S0(lambda) is one normaliser evaluation.
    """
    m, _ = check_block(m, 0.0)
    return build_from_log_pmf(_optimal_law(m, lam, _squared_series_logs(m, lam)[0]))


@dataclass
class DephasingSolution:
    """Solved optimal input and capacity for one (m, E) point.

    ``log_s0`` and ``mean`` are the lambda solve's last evaluation: ln S0
    and the law's mean at lambda1, the latter within 1e-10 of m E.
    """

    m: int
    energy: float
    lambda1: float
    capacity: float          # bits per m-mode block
    log_s0: float
    mean: float

    def window(self):
        """Certified window of the optimal law, found per call on its closed-form ln P(n)."""
        return build_from_log_pmf(_optimal_law(self.m, self.lambda1, self.log_s0))

    @property
    def capacity_per_mode(self):
        return self.capacity / self.m

    @property
    def unassisted_ratio(self):
        """Capacity over the m g(E) bits available without assistance."""
        if self.energy == 0.0:  # both are 0
            return math.nan
        return self.capacity / (self.m * thermal_entropy_g(self.energy))


def solve_dephasing(m, energy):
    """Solve one (m, E) point: lambda and the capacity in bits.

    The capacity is sum_n P(n) ln[C(n+m-1, m-1)^2 / P(n)], which with
    ln P(n) = 2 ln C(n+m-1, m-1) + n ln(lambda) - ln S0(lambda) is exactly
    (ln S0(lambda) - m E ln(lambda)) / ln 2 at the solved mean, so no window
    of the law is built, and ln S0(lambda) is the lambda solve's last
    evaluation.  Sanity rail: the capacity must land between the
    unassisted value m g(E) and its doubling.
    """
    m, energy = check_block(m, energy)
    if energy == 0.0:
        return DephasingSolution(m, 0.0, 0.0, 0.0, 0.0, 0.0)

    lam, log_s0, mean = solve_lambda(m, energy)
    capacity = (log_s0 - m * energy * math.log(lam)) / LN2
    base = m * thermal_entropy_g(energy)
    if not base - 1e-9 <= capacity <= 2.0 * base + 1e-9:
        raise ContractViolation(
            f"capacity {capacity} outside [m g(E), 2 m g(E)] = "
            f"[{base}, {2.0 * base}] for m={m}, E={energy}")
    return DephasingSolution(m, energy, lam, capacity, log_s0, mean)
