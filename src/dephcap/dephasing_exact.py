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
from .photon_dist import build_from_ratios, scan_from_ratios
from .scalar_math import LN2, thermal_entropy_g
from .special_math import SquaredBinomialSeries, check_block, check_weight

# perfbench/spans.py traces these two layers under their former names: the
# series' evaluations at one lambda each, and the law's builder
_squared_series_logs = SquaredBinomialSeries.at
build_from_log_pmf = build_from_ratios

_MEAN_RTOL = 1e-10
_MAX_ITER = 100


def solve_lambda(m, energy):
    """(lambda, ln S0(lambda)) of the optimal total-photon-number law.

    The mean of the law P(n) ~ C(n+m-1, m-1)^2 lambda^n is strictly
    increasing in lambda, with derivative d(mean)/d(ln lambda) = variance,
    so Newton's method runs in ln lambda on the closed-form mean and
    variance.  The mean is at least (2m-1) lambda/(1-lambda), so the root
    lies in the bracket (0, T/(T+2m-1)] for target mean T = m E; every
    evaluation narrows the bracket, and a Newton step that leaves it is
    replaced by bisection.  One series serves every step, and ln S0 is the
    last step's, at the lambda returned.  Verified to reproduce the target
    mean to 1e-10 relative.
    """
    m, energy = check_block(m, energy)
    if energy == 0.0:
        return 0.0, 0.0
    target = m * energy
    lo, hi = 0.0, target / (target + 2.0 * m - 1.0)
    if hi == 1.0:  # no float is left between the root and the series' pole
        raise SolverError(f"lambda bracket top rounded to 1 (m={m}, E={energy})")
    series = SquaredBinomialSeries(m)
    # ln lambda = 2 ln q + t + O(m^-3) at large m, from the Laplace-Heine
    # asymptote of Q (see README); elsewhere two guesses exact at m = 1: the
    # first tends to q^2, the second is the E -> 0 limit, where mean = m^2 lambda
    q = energy / (energy + 1.0)
    t = (energy + 0.5) / (energy * (energy + 1.0) * m)
    lam = min(q * q * math.exp(t) if m > 1 and t < 1.0
              else max(q ** (2.0 - 1.0 / m), q / m), hi)
    for _ in range(_MAX_ITER):
        log_s0, mean, var = _squared_series_logs(series, lam)
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
    return lam, log_s0


def _optimal_ratio(m, lam):
    """Exact term ratio ((n+m)/(n+1))^2 lambda of the optimal law."""
    return lambda n: ((n + m) / (n + 1.0)) ** 2 * lam


def optimal_total_distribution(m, lam):
    """Capacity-achieving distribution of the total photon number over a block.

    ``lam`` in [0, 1) is the weight parameter lambda of solve_lambda.  Stored
    over a window certified to omit less than 1e-12 of the mass (and below
    1e-11 bits of entropy) on both sides; see photon_dist.build_from_ratios.
    """
    m, _ = check_block(m, 0.0)
    return build_from_log_pmf(_optimal_ratio(m, check_weight(lam)))


@dataclass
class DephasingSolution:
    """Solved optimal input and capacity for one (m, E) point."""

    m: int
    energy: float
    lambda1: float
    capacity: float          # bits per m-mode block

    def window(self):
        """Certified window of the optimal law, walked per call; its mean must be m E to 1e-9."""
        window = scan_from_ratios(_optimal_ratio(self.m, self.lambda1))
        target = self.m * self.energy
        if abs(window.mean - target) > 1e-9 * target:
            raise ContractViolation(
                f"optimal distribution mean {window.mean} misses m E = {target}")
        return window

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
        return DephasingSolution(m, 0.0, 0.0, 0.0)

    lam, log_s0 = solve_lambda(m, energy)
    capacity = (log_s0 - m * energy * math.log(lam)) / LN2
    base = m * thermal_entropy_g(energy)
    if not base - 1e-9 <= capacity <= 2.0 * base + 1e-9:
        raise ContractViolation(
            f"capacity {capacity} outside [m g(E), 2 m g(E)] = "
            f"[{base}, {2.0 * base}] for m={m}, E={energy}")
    return DephasingSolution(m, energy, lam, capacity)
