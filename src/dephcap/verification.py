"""Cross-checks tying the closed-form modules to the dense Fock simulator.

Each check computes the same physical quantity twice, once through a closed
form and once through brute-force linear algebra, and reports the discrepancy
against a stated tolerance.  ``run_all`` powers the command-line ``verify``
subcommand; the acceptance test suite asserts on the same results.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, dephasing_exact, fock_oracle, phase_encoding
from .special_math import log_binomial, squared_binomial_law, thermal_entropy_g
from .thermal_loss import ThermalLossChannel, _intermediates


@dataclass
class CheckResult:
    name: str
    value: float
    reference: float
    tolerance: float
    status: str = field(init=False)

    def __post_init__(self):
        if math.isnan(self.value) or math.isnan(self.reference):
            self.status = "fail"
        else:
            self.status = "pass" if self.delta <= self.tolerance else "fail"

    @property
    def delta(self):
        return abs(self.value - self.reference)

    def line(self):
        return (f"{self.status.upper():4s} {self.name:42s} "
                f"value={self.value:+.12e} ref={self.reference:+.12e} "
                f"delta={self.delta:.3e} tol={self.tolerance:.1e}")


def _skipped(name, note):
    res = CheckResult.__new__(CheckResult)
    res.name = name
    res.value = math.nan
    res.reference = math.nan
    res.tolerance = math.nan
    res.status = f"skipped ({note})"
    return res


def check_single_mode_thermal_identity():
    """For one mode the dephasing costs nothing: assisted capacity is g(E)."""
    worst = max(
        abs(dephasing_exact.solve_dephasing(1, e).capacity - thermal_entropy_g(e))
        for e in (0.1, 1.0, 10.0))
    return CheckResult("single-mode capacity equals g(E)", worst, 0.0, 1e-10)


def _optimal_joint_weight(m, lam, occupations):
    """Probability of one m-mode occupation pattern under the optimal input.

    Within each shell of total photon number n the optimal law is uniform, so
    the pattern weight is C(n+m-1, m-1) lambda^n / normalization (lambda > 0).
    """
    total = int(sum(occupations))
    log_norm = squared_binomial_law(m, lam)[0]
    return math.exp(log_binomial(total + m - 1, m - 1)
                    + total * math.log(lam) - log_norm)


def check_two_mode_optimal_input_mi():
    """Flagship check: capacity formula vs dense mutual information at m=2.

    Enumerates every two-mode occupation pattern up to a total of 25 photons,
    weights it by the optimal input law, and evaluates the dephased mutual
    information by per-block eigendecomposition.
    """
    m, energy, total_cut = 2, 0.3, 25
    sol = dephasing_exact.solve_dephasing(m, energy)
    patterns = [(n1, n2) for n1 in range(total_cut + 1)
                for n2 in range(total_cut + 1 - n1)]
    probs = np.array([_optimal_joint_weight(m, sol.lambda1, pat) for pat in patterns])
    probs /= probs.sum()  # mass beyond the enumeration cutoff is ~4e-9
    totals = np.array([sum(pat) for pat in patterns])
    mi = fock_oracle.schmidt_dephased_mutual_information(probs, totals)
    return CheckResult("two-mode optimal-input MI vs capacity",
                       mi, sol.capacity, 1e-4)


def check_complementary_total_count():
    """Environment of the dephasing channel sees a negative-binomial total."""
    cutoff, energy = 60, 1.0
    one = fock_oracle.thermal_probs(energy, cutoff)
    dist = fock_oracle.complementary_dephasing((cutoff, cutoff), np.kron(one, one))
    ref = bounds.thermal_total_photon_dist(2, energy)
    n = cutoff  # totals below the per-mode cutoff have no missing patterns
    worst = float(np.abs(dist.probs[:n] - ref.probs[:n]).max())
    return CheckResult("complementary dephasing output law", worst, 0.0, 1e-10)


def check_fock_diagonal_vs_dilation():
    """Number-kernel construction vs beamsplitter dilation, element by element."""
    ch, energy, cutoff = ThermalLossChannel(0.8, 0.5), 0.1, 20
    probs = phase_encoding.fock_diagonal(energy, ch).probs
    n_s, n_i = min(cutoff, probs.shape[0]), min(cutoff, probs.shape[1])
    lossy = fock_oracle.apply_thermal_loss(
        fock_oracle.tmsv_state(energy, cutoff), 0, ch)
    dense = np.real(np.diag(lossy.data)).reshape(cutoff, cutoff)
    worst = float(np.abs(probs[:n_s, :n_i] - dense[:n_s, :n_i]).max())
    return CheckResult("joint Fock diagonal vs dilation", worst, 0.0, 1e-8)


def check_phase_average_diagonality():
    """Uniform phase randomization leaves no off-diagonal Fock elements."""
    energy, cutoff, n_phases = 0.1, 12, 64
    lossy = fock_oracle.apply_thermal_loss(
        fock_oracle.tmsv_state(energy, cutoff), 0, ThermalLossChannel(0.8, 0.5))
    avg = np.zeros_like(lossy.data)
    for k in range(n_phases):
        theta = 2.0 * math.pi * k / n_phases
        avg += fock_oracle.apply_phase_shift(lossy, 0, theta).data
    avg /= n_phases
    off = avg - np.diag(np.diag(avg))
    return CheckResult("phase-averaged state diagonality",
                       float(np.abs(off).max()), 0.0, 1e-10)


def check_discrete_phase_holevo():
    """Holevo information of a 64-phase ensemble vs the continuous formula.

    Every member is a unitary phase rotation of ``lossy`` and has its
    entropy, so chi = S(average) - S(lossy).
    """
    ch, energy, cutoff, n_phases = ThermalLossChannel(0.8, 0.5), 0.1, 14, 64
    lossy = fock_oracle.apply_thermal_loss(
        fock_oracle.tmsv_state(energy, cutoff), 0, ch)
    avg = fock_oracle.FockOperator(lossy.dims, sum(
        fock_oracle.apply_phase_shift(lossy, 0, 2.0 * math.pi * k / n_phases).data
        for k in range(n_phases)) / n_phases)
    chi_dense = (fock_oracle.von_neumann_entropy(avg)
                 - fock_oracle.von_neumann_entropy(lossy))
    chi = phase_encoding.holevo_phase_encoding(energy, ch)
    return CheckResult("discrete-phase Holevo information",
                       chi_dense, chi, 1e-3)


def check_symplectic_occupations():
    """{(nu+- - 1)/2} of the loss-applied TMSV equals the capacity intermediates.

    An unordered-pair identity: the eigenvalues are sorted by magnitude while
    the intermediates follow the sign of E' - E, so the labels cross when the
    channel attenuates more than it adds.
    """
    worst = 0.0
    kappas = (0.2, 0.45, 0.7, 0.9, 1.0)
    noises = (0.0, 0.01, 0.1, 1.0, 10.0)
    energies = (0.001, 0.01, 0.1, 1.0, 10.0)
    for kappa, n_b, energy in itertools.product(kappas, noises, energies):
        if kappa == 1.0 and n_b > 0.0:
            continue  # lossless channel admits no added noise
        ch = ThermalLossChannel(kappa, n_b)
        nu_minus, nu_plus = phase_encoding.symplectic_eigenvalues(
            phase_encoding.tmsv_through_loss(energy, ch))
        _, _, a_plus, a_minus = _intermediates(ch, energy)
        worst = max(worst,
                    abs(0.5 * (nu_plus - 1.0) - max(a_plus, a_minus)),
                    abs(0.5 * (nu_minus - 1.0) - min(a_plus, a_minus)))
    return CheckResult("symplectic occupations vs intermediates",
                       worst, 0.0, 1e-9)


def check_covariance_vs_dilation():
    """Second moments of the dilation output vs the closed-form matrix.

    Moments weight the truncation tail by n^2, so this check needs a larger
    cutoff than the element-wise ones to reach its tolerance.
    """
    ch, energy, cutoff = ThermalLossChannel(0.8, 0.5), 0.1, 28
    lossy = fock_oracle.apply_thermal_loss(
        fock_oracle.tmsv_state(energy, cutoff), 0, ch)
    cm = fock_oracle.two_mode_covariance(lossy)
    ref = phase_encoding.tmsv_through_loss(energy, ch)
    return CheckResult("covariance matrix vs dilation",
                       float(np.abs(cm - ref).max()), 0.0, 1e-8)


def check_loss_dephasing_commutation():
    """Thermal loss on each mode commutes with collective dephasing."""
    rng = np.random.default_rng(7)
    dims = (5, 5)
    dim = dims[0] * dims[1]
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    state = fock_oracle.FockOperator(dims, rho)

    def loss_both(s):
        for mode in (0, 1):
            s = fock_oracle.apply_thermal_loss(s, mode, ThermalLossChannel(0.7, 0.3))
        return s

    a = fock_oracle.apply_dephasing(loss_both(state)).data
    b = loss_both(fock_oracle.apply_dephasing(state)).data
    return CheckResult("loss commutes with dephasing",
                       float(np.abs(a - b).max()), 0.0, 1e-9)


def check_dephasing_idempotence():
    """Projecting onto total-photon blocks twice changes nothing."""
    rng = np.random.default_rng(11)
    dims = (6, 6)
    dim = dims[0] * dims[1]
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    once = fock_oracle.apply_dephasing(fock_oracle.FockOperator(dims, rho))
    twice = fock_oracle.apply_dephasing(once)
    return CheckResult("dephasing idempotence",
                       float(np.abs(twice.data - once.data).max()), 0.0, 0.0)


def check_trace_preservation():
    """Dephasing preserves trace exactly; the dilation up to truncation.

    The cutoff must sit well past the post-channel mean (0.52 here), since
    output photons above it are dropped: at 24 levels the overflow is ~1e-10.
    """
    state = fock_oracle.tmsv_state(0.2, 24)
    deph = fock_oracle.apply_dephasing(state)
    lossy = fock_oracle.apply_thermal_loss(state, 0, ThermalLossChannel(0.6, 0.4))
    worst = max(abs(deph.trace().real - 1.0), abs(lossy.trace().real - 1.0))
    return CheckResult("trace preservation", worst, 0.0, 1e-9)


_ALL_CHECKS = (
    check_single_mode_thermal_identity,
    check_two_mode_optimal_input_mi,
    check_complementary_total_count,
    check_fock_diagonal_vs_dilation,
    check_phase_average_diagonality,
    check_discrete_phase_holevo,
    check_symplectic_occupations,
    check_covariance_vs_dilation,
    check_loss_dephasing_commutation,
    check_dephasing_idempotence,
    check_trace_preservation,
)


def run_all():
    """Run every cross-check, degrading gracefully if memory runs out."""
    results = []
    for check in _ALL_CHECKS:
        try:
            results.append(check())
        except MemoryError:
            results.append(_skipped(check.__name__, "out of memory"))
    return results
