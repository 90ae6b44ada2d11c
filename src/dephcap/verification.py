"""Cross-checks tying the closed-form modules to the dense Fock simulator.

Each check computes the same physical quantity twice, once through a closed
form and once through brute-force linear algebra, and reports the discrepancy
against a stated tolerance.  ``run_all`` powers the command-line ``verify``
subcommand; the acceptance test suite asserts on the same results.
"""

import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dephasing_exact, fock_oracle, phase_encoding
from .scalar_math import thermal_entropy_g
from .special_math import squared_binomial_law
from .thermal_loss import ThermalLossChannel, _intermediates


@dataclass
class CheckResult:
    name: str
    value: float
    reference: float
    tolerance: float

    @property
    def status(self):
        return "pass" if self.delta <= self.tolerance else "fail"  # NaN fails

    @property
    def delta(self):
        return abs(self.value - self.reference)

    def line(self):
        return (f"{self.status.upper():4s} {self.name:42s} "
                f"value={self.value:+.12e} ref={self.reference:+.12e} "
                f"delta={self.delta:.3e} tol={self.tolerance:.1e}")


def check_single_mode_thermal_identity():
    """For one mode the dephasing costs nothing: assisted capacity is g(E)."""
    worst = max(
        abs(dephasing_exact.solve_dephasing(1, e).capacity - thermal_entropy_g(e))
        for e in (0.1, 1.0, 10.0))
    return CheckResult("single-mode capacity equals g(E)", worst, 0.0, 1e-10)


def _optimal_joint_weights(m, lam, patterns):
    """Probabilities of m-mode occupation patterns under the optimal input.

    Within each shell of total photon number n the optimal law is uniform, so
    a pattern's weight is C(n+m-1, m-1) lambda^n / normalization (lambda > 0).
    """
    log_norm, log_lam = squared_binomial_law(m, lam)[0], math.log(lam)
    totals, shell = np.unique([sum(pattern) for pattern in patterns], return_inverse=True)
    return np.array([math.exp(math.log(math.comb(n + m - 1, m - 1)) + n * log_lam - log_norm)
                     for n in totals.tolist()])[shell]


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
    probs = _optimal_joint_weights(m, sol.lambda1, patterns)
    probs /= probs.sum()  # mass beyond the enumeration cutoff is ~4e-9
    totals = np.array([sum(pat) for pat in patterns])
    mi = fock_oracle.schmidt_dephased_mutual_information(probs, totals)
    return CheckResult("two-mode optimal-input MI vs capacity",
                       mi, sol.capacity, 1e-4)


def check_complementary_total_count():
    """Environment of the dephasing channel sees a negative-binomial total."""
    cutoff, energy = 60, 1.0
    one = fock_oracle.thermal_probs(energy, cutoff)
    probs = fock_oracle.complementary_dephasing((cutoff, cutoff), np.kron(one, one))
    n = np.arange(cutoff)  # totals below the per-mode cutoff have no missing patterns
    ref = (n + 1.0) * energy ** n / (energy + 1.0) ** (n + 2)  # two thermal modes
    worst = float(np.abs(probs[:cutoff] - ref).max())
    return CheckResult("complementary dephasing output law", worst, 0.0, 1e-10)


# channel and energy of the lossy TMSV that four checks compare with closed forms
_LOSS, _ENERGY = ThermalLossChannel(0.8, 0.5), 0.1


def _lossy_tmsv(cutoff, loss, max_offset=None):
    """The TMSV at ``cutoff`` levels per mode after ``loss`` (``_LOSS`` or its dilation)."""
    return fock_oracle.apply_thermal_loss(
        fock_oracle.tmsv_state(_ENERGY, cutoff), 0, loss, max_offset)


def _random_state(dims, seed):
    """A full-rank density matrix drawn from a complex Gaussian matrix G as G G+."""
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return fock_oracle.FockOperator(dims, rho / np.trace(rho).real)


def check_fock_diagonal_vs_dilation(loss=_LOSS):
    """Number-kernel construction vs beamsplitter dilation, element by element."""
    cutoff = 20
    probs = phase_encoding.fock_diagonal(_ENERGY, _LOSS).probs[:cutoff, :cutoff]
    dense = np.real(np.diag(_lossy_tmsv(cutoff, loss, 0).data)).reshape(cutoff, cutoff)
    worst = float(np.abs(probs - dense[:probs.shape[0], :probs.shape[1]]).max())
    return CheckResult("joint Fock diagonal vs dilation", worst, 0.0, 1e-8)


def check_phase_average_diagonality(loss=_LOSS):
    """Uniform phase randomization of the signal leaves no off-diagonal elements.

    Averaging over 64 equally spaced phases multiplies rho[n, n'] by
    sum_k exp(2 pi i k (n - n')/64)/64 = [n = n'] as the signal cutoff d = 12 < 64,
    a projection that on a TMSV through signal loss equals the total-number one.
    """
    avg = fock_oracle.apply_dephasing(_lossy_tmsv(12, loss)).data
    off = avg - np.diag(np.diag(avg))
    return CheckResult("phase-averaged state diagonality",
                       float(np.abs(off).max()), 0.0, 1e-10)


def check_discrete_phase_holevo(loss=_LOSS):
    """Holevo information of a 64-phase ensemble vs the continuous formula.

    Every member is a unitary phase rotation of ``lossy`` and has its
    entropy, so chi = S(average) - S(lossy).  The signal cutoff d = 14 is below
    64, so the average is exactly the projection onto fixed signal numbers.
    On a TMSV through signal loss that equals the total-number projection.
    """
    lossy = _lossy_tmsv(14, loss)
    chi_dense = (fock_oracle.von_neumann_entropy(fock_oracle.apply_dephasing(lossy))
                 - fock_oracle.von_neumann_entropy(lossy))
    chi = phase_encoding.holevo_phase_encoding(_ENERGY, _LOSS)
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
    cases = [(ThermalLossChannel(kappa, n_b), energy)  # lossless admits no added noise
             for kappa, n_b, energy in itertools.product(kappas, noises, energies)
             if kappa < 1.0 or n_b == 0.0]
    nus = phase_encoding.symplectic_eigenvalues(
        np.array([phase_encoding.tmsv_through_loss(energy, ch) for ch, energy in cases]))
    for (ch, energy), nu_minus, nu_plus in zip(cases, *nus):
        _, _, a_plus, a_minus = _intermediates(ch, energy)
        worst = max(worst,
                    abs(0.5 * (nu_plus - 1.0) - max(a_plus, a_minus)),
                    abs(0.5 * (nu_minus - 1.0) - min(a_plus, a_minus)))
    return CheckResult("symplectic occupations vs intermediates",
                       float(worst), 0.0, 1e-9)


def check_covariance_vs_dilation(loss=_LOSS):
    """Second moments of the dilation output vs the closed-form matrix.

    Moments weight the truncation tail by n^2, so this check needs a larger
    cutoff than the element-wise ones to reach its tolerance.
    """
    cm = fock_oracle.two_mode_covariance(_lossy_tmsv(28, loss, 2))  # moments shift by <= 2
    ref = phase_encoding.tmsv_through_loss(_ENERGY, _LOSS)
    return CheckResult("covariance matrix vs dilation",
                       float(np.abs(cm - ref).max()), 0.0, 1e-8)


def check_loss_dephasing_commutation():
    """Thermal loss on each mode commutes with collective dephasing."""
    state = _random_state((5, 5), 7)
    loss = fock_oracle.loss_dilation(ThermalLossChannel(0.7, 0.3), 5)  # for all four maps

    def loss_both(s):
        for mode in (0, 1):
            s = fock_oracle.apply_thermal_loss(s, mode, loss)
        return s

    a = fock_oracle.apply_dephasing(loss_both(state)).data
    b = loss_both(fock_oracle.apply_dephasing(state)).data
    return CheckResult("loss commutes with dephasing",
                       float(np.abs(a - b).max()), 0.0, 1e-9)


def check_dephasing_idempotence():
    """Projecting onto total-photon blocks twice changes nothing."""
    once = fock_oracle.apply_dephasing(_random_state((6, 6), 11))
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
    lossy = fock_oracle.apply_thermal_loss(state, 0, ThermalLossChannel(0.6, 0.4), 0)
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
    """Run every cross-check; an exception from any of them ends the run.  The
    four that take an argument share one dilation of ``_LOSS``, at their top cutoff."""
    loss = fock_oracle.loss_dilation(_LOSS, 28)  # the covariance check's cutoff
    return [check(loss) if inspect.signature(check).parameters else check()
            for check in _ALL_CHECKS]
