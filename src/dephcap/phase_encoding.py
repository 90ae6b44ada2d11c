"""Holevo rate of phase encoding on two-mode squeezed vacuum through thermal loss.

The sender keeps one arm (the idler), encodes a phase on the other and sends
it through the thermal-loss channel.  Averaging over the encoded phase leaves
a state that is diagonal in the joint Fock basis, so the Holevo information of
the continuous ensemble reduces to

    chi = H(joint Fock diagonal) - [g(A+) + g(A-)],

where A+- are the effective thermal occupations of the (phase-independent)
conditional state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, SolverError
from .scalar_math import check_photons, thermal_entropy_g
from .special_math import shannon_entropy
from .thermal_loss import ea_capacity

_TAIL_TOL = 1e-9
# Float64 cells allowed for the Fock kernel's two factors plus their product
# (200 MB).  E = 100 needs 1.5e7 at its final cutoffs (2096, 2580) for
# kappa = 0.8, n_b = 1; E = 1000 would need 3.8e8 at its default ones.
_KERNEL_CELL_BUDGET = 25_000_000


def symplectic_eigenvalues(cm):
    """Symplectic spectrum (nu_minus, nu_plus) of a two-mode covariance matrix.

    Taken from the ordinary eigenvalues of i Omega V, which come in +-nu
    pairs; this route avoids the cancellation-prone determinant combination.
    One matrix gives two floats; a (..., 4, 4) stack gives two arrays.
    """
    omega = np.array([[0.0, 1.0, 0.0, 0.0],
                      [-1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, -1.0, 0.0]])
    vals = np.sort(np.abs(np.linalg.eigvals(1j * omega @ np.asarray(cm, float))))
    nus = 0.5 * (vals[..., 0] + vals[..., 1]), 0.5 * (vals[..., 2] + vals[..., 3])
    return nus if vals.ndim > 1 else tuple(map(float, nus))


def tmsv_through_loss(energy, ch):
    """Covariance matrix after the signal arm of a TMSV crosses the channel.

    The 4x4 matrix is in (x1, p1, x2, p2) ordering, signal mode first, with
    the vacuum normalized to the identity.  The idler block stays at
    (2E+1) I, the signal block becomes (2E'+1) I with E' = kappa E + n_b, and
    the cross block is 2 sqrt(kappa E (E+1)) diag(1,-1).  The symplectic
    occupations (nu+- - 1)/2 of this matrix coincide with the A+-
    intermediates of the assisted-capacity formula.
    """
    check_photons(energy)
    e_prime = ch.output_mean(energy)
    c = 2.0 * math.sqrt(ch.kappa * energy * (energy + 1.0))
    cm = np.diag([2.0 * e_prime + 1.0, 2.0 * e_prime + 1.0,
                  2.0 * energy + 1.0, 2.0 * energy + 1.0])
    cm[0, 2] = cm[2, 0] = c
    cm[1, 3] = cm[3, 1] = -c
    return cm


def gaussian_conditional_entropy(energy, ch):
    """Entropy in bits of the Gaussian state: g((nu+ - 1)/2) + g((nu- - 1)/2).

    This is the phase-independent part of the encoded ensemble, i.e. the
    average conditional entropy entering the Holevo difference.
    """
    nu_minus, nu_plus = symplectic_eigenvalues(tmsv_through_loss(energy, ch))
    occ = []
    for nu in (nu_plus, nu_minus):
        x = 0.5 * (nu - 1.0)
        if x < -1e-10:
            raise ValueError(f"symplectic eigenvalue {nu} below vacuum")
        occ.append(max(x, 0.0))
    return thermal_entropy_g(occ[0]) + thermal_entropy_g(occ[1])


@dataclass
class JointFockDiagonal:
    """Joint photon-number probabilities p[n_signal, n_idler] with tail bound."""

    probs: np.ndarray
    tail_bound: float

    @property
    def cutoffs(self):
        return self.probs.shape


def _binomial_factor(n_rows, n_cols, first, stay, step):
    """F[r, c] built by Pascal's rule F[r, c] = stay F[r, c-1] + step F[r-1, c-1].

    Starting from F[0, 0] = ``first`` this gives
    F[r, c] = first C(c, r) step^r stay^(c-r).  Each entry is a weighted sum
    of two nonnegative entries, so the relative error grows only with the
    number of steps, with no ln c! terms of size c ln c to round.
    """
    cols = np.zeros((n_cols, n_rows))
    cols[0, 0] = first
    for c in range(1, n_cols):
        cols[c] = stay * cols[c - 1]
        cols[c, 1:] += step * cols[c - 1, :-1]
    return cols.T


def _check_kernel_budget(n_out, n_in):
    """Raise SolverError over budget; the cutoffs may be floats, inf included."""
    k = min(n_out, n_in)
    cells = k * n_in + k * n_out + n_out * n_in
    if cells > _KERNEL_CELL_BUDGET:
        raise SolverError(
            f"Fock kernel at cutoffs ({n_out:.6g}, {n_in:.6g}) needs {8 * cells:.3g} "
            f"bytes, above the budget of {8 * _KERNEL_CELL_BUDGET:.3g}")


def _number_kernel_log(kappa, n_b, n_out, n_in):
    """ln T[j, n]: photon-number transition kernel of the thermal-loss channel.

    The channel factors exactly into pure loss of transmissivity
    k0 = kappa/(n_b+1) followed by a quantum-limited amplifier of gain
    G = n_b+1 (Caruso, Giovannetti & Holevo, NJP 8, 310 (2006)).  Both factors
    have elementary Fock kernels, binomial thinning C(n,i) k0^i (1-k0)^(n-i)
    and a shifted negative binomial C(j,i) G^-(i+1) (1-1/G)^(j-i), and T is
    their matrix product.  Every term of that product is nonnegative, so the
    BLAS sum does not cancel; entries below the float64 range come out as
    -inf.  Raises SolverError, before allocating, when the two factors and
    the product would exceed ``_KERNEL_CELL_BUDGET`` float64 cells.
    """
    _check_kernel_budget(n_out, n_in)
    k = min(n_out, n_in)
    gain = n_b + 1.0
    k0 = kappa / gain
    thin = _binomial_factor(k, n_in, 1.0, 1.0 - k0, k0)
    amp_t = _binomial_factor(k, n_out, 1.0 / gain, 1.0 - 1.0 / gain, 1.0 / gain)
    kernel = amp_t.T @ thin
    with np.errstate(divide="ignore"):
        return np.log(kernel, out=kernel)


def _idler_log_weights(energy, n_in):
    if energy == 0.0:
        w = np.full(n_in, -np.inf)
        w[0] = 0.0
        return w
    k = np.arange(n_in, dtype=float)
    return k * (math.log(energy) - math.log1p(energy)) - math.log1p(energy)


def _thermal_tail(mean, n):
    """P(n' >= n) = q^n, q = mean/(mean+1), of the thermal law at ``mean``."""
    return 0.0 if mean == 0.0 else math.exp(n * (math.log(mean) - math.log1p(mean)))


def fock_diagonal(energy, ch):
    """Joint Fock-basis diagonal of a TMSV whose signal arm crossed ``ch``.

    The TMSV's perfect number correlation survives loss as a classical
    coupling: p[j, k] = w_k T(j | k) with w the idler's thermal law at mean
    ``energy`` and T the channel's photon-number kernel.  Both marginals are
    thermal, the idler's at ``energy`` and the signal's at E' = kappa E + n_b,
    so the mass outside the window is at most the sum of their geometric
    tails q^N, with no kernel needed.  The cutoffs start at mean + 12 sigma
    per mode (at least 16) and the mode with the larger tail grows until
    that sum is below ``_TAIL_TOL``; the kernel budget is checked at every
    candidate, so it bounds the search, which refuses oversized cutoffs
    before allocating anything.  The kernel is built once, at the final
    cutoffs, and becomes ``probs`` in place.
    """
    check_photons(energy)
    e_prime = ch.output_mean(energy)
    # floats until the budget passes: 12 sigma overflows to inf at E = 1e300
    cut_s, cut_i = (float(np.ceil(max(16.0, mean + 12.0 * math.sqrt(mean * (mean + 1.0)))))
                    for mean in (e_prime, energy))
    while True:
        _check_kernel_budget(cut_s, cut_i)
        signal_tail = _thermal_tail(e_prime, cut_s)
        idler_tail = _thermal_tail(energy, cut_i)
        if signal_tail + idler_tail <= _TAIL_TOL:
            break
        if signal_tail >= idler_tail:
            cut_s = math.ceil(cut_s * 1.4) + 8
        else:
            cut_i = math.ceil(cut_i * 1.4) + 8
    cut_s, cut_i = int(cut_s), int(cut_i)
    log_t = _number_kernel_log(ch.kappa, ch.n_b, cut_s, cut_i)
    log_t += _idler_log_weights(energy, cut_i)[None, :]
    return JointFockDiagonal(np.exp(log_t, out=log_t), signal_tail + idler_tail)


def holevo_phase_encoding(energy, ch):
    """Holevo information in bits of the continuous-phase TMSV ensemble.

    Refused unless -1e-10 <= chi <= ea (1 + 1e-12); a negative chi returns 0."""
    if check_photons(energy) == 0.0:  # nothing is encoded
        return 0.0
    diag = fock_diagonal(energy, ch)
    chi = shannon_entropy(diag) - gaussian_conditional_entropy(energy, ch)
    if chi < -1e-10:
        raise ContractViolation(
            f"negative Holevo information {chi} for kappa={ch.kappa}, "
            f"n_b={ch.n_b}, E={energy}")
    chi = max(chi, 0.0)
    ea = ea_capacity(ch, energy)
    if chi > ea * (1.0 + 1e-12):
        raise ContractViolation(f"encoding rate {chi} exceeds the assisted capacity {ea} "
                                f"at kappa={ch.kappa}, n_b={ch.n_b}, E={energy}")
    return chi

