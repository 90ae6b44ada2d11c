"""Dense truncated-Fock-space simulator used as ground truth for the closed forms.

Everything here is deliberately brute force: states are dense matrices over a
tensor-product number basis, dephasing acts by explicit projection onto
total-photon-number blocks, and thermal loss acts through its beamsplitter
dilation.  Intended for small cutoffs only; the closed-form modules never
call into this one.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .photon_dist import PhotonDistribution

_HERM_TOL = 1e-10
_EIG_CLIP = 1e-8


@dataclass
class FockOperator:
    """Dense operator on a truncated multimode Fock space.

    ``dims`` holds the per-mode truncation dimensions (levels 0..d-1) and
    ``data`` the full matrix over the row-major tensor-product basis.
    """

    dims: tuple
    data: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in self.dims):
            raise ValueError(f"mode dimensions must be positive, got {self.dims}")
        data = np.asarray(self.data, dtype=complex)
        dim = int(np.prod(self.dims))
        if data.shape != (dim, dim):
            raise ValueError(
                f"data shape {data.shape} does not match dims {self.dims}")
        self.data = data

    @property
    def dim(self):
        return self.data.shape[0]

    def trace(self):
        return complex(np.trace(self.data))

    def copy(self):
        return FockOperator(self.dims, self.data.copy())


def mode_occupations(dims):
    """(dim, n_modes) array listing each basis state's occupation numbers."""
    grids = np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def total_numbers(dims, modes=None):
    """Total photon number of each basis state, over ``modes`` (default: all)."""
    occ = mode_occupations(dims)
    if modes is None:
        modes = range(len(dims))
    modes = list(modes)
    if len(set(modes)) != len(modes) or any(
            not 0 <= m < len(dims) for m in modes):
        raise ValueError(f"invalid mode subset {modes} for {len(dims)} modes")
    if not modes:
        return np.zeros(int(np.prod(dims)), dtype=int)
    return occ[:, modes].sum(axis=1)


def pure_state(vector, dims):
    """Density operator |v><v| of a (normalized) state vector."""
    v = np.asarray(vector, dtype=complex).ravel()
    if v.size != int(np.prod(dims)):
        raise ValueError("vector length does not match dims")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state vector norm {norm} is not 1")
    return FockOperator(dims, np.outer(v, v.conj()))


def thermal_probs(mean, dim):
    """Geometric occupation law of a thermal mode, truncated at ``dim`` levels."""
    if mean < 0.0:
        raise ValueError(f"mean occupation must be nonnegative, got {mean}")
    if mean == 0.0:
        p = np.zeros(dim)
        p[0] = 1.0
        return p
    n = np.arange(dim)
    return np.exp(n * (math.log(mean) - math.log1p(mean)) - math.log1p(mean))


def thermal_state(mean, dim):
    return FockOperator((dim,), np.diag(thermal_probs(mean, dim)).astype(complex))


def tensor(a, b):
    return FockOperator(a.dims + b.dims, np.kron(a.data, b.data))


def tmsv_vector(energy, cutoff):
    """Two-mode squeezed vacuum amplitudes sqrt(E^n / (E+1)^(n+1)) on |n, n>."""
    amps = np.sqrt(thermal_probs(energy, cutoff))
    vec = np.zeros(cutoff * cutoff)
    vec[np.arange(cutoff) * cutoff + np.arange(cutoff)] = amps
    return vec / np.linalg.norm(vec)


def tmsv_state(energy, cutoff):
    return pure_state(tmsv_vector(energy, cutoff), (cutoff, cutoff))


def apply_phase_shift(state, mode, theta):
    """Rotate one mode: |n> -> exp(i theta n) |n>."""
    tot = total_numbers(state.dims, [mode])
    phase = np.exp(1j * theta * tot)
    return FockOperator(state.dims, phase[:, None] * state.data * phase.conj()[None, :])


def apply_dephasing(state, modes=None):
    """Average over a common random phase on ``modes`` (default: all).

    Equivalent to projecting onto the blocks of fixed total photon number over
    the selected modes, so coherences between different totals are zeroed and
    the operation is exactly trace preserving and idempotent.  An empty mode
    subset is the identity.
    """
    tot = total_numbers(state.dims, modes)
    mask = tot[:, None] == tot[None, :]
    return FockOperator(state.dims, np.where(mask, state.data, 0.0))


def complementary_dephasing(state):
    """Distribution of the total photon number the environment learns.

    The dephasing environment sees exactly the block weights, i.e. the law of
    the total photon number over all modes.
    """
    tot = total_numbers(state.dims)
    diag = np.real(np.diag(state.data))
    probs = np.bincount(tot, weights=diag, minlength=int(tot.max()) + 1)
    return PhotonDistribution(probs, max(0.0, 1.0 - float(probs.sum())))


def beamsplitter_blocks(theta, n_max):
    """Unitaries of exp[theta (a+ e - a e+)] on each total-photon block.

    Block N acts on span{|n>|N-n>, n = 0..N} and is built by exponentiating
    the tridiagonal generator, which keeps every block exactly unitary; the
    full beamsplitter is their direct sum since total photon number is
    conserved.
    """
    blocks = []
    for total in range(n_max + 1):
        n = np.arange(total)
        gen = np.zeros((total + 1, total + 1))
        up = np.sqrt((n + 1.0) * (total - n))   # <n+1, N-n-1| a+ e |n, N-n>
        gen[n + 1, n] = up
        gen[n, n + 1] = -up
        blocks.append(expm(theta * gen))
    return blocks


def apply_thermal_loss(state, mode, ch):
    """Thermal loss ``ch`` on one mode via its beamsplitter dilation.

    The mode is mixed with a thermal environment of mean n_b/(1-kappa) on a
    beamsplitter of transmissivity kappa and the environment is traced out.
    The environment input is truncated where its thermal tail drops below
    1e-10; output photons above the mode's own cutoff are dropped, which is
    the only other truncation (trace is preserved up to those tails).

    The Kraus operators that move the mode from n to n + s photons share one
    shift s, so their sum over the environment's input photon number k is
    the single product G_s[n, n'] = sum_k tau_k A_s[k, n] A_s[k, n'], with
    tau the environment's law and A_s[k, n] = U_{n+k}[n+s, n] the dilation
    amplitude, and out[n+s, n'+s] = sum_s G_s[n, n'] rho[n, n'].
    """
    if not 0 <= mode < len(state.dims):
        raise ValueError(f"mode {mode} out of range for dims {state.dims}")
    if ch.kappa == 1.0:
        return state.copy()

    env_mean = ch.n_b / (1.0 - ch.kappa)
    n_env = 1 if env_mean == 0.0 else max(1, math.ceil(
        math.log(1e-10) / math.log(env_mean / (env_mean + 1.0))))
    tau = thermal_probs(env_mean, n_env)
    d = state.dims[mode]
    # amp[N, j, n] = <j, N-j| U |n, N-n> for j, n < d, zero where j or n > N
    amp = np.zeros((d + n_env - 1, d, d))
    for total, block in enumerate(
            beamsplitter_blocks(math.acos(math.sqrt(ch.kappa)), d + n_env - 2)):
        w = min(total + 1, d)
        amp[total, :w, :w] = block[:w, :w]

    n_modes = len(state.dims)
    work = state.data.reshape(state.dims + state.dims)
    work = np.moveaxis(work, (mode, n_modes + mode), (0, 1))
    rest_shape = work.shape[2:]
    work = work.reshape(d, d, -1)
    out = np.zeros_like(work)

    ks = np.arange(n_env)[:, None]
    for s in range(1 - d, min(d, n_env)):
        lo, hi = max(0, -s), min(d, d - s)  # input numbers n with n + s < d
        ns = np.arange(lo, hi)
        a_s = amp[ns + ks, ns + s, ns]
        g_s = (tau[:, None] * a_s).T @ a_s
        out[lo + s:hi + s, lo + s:hi + s] += g_s[:, :, None] * work[lo:hi, lo:hi]

    out = out.reshape((d, d) + rest_shape)
    out = np.moveaxis(out, (0, 1), (mode, n_modes + mode))
    return FockOperator(state.dims, out.reshape(state.data.shape))


def von_neumann_entropy(state):
    """Eigenvalue-based entropy in bits; input must be Hermitian and near-PSD.

    Eigenvalues in (-1e-8, 0) are clipped to zero (truncation rounding);
    anything more negative raises.
    """
    data = state.data
    scale = max(1.0, float(np.abs(data).max()))
    if np.abs(data - data.conj().T).max() > _HERM_TOL * scale:
        raise ValueError("operator is not Hermitian")
    w = np.linalg.eigvalsh(0.5 * (data + data.conj().T))
    if w.min() < -_EIG_CLIP:
        raise ValueError(f"eigenvalue {w.min()} too negative for a state")
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def holevo_information(ensemble):
    """S(sum_x p_x rho_x) - sum_x p_x S(rho_x) in bits.

    ``ensemble`` is a sequence of (probability, FockOperator) pairs over a
    common space; probabilities must sum to 1.
    """
    probs = [p for p, _ in ensemble]
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ValueError(f"ensemble probabilities sum to {sum(probs)}")
    if any(p < 0 for p in probs):
        raise ValueError("negative ensemble probability")
    states = [s for _, s in ensemble]
    dims = states[0].dims
    if any(s.dims != dims for s in states):
        raise ValueError("ensemble members live on different spaces")
    avg = FockOperator(dims, sum(p * s.data for p, s in ensemble))
    return von_neumann_entropy(avg) - sum(
        p * von_neumann_entropy(s) for p, s in ensemble)


def schmidt_dephased_mutual_information(pattern_probs, pattern_totals):
    """Mutual information of a number-correlated pure state after dephasing.

    The input sum_x sqrt(P_x) |x>|x> (x running over occupation patterns,
    ``pattern_totals`` giving each pattern's total photon number) is sent
    through the collective dephasing channel on the first half.  The result
    is block diagonal over the total, with the block for total t equal to the
    Gram-like matrix sqrt(P_x P_y) over patterns of that total; each block is
    eigendecomposed densely here, with no rank assumptions.  This is the
    scalable form of the brute-force check: it enumerates every pattern
    explicitly and lets the eigensolver do the rest.
    """
    p = np.asarray(pattern_probs, dtype=float)
    t = np.asarray(pattern_totals)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError("pattern probabilities and totals must align")
    if p.min() < 0.0:
        raise ValueError("negative pattern probability")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"pattern probabilities sum to {p.sum()}")

    joint_eigs = []
    for total in np.unique(t):
        amps = np.sqrt(p[t == total])
        block = np.outer(amps, amps)
        joint_eigs.append(np.linalg.eigvalsh(block))
    w = np.concatenate(joint_eigs)
    w = w[w > 0.0]
    s_joint = float(-np.sum(w * np.log2(w)))
    nz = p[p > 0.0]
    s_marginal = float(-np.sum(nz * np.log2(nz)))
    return 2.0 * s_marginal - s_joint


def _ladder(dim):
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def two_mode_covariance(state):
    """4x4 covariance matrix (vacuum = identity) of a two-mode state.

    Computed from ladder-operator second moments, with
    Tr(rho q_r q_c) = sum((q_c rho) * q_r^T) so that only the four products
    q_c rho are formed; first moments are subtracted so the result matches
    the Gaussian-state convention used elsewhere.
    """
    if len(state.dims) != 2:
        raise ValueError("covariance extraction needs exactly two modes")
    d0, d1 = state.dims
    a0 = np.kron(_ladder(d0), np.eye(d1))
    a1 = np.kron(np.eye(d0), _ladder(d1))
    quads = []
    for a in (a0, a1):
        quads.append(a + a.conj().T)              # x
        quads.append(-1j * (a - a.conj().T))      # p
    q_rho = [q @ state.data for q in quads]
    means = [np.real(np.trace(m)) for m in q_rho]
    second = np.array([[np.real(np.sum(q_rho[c] * quads[r].T)) for c in range(4)]
                       for r in range(4)])
    return 0.5 * (second + second.T) - np.outer(means, means)
