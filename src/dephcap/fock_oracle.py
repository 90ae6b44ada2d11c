"""Dense truncated-Fock-space simulator used as ground truth for the closed forms.

Everything here is deliberately brute force: states are dense matrices over a
tensor-product number basis, dephasing acts by explicit projection onto
total-photon-number blocks, and thermal loss acts through its beamsplitter
dilation.  Intended for small cutoffs only.  The closed-form modules never
call into this one, and it imports none of them, so a cross-check shares no
code with what it checks.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

_HERM_TOL = 1e-10
_EIG_CLIP = 1e-8
_GEMM_SIZE = 2**19  # multiply-adds; OpenBLAS threads larger products, then spins
_DILATION_BYTES = 2e8  # corner table plus gather, as phase encoding's kernel budget


@dataclass
class FockOperator:
    """Dense operator on a truncated multimode Fock space.

    ``dims`` holds the per-mode truncation dimensions (levels 0..d-1) and
    ``data`` the full matrix over the row-major tensor-product basis, kept
    float64 for real input and complex128 for complex input.
    """

    dims: tuple
    data: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in self.dims):
            raise ValueError(f"mode dimensions must be positive, got {self.dims}")
        data = np.asarray(self.data)
        data = data.astype(complex if np.iscomplexobj(data) else float, copy=False)
        dim = int(np.prod(self.dims))
        if data.shape != (dim, dim):
            raise ValueError(
                f"data shape {data.shape} does not match dims {self.dims}")
        self.data = data

    def trace(self):
        return complex(np.trace(self.data))


def mode_occupations(dims):
    """(dim, n_modes) array listing each basis state's occupation numbers."""
    grids = np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def total_numbers(dims):
    """Total photon number of each basis state."""
    return mode_occupations(dims).sum(axis=1)


def pure_state(vector, dims):
    """Density operator |v><v| of a (normalized) state vector."""
    v = np.ravel(vector)
    if v.size != int(np.prod(dims)):
        raise ValueError("vector length does not match dims")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state vector norm {norm} is not 1")
    return FockOperator(dims, np.outer(v, v.conj()))


def thermal_probs(mean, dim):
    """Geometric occupation law of a thermal mode, truncated at ``dim`` levels."""
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"mean occupation must be finite and nonnegative, got {mean}")
    if mean == 0.0:
        p = np.zeros(dim)
        p[0] = 1.0
        return p
    n = np.arange(dim)
    return np.exp(n * (math.log(mean) - math.log1p(mean)) - math.log1p(mean))


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
    if not 0 <= mode < len(state.dims):
        raise ValueError(f"mode {mode} out of range for dims {state.dims}")
    phase = np.exp(1j * theta * mode_occupations(state.dims)[:, mode])
    return FockOperator(state.dims, phase[:, None] * state.data * phase.conj()[None, :])


def apply_dephasing(state):
    """Average over a common random phase on all modes.

    Equivalent to projecting onto the blocks of fixed total photon number, so
    coherences between different totals are zeroed and the operation is
    exactly trace preserving and idempotent.
    """
    tot = total_numbers(state.dims)
    mask = tot[:, None] == tot[None, :]
    return FockOperator(state.dims, np.where(mask, state.data, 0.0))


def complementary_dephasing(dims, diag):
    """Law of the total photon number the environment learns, as an array.

    The dephasing environment sees exactly the block weights, i.e. the law of
    the total photon number over all modes, so only the state's Fock
    diagonal ``diag`` (over the row-major basis of ``dims``) is read.  Entry
    n is the weight of total n; the mass truncation drops is 1 - sum.
    """
    tot = total_numbers(dims)
    return np.bincount(tot, weights=diag, minlength=int(tot.max()) + 1)


def beamsplitter_corners(kappa, d, n_total):
    """amp[N, j, n] = <j, N-j| U |n, N-n> of U = exp[theta (a+ e - a e+)],
    cos(theta) = sqrt(kappa), for N < n_total and j, n < d (zero above N).

    Block N follows from block N - 1 (Risbo's Wigner-d recursion): N |n, N-n>
    = sqrt(n) a+ |n-1, N-n> + sqrt(N-n) e+ |n, N-n-1>, and U turns a+ into
    c a+ - s e+ and e+ into s a+ + c e+.  Each step reads only the d x d corner.
    """
    c, s = math.sqrt(kappa), math.sqrt(1.0 - kappa)
    levels = np.arange(d)
    root = np.sqrt(levels)
    rests = np.sqrt(np.maximum(np.arange(n_total)[:, None] - levels, 0))  # sqrt(N - n)
    amp = np.zeros((n_total, d, d))
    amp[0, 0, 0] = 1.0
    up = np.zeros((d, d))  # sqrt(j) <j-1, N-j| U |m, N-1-m>; row 0 stays 0
    rot_up, rot_down = np.array([c, s])[:, None, None], np.array([-s, c])[:, None, None]
    for total, rest in enumerate(rests[1:], 1):
        np.multiply(root[1:, None], amp[total - 1, :-1], out=up[1:])
        down = rest[:, None] * amp[total - 1]   # sqrt(N-j) <j, N-1-j| U |m, N-1-m>
        x, y = rot_up * up + rot_down * down
        y *= rest
        y[:, 1:] += x[:, :-1] * root[1:]
        np.divide(y, total, out=amp[total])
    return amp


LossDilation = namedtuple("LossDilation", "tau x")


def loss_dilation(ch, levels):
    """Thermal loss ``ch`` for modes of at most ``levels`` levels: the environment
    law tau and x[j, n, k] = U_{n+k}[j, n] from one corner table, refused above
    ``_DILATION_BYTES``.  A mode of d levels reads x[:d, :d], bit for bit the x of d."""
    if ch.kappa == 1.0:  # the identity, with a vacuum environment
        return LossDilation(np.ones(1), np.eye(levels)[:, :, None])
    env_mean = ch.n_b / (1.0 - ch.kappa)
    log_q = math.log(env_mean / (env_mean + 1.0)) if env_mean else -math.inf
    n_env = max(1, math.ceil(math.log(1e-10) / log_q)) if log_q < 0.0 else math.inf
    table, gather = 8 * levels**2 * (levels + n_env - 1), 8 * levels**2 * n_env
    if table + gather > _DILATION_BYTES:
        raise ValueError(f"{ch} at {levels} levels needs {table:.3g} B of corner table "
                         f"and {gather:.3g} B of gather, above {_DILATION_BYTES:.3g} B")
    amp = beamsplitter_corners(ch.kappa, levels, levels + n_env - 1)
    n = np.arange(levels)  # k runs innermost, along the sums over it
    x = amp[n[:, None] + np.arange(n_env), n[:, None, None], n[:, None]]
    return LossDilation(thermal_probs(env_mean, n_env), x)


def apply_thermal_loss(state, mode, ch, max_offset=None):
    """Thermal loss ``ch`` on one mode via its beamsplitter dilation.

    The mode is mixed with a thermal environment of mean n_b/(1-kappa) on a
    beamsplitter of transmissivity kappa and the environment is traced out.
    The environment input is truncated where its thermal tail drops below
    1e-10; output photons above the mode's own cutoff are dropped, which is
    the only other truncation (trace is preserved up to those tails).
    ``ch`` is a channel or a ``LossDilation`` for at least d levels.

    x[j, n, k] = U_{n+k}[j, n] takes the mode from n to j photons with k in
    the environment.  Bra and ket shift together, so each offset t = n - n'
    maps to itself: out[j, j-t] = sum_n M_t[j, n] rho[n, n-t], M_t[j, n] =
    sum_k tau_k x[j, n, k] x[j-t, n-t, k], is a real matrix product with the
    float view of rho's t-th diagonal, and M_-t is M_t with indices moved by t.
    ``max_offset=k`` forms and runs only the offsets |t| <= k and leaves every
    other offset of the mode at 0; None (or k >= d - 1) maps them all.  The
    result takes the input's dtype.
    """
    if not 0 <= mode < len(state.dims):
        raise ValueError(f"mode {mode} out of range for dims {state.dims}")
    if max_offset is not None and max_offset < 0:
        raise ValueError(f"max_offset must be nonnegative, got {max_offset}")
    d = state.dims[mode]
    band = d - 1 if max_offset is None else min(max_offset, d - 1)
    loss = ch if isinstance(ch, LossDilation) else loss_dilation(ch, d)
    x, tau = loss.x[:d, :d], loss.tau

    axes = (mode, len(state.dims) + mode)
    rho = np.moveaxis(state.data.reshape(state.dims + state.dims), axes, (0, 1))
    data = np.zeros(state.data.shape, state.data.dtype)
    out = np.moveaxis(data.reshape(state.dims + state.dims), axes, (0, 1))
    for shift in range(band + 1):
        m_t = np.einsum("jnk,jnk,k->jn", x[shift:, shift:], x[:d - shift, :d - shift], tau)
        for t in {shift, -shift}:
            r = np.arange(max(0, t), d + min(0, t))  # n with n and n - t below d
            slab = rho[r, r - t]
            flat, step = slab.reshape(r.size, -1).view(float), _GEMM_SIZE // r.size**2 or 1
            for c in range(0, flat.shape[1], step):
                flat[:, c:c + step] = m_t @ flat[:, c:c + step]
            out[r, r - t] = slab
    return FockOperator(state.dims, data)


def _entropy_bits(w):
    """-sum w log2 w over the positive entries of ``w``, in bits."""
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


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
    return _entropy_bits(w)


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

    blocks = (np.sqrt(p[t == total]) for total in np.unique(t))
    joint = np.concatenate([np.linalg.eigvalsh(np.outer(a, a)) for a in blocks])
    return 2.0 * _entropy_bits(p) - _entropy_bits(joint)


def _ladder_factors(d):
    """One-mode factors (s, w) with <i - s|X|i> = w[i]: 1, a, a+, a a, a+ a, a a+,
    truncated as the dense ladder matrix is (a a+ has no top-level weight)."""
    n = np.arange(d, dtype=float)
    return ((0, np.ones(d)), (1, np.sqrt(n)), (-1, np.sqrt(n + 1.0)),
            (2, np.sqrt(n * (n - 1.0))), (0, n), (0, np.where(n < d - 1, n + 1.0, 0.0)))


def two_mode_covariance(state):
    """4x4 covariance matrix (vacuum = identity) of a two-mode state.

    Each moment Tr(rho X0 X1) of one-mode ladder factors reads one shifted
    diagonal of rho, sum_i rho[i, i - s] <i - s|X0 X1|i>.  With
    b = (a0, a0+, a1, a1+) and q = (x0, p0, x1, p1) = T b, the second moments
    are T <b b^T> T^T, whose conjugate entries follow from rho = rho+; first
    moments are subtracted to match the Gaussian-state convention used
    elsewhere.
    """
    if len(state.dims) != 2:
        raise ValueError("covariance extraction needs exactly two modes")
    rho = state.data.reshape(state.dims + state.dims)

    def moment(x0, x1):
        (s0, w0), (s1, w1) = x0, x1
        i0, i1 = (np.arange(max(0, s), min(w.size, w.size + s)) for s, w in (x0, x1))
        return w0[i0] @ rho[i0[:, None], i1, i0[:, None] - s0, i1 - s1] @ w1[i1]

    (one0, a0, _, aa0, ada0, aad0), (one1, a1, ad1, aa1, ada1, aad1) = (
        _ladder_factors(d) for d in state.dims)
    s0, s1, c, e = moment(aa0, one1), moment(one0, aa1), moment(a0, a1), moment(a0, ad1)
    g = np.array([[s0, moment(aad0, one1), c, e],
                  [moment(ada0, one1), np.conj(s0), np.conj(e), np.conj(c)],
                  [c, np.conj(e), s1, moment(one0, aad1)],
                  [e, np.conj(c), moment(one0, ada1), np.conj(s1)]])
    m0, m1 = moment(a0, one1), moment(one0, a1)
    t = np.kron(np.eye(2), [[1.0, 1.0], [-1j, 1j]])  # (x, p) = T (a, a+)
    means = np.real(t @ [m0, np.conj(m0), m1, np.conj(m1)])
    second = np.real(t @ g @ t.T)
    return 0.5 * (second + second.T) - np.outer(means, means)
