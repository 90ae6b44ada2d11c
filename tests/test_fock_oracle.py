"""Brute-force truncated-Fock-space checks of the analytic machinery."""

import ast
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from reference_laws import negative_binomial
from scipy.linalg import expm

from dephcap import fock_oracle as fo
from dephcap.dephasing_exact import solve_dephasing
from dephcap.phase_encoding import fock_diagonal
from dephcap.special_math import shannon_entropy
from dephcap.thermal_loss import ThermalLossChannel
from dephcap.verification import _optimal_joint_weights, _random_state


def _dilation_reference(rho, dims, mode, ch, cut):
    """Thermal loss on one mode of a multimode state, from a product space.

    The beamsplitter is expm[theta (a+ e - a e+)] on a (cut x cut) mode (x)
    environment space.  The environment's thermal law keeps its first
    cut - d + 1 levels, so every input total stays below ``cut`` and sees the
    untruncated beamsplitter; what it leaves out, q^(cut-d+1) with
    q = 0.1/1.1 at the environment mean 0.1 of n_b = 0.03, is below 1e-15
    at cut = 18.
    """
    a = np.diag(np.sqrt(np.arange(1.0, cut)), 1)
    gen = np.kron(a.T, a) - np.kron(a, a.T)
    u = expm(math.acos(math.sqrt(ch.kappa)) * gen).reshape(cut, cut, cut, cut)
    d = dims[mode]
    tau = fo.thermal_probs(ch.n_b / (1.0 - ch.kappa), cut - d + 1)
    u_in = u[:, :, :d, :tau.size]  # <j, e| U |n, k>
    axes = (mode, len(dims) + mode)
    work = np.moveaxis(rho.reshape(dims + dims), axes, (0, 1))
    out = np.einsum("jenk,k,npx,repk->jrx", u_in, tau, work.reshape(d, d, -1), u_in,
                    optimize=True)
    out = np.moveaxis(out[:d, :d].reshape(work.shape), (0, 1), axes)
    return out.reshape(rho.shape)


def _shift_product_loss(state, mode, ch):
    """Thermal loss by the per-shift route: G_s[n, n'] = sum_k tau_k A_s[k, n]
    A_s[k, n'], A_s[k, n] = U_{n+k}[n+s, n], and out[j, j-t] =
    sum_n G_{j-n}[n, n-t] rho[n, n-t], over the same corner table, environment
    law and truncation as ``fo.apply_thermal_loss``."""
    d = state.dims[mode]
    env_mean = ch.n_b / (1.0 - ch.kappa)
    n_env = math.ceil(math.log(1e-10) / math.log(env_mean / (env_mean + 1.0)))
    tau = fo.thermal_probs(env_mean, n_env)
    amp = fo.beamsplitter_corners(ch.kappa, d, d + n_env - 1)
    g = np.zeros((2 * d - 1, d, d))  # g[d - 1 + s] = G_s
    for s in range(1 - d, min(d, n_env)):
        ns = np.arange(max(0, -s), min(d, d - s))  # input numbers n with n + s < d
        a_s = amp[ns + np.arange(n_env)[:, None], ns + s, ns]
        g[d - 1 + s, ns[:, None], ns] = (tau[:, None] * a_s).T @ a_s
    axes = (mode, len(state.dims) + mode)
    rho = np.moveaxis(state.data.reshape(state.dims + state.dims), axes, (0, 1))
    out = np.zeros_like(rho)
    for t in range(1 - d, d):
        r = np.arange(max(0, t), d + min(0, t))  # n with n and n - t below d
        slab = rho[r, r - t]
        m_t = g[d - 1 + r[:, None] - r, r, r - t]
        out[r, r - t] = (m_t @ slab.reshape(r.size, -1)).reshape(slab.shape)
    return np.moveaxis(out, (0, 1), axes).reshape(state.data.shape), n_env


def _corner_entry_mp(kappa, total, j, n):
    """<j, N-j| U |n, N-n> at 50 digits, from U a+ U+ = c a+ - s e+ and
    U e+ U+ = s a+ + c e+ applied to a+^n e+^(N-n) |0, 0>."""
    with mp.workdps(50):
        c, s = mp.sqrt(mp.mpf(kappa)), mp.sqrt(1 - mp.mpf(kappa))
        norm = mp.sqrt(mp.factorial(j) * mp.factorial(total - j)
                       / (mp.factorial(n) * mp.factorial(total - n)))
        return norm * mp.fsum(
            mp.binomial(n, p) * mp.binomial(total - n, j - p)
            * c**p * (-s) ** (n - p) * s ** (j - p) * c ** (total - n - j + p)
            for p in range(max(0, j - total + n), min(n, j) + 1))


def _assert_full_width_orthogonal(kappa, n_max, atol):
    # with d > N the corner holds all of block N: its rows j <= N are
    # orthonormal and the rest are zero
    d = n_max + 2
    amp = fo.beamsplitter_corners(kappa, d, n_max + 1)
    for total, corner in enumerate(amp):
        keep = np.diag((np.arange(d) <= total).astype(float))
        np.testing.assert_allclose(corner @ corner.T, keep, rtol=0.0, atol=atol)
        np.testing.assert_allclose(corner.T @ corner, keep, rtol=0.0, atol=atol)


def _thermal_state(mean, dim):
    return fo.FockOperator((dim,), np.diag(fo.thermal_probs(mean, dim)))


def _plus_state(dim=3):
    vec = np.zeros(dim)
    vec[0] = vec[1] = 1.0 / math.sqrt(2.0)
    return fo.pure_state(vec, (dim,))


class TestDephasing:
    def test_kills_coherence_between_photon_numbers(self):
        out = fo.apply_dephasing(_plus_state())
        want = np.diag([0.5, 0.5, 0.0]).astype(complex)
        np.testing.assert_allclose(out.data, want, atol=1e-15)

    def test_preserves_coherence_within_a_total_number_block(self):
        vec = np.zeros(4)
        vec[1] = vec[2] = 1.0 / math.sqrt(2.0)  # (|01> + |10>)/sqrt(2)
        st = fo.pure_state(vec, (2, 2))
        out = fo.apply_dephasing(st)
        assert np.array_equal(out.data, st.data)

    def test_diagonal_states_are_fixed_points(self):
        st = _thermal_state(0.7, 12)
        out = fo.apply_dephasing(st)
        assert np.array_equal(out.data, st.data)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = a @ a.conj().T
        st = fo.FockOperator((3, 3), (rho / np.trace(rho).real).astype(complex))
        once = fo.apply_dephasing(st)
        twice = fo.apply_dephasing(once)
        assert np.array_equal(once.data, twice.data)

    def test_matches_explicit_phase_average(self):
        # 128 equally spaced phases average exactly over fewer than 128 levels
        phases = 2.0 * math.pi * np.arange(128) / 128.0

        def rotated(st, theta):
            for mode in range(len(st.dims)):
                st = fo.apply_phase_shift(st, mode, theta)
            return st.data

        for st in (_plus_state(4), _random_state((3, 4, 2), 5)):
            avg = sum(rotated(st, t) for t in phases) / 128.0
            np.testing.assert_allclose(avg, fo.apply_dephasing(st).data,
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mode", [-1, 1])
    def test_phase_shift_rejects_a_mode_out_of_range(self, mode):
        with pytest.raises(ValueError):
            fo.apply_phase_shift(_plus_state(), mode, 0.1)


class TestComplementaryOutput:
    def test_vacuum(self):
        vec = np.zeros(4)
        vec[0] = 1.0
        probs = fo.complementary_dephasing((4,), vec**2)
        assert isinstance(probs, np.ndarray)
        assert probs.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_single_thermal_mode_is_geometric(self):
        probs = fo.complementary_dephasing((30,), fo.thermal_probs(0.7, 30))
        n = np.arange(30)
        want = 0.7**n / 1.7 ** (n + 1)
        np.testing.assert_allclose(probs, want, rtol=1e-12)

    def test_two_thermal_modes_give_the_total_photon_law(self):
        one = fo.thermal_probs(1.0, 40)
        probs = fo.complementary_dephasing((40, 40), np.kron(one, one))
        want = negative_binomial(2, 1.0, 0, 39)
        assert probs.shape == (79,)  # totals up to 39 + 39
        assert np.abs(probs[:40] - want).max() <= 1e-10


class TestThermalLossOracle:
    def test_vacuum_is_fixed_without_added_noise(self):
        vec = np.zeros(6)
        vec[0] = 1.0
        st = fo.pure_state(vec, (6,))
        out = fo.apply_thermal_loss(st, 0, ThermalLossChannel(0.3))
        np.testing.assert_allclose(out.data, st.data, atol=1e-13)

    def test_single_photon_thins_binomially(self):
        vec = np.zeros(5)
        vec[1] = 1.0
        st = fo.pure_state(vec, (5,))
        out = fo.apply_thermal_loss(st, 0, ThermalLossChannel(0.65))
        diag = np.real(np.diag(out.data))
        assert diag[0] == pytest.approx(0.35, abs=1e-12)
        assert diag[1] == pytest.approx(0.65, abs=1e-12)
        assert np.abs(diag[2:]).max() <= 1e-12

    def test_lossless_channel_is_the_identity(self):
        # its dilation is x[j, n, 0] = [j = n] with a vacuum environment, so
        # each offset product multiplies by an identity matrix: exact
        st = _thermal_state(0.4, 8)
        out = fo.apply_thermal_loss(st, 0, ThermalLossChannel(1.0))
        assert np.array_equal(out.data, st.data)

    def test_trace_preserved_and_mean_evolves(self):
        st = _thermal_state(0.3, 40)
        out = fo.apply_thermal_loss(st, 0, ThermalLossChannel(0.8, 0.5))
        diag = np.real(np.diag(out.data))
        assert diag.sum() == pytest.approx(1.0, abs=1e-9)
        mean = np.arange(40) @ diag
        assert mean == pytest.approx(0.8 * 0.3 + 0.5, abs=1e-8)

    # the middle mode of three gathers from a view whose trailing axes are
    # not contiguous
    @pytest.mark.parametrize("dims, mode", [
        ((4, 3), 0), ((4, 3), 1), ((3, 4, 2), 0), ((3, 4, 2), 1), ((3, 4, 2), 2)],
        ids=["0", "1", "3x4x2-0", "3x4x2-1", "3x4x2-2"])
    @pytest.mark.parametrize("n_b, tol", [
        # the oracle drops environment photon numbers of total mass below
        # 1e-10; that part of the map is a positive operator of trace below
        # 1e-10, which bounds each of its elements
        (0.03, 1e-10),
        # vacuum environment: both sides are exact up to rounding
        (0.0, 1e-13)])
    def test_matches_the_beamsplitter_on_a_product_space(self, dims, mode, n_b, tol):
        st = _random_state(dims, seed=5)
        ch = ThermalLossChannel(0.7, n_b)
        got = fo.apply_thermal_loss(st, mode, ch).data
        want = _dilation_reference(st.data, dims, mode, ch, cut=18)
        assert np.abs(got - want).max() <= tol

    # beside a 30-level mode, the 20-level mode's offset-0 product has
    # 20 x 20 x 1800 multiply-adds and runs in two column blocks
    @pytest.mark.parametrize("mode", [0, 1])
    def test_acts_on_its_factor_of_a_product_state(self, mode):
        ch = ThermalLossChannel(0.7, 0.3)
        one, other = _random_state((20,), seed=1).data, _random_state((30,), seed=2).data
        lossy = fo.apply_thermal_loss(fo.FockOperator((20,), one), 0, ch).data
        dims, pair, want = (((20, 30), (one, other), np.kron(lossy, other)) if mode == 0
                            else ((30, 20), (other, one), np.kron(other, lossy)))
        got = fo.apply_thermal_loss(fo.FockOperator(dims, np.kron(*pair)), mode, ch).data
        assert np.abs(got - want).max() <= 1e-15


class TestBandedLoss:
    # verify's covariance check reads the d = 28 TMSV within two signal offsets
    @pytest.mark.parametrize("dims, mode, seed, k", [
        ((5, 5), 0, 7, 0), ((5, 5), 1, 7, 1), ((5, 5), 0, 7, 3),
        ((3, 4, 5), 0, 3, 1), ((3, 4, 5), 1, 3, 0), ((3, 4, 5), 2, 3, 2),
        ((28, 28), 0, None, 2)],
        ids=["5x5-0-k0", "5x5-1-k1", "5x5-0-k3", "3x4x5-0-k1", "3x4x5-1-k0",
             "3x4x5-2-k2", "tmsv28-0-k2"])
    @pytest.mark.parametrize("kappa, n_b", [(0.7, 0.3), (0.8, 0.5), (1.0, 0.0)])
    def test_band_is_the_full_map_cut_at_its_offsets(self, dims, mode, seed, k,
                                                      kappa, n_b):
        st = fo.tmsv_state(0.1, 28) if seed is None else _random_state(dims, seed)
        ch = ThermalLossChannel(kappa, n_b)
        full = fo.apply_thermal_loss(st, mode, ch).data
        band = fo.apply_thermal_loss(st, mode, ch, max_offset=k).data
        occ = fo.mode_occupations(dims)[:, mode]
        inside = np.abs(occ[:, None] - occ) <= k
        assert np.array_equal(band[inside], full[inside])
        assert not band[~inside].any()

    @pytest.mark.parametrize("k", [4, 5, 100])
    def test_a_band_past_the_cutoff_is_the_full_map(self, k):
        st, ch = _random_state((5, 5), 7), ThermalLossChannel(0.7, 0.3)
        assert np.array_equal(fo.apply_thermal_loss(st, 1, ch, max_offset=k).data,
                              fo.apply_thermal_loss(st, 1, ch).data)

    @pytest.mark.parametrize("kappa", [0.7, 1.0])
    def test_a_negative_band_is_refused(self, kappa):
        with pytest.raises(ValueError, match="max_offset"):
            fo.apply_thermal_loss(_random_state((5, 5), 7), 0,
                                  ThermalLossChannel(kappa), max_offset=-1)


class TestOffsetProducts:
    # M_t[j, n] = sum_k tau_k x[j, n, k] x[j-t, n-t, k] sums the same products
    # as G_{j-n}[n, n-t] in another order; every output element is below 0.31
    # here, and the two routes agreed to within 0.25 eps when this was written
    @pytest.mark.parametrize("kappa, n_b", [(0.7, 0.3), (0.8, 0.5), (0.6, 0.4)])
    @pytest.mark.parametrize("d", [5, 14, 20])
    def test_full_map_matches_the_shift_products(self, kappa, n_b, d):
        st, ch = _random_state((d,), seed=d), ThermalLossChannel(kappa, n_b)
        want, _ = _shift_product_loss(st, 0, ch)
        got = fo.apply_thermal_loss(st, 0, ch).data
        assert np.abs(got - want).max() <= np.finfo(float).eps

    @pytest.mark.parametrize("kappa, n_b", [(0.7, 0.3), (0.8, 0.5), (0.6, 0.4)])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_product_state_matches_the_shift_products(self, kappa, n_b, mode):
        factors = [_random_state((d,), seed).data for d, seed in ((4, 1), (5, 2), (3, 3))]
        st = fo.FockOperator((4, 5, 3), np.kron(np.kron(*factors[:2]), factors[2]))
        ch = ThermalLossChannel(kappa, n_b)
        want, _ = _shift_product_loss(st, mode, ch)
        got = fo.apply_thermal_loss(st, mode, ch).data
        assert np.abs(got - want).max() <= np.finfo(float).eps

    # fig3's noisiest channel: the environment mean 50 takes 1163 levels
    @pytest.mark.parametrize("make_state", [
        lambda: fo.tmsv_state(0.1, 6), lambda: _random_state((6,), seed=4)],
        ids=["tmsv", "random"])
    def test_fig3_channel_matches_the_shift_products(self, make_state):
        st, ch = make_state(), ThermalLossChannel(0.8, 10.0)
        want, n_env = _shift_product_loss(st, 0, ch)
        assert n_env == 1163
        got = fo.apply_thermal_loss(st, 0, ch).data
        assert np.abs(got - want).max() <= np.finfo(float).eps


class TestSharedDilation:
    # verify's three channels, fig3's noisiest and the lossless one, on each
    # mode of a product state, mapped through a dilation built for 7 levels
    @pytest.mark.parametrize("kappa, n_b", [
        (0.8, 0.5), (0.7, 0.3), (0.6, 0.4), (0.8, 10.0), (1.0, 0.0)])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("k", [None, 0, 2])
    def test_a_larger_dilation_maps_as_the_modes_own(self, kappa, n_b, mode, k):
        factors = [_random_state((d,), seed).data for d, seed in ((4, 1), (5, 2), (3, 3))]
        st = fo.FockOperator((4, 5, 3), np.kron(np.kron(*factors[:2]), factors[2]))
        ch = ThermalLossChannel(kappa, n_b)
        shared, own = fo.loss_dilation(ch, 7), fo.loss_dilation(ch, st.dims[mode])
        d = st.dims[mode]
        assert np.array_equal(shared.tau, own.tau)
        assert np.array_equal(shared.x[:d, :d], own.x)
        want = fo.apply_thermal_loss(st, mode, ch, k).data
        assert np.array_equal(fo.apply_thermal_loss(st, mode, shared, k).data, want)
        assert np.array_equal(fo.apply_thermal_loss(st, mode, own, k).data, want)

    @pytest.mark.parametrize("kappa", [0.7, 1.0])
    def test_a_smaller_dilation_is_refused(self, kappa):
        small = fo.loss_dilation(ThermalLossChannel(kappa), 4)
        with pytest.raises(ValueError):
            fo.apply_thermal_loss(_random_state((5, 5), 7), 0, small)

    # the environment of n_b = 1e6 takes about 1.15e8 levels, and at 1e300
    # its mean rounds q = mean / (mean + 1) to 1: both are refused from the
    # level count alone, before any table is allocated
    @pytest.mark.parametrize("n_b", [1e6, 1e300])
    def test_a_table_above_the_bound_is_refused_unbuilt(self, n_b):
        st, ch = fo.tmsv_state(0.1, 20), ThermalLossChannel(0.8, n_b)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="B of corner table and .* B of gather"):
                fo.apply_thermal_loss(st, 0, ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestDtype:
    # real states run in real arithmetic; anything complex stays complex128
    @pytest.mark.parametrize("k", [None, 0, 2])
    @pytest.mark.parametrize("kappa, n_b", [(0.8, 0.5), (1.0, 0.0)])
    def test_real_states_stay_real(self, kappa, n_b, k):
        st = fo.tmsv_state(0.1, 8)
        assert st.data.dtype == np.float64
        lossy = fo.apply_thermal_loss(st, 0, ThermalLossChannel(kappa, n_b), k)
        assert lossy.data.dtype == np.float64
        assert fo.apply_dephasing(lossy).data.dtype == np.float64

    @pytest.mark.parametrize("k", [None, 0, 2])
    @pytest.mark.parametrize("kappa, n_b", [(0.8, 0.5), (1.0, 0.0)])
    def test_complex_states_stay_complex(self, kappa, n_b, k):
        st = _random_state((4, 3), seed=2)
        lossy = fo.apply_thermal_loss(st, 1, ThermalLossChannel(kappa, n_b), k)
        assert lossy.data.dtype == np.complex128
        assert fo.apply_dephasing(lossy).data.dtype == np.complex128

    def test_pure_states_and_phase_shifts(self):
        assert fo.pure_state(np.eye(4)[1], (2, 2)).data.dtype == np.float64
        assert fo.pure_state(np.eye(4)[1] * 1j, (2, 2)).data.dtype == np.complex128
        assert fo.apply_phase_shift(fo.tmsv_state(0.1, 4), 0, 0.3).data.dtype == np.complex128

    def test_real_entropy_is_that_of_the_complex_copy(self):
        lossy = fo.apply_thermal_loss(fo.tmsv_state(0.1, 14), 0, ThermalLossChannel(0.8, 0.5))
        for st in (lossy, fo.apply_dephasing(lossy)):
            twin = fo.FockOperator(st.dims, st.data.astype(complex))
            assert abs(fo.von_neumann_entropy(st) - fo.von_neumann_entropy(twin)) <= 1e-13


class TestBeamsplitterCorners:
    def test_full_width_corners_are_orthogonal(self):
        _assert_full_width_orthogonal(0.7, 25, 1e-13)

    # each step reads only the d x d corner of the block before it, so a
    # smaller table is the leading part of a larger one, bit for bit
    @pytest.mark.parametrize("kappa", [0.6, 0.7, 0.8])
    def test_a_smaller_table_is_a_prefix_of_a_larger_one(self, kappa):
        big = fo.beamsplitter_corners(kappa, 16, 60)
        for d, n_total in [(1, 1), (1, 60), (2, 7), (9, 9), (9, 60), (16, 33), (16, 60)]:
            small = fo.beamsplitter_corners(kappa, d, n_total)
            assert np.array_equal(big[:n_total, :d, :d], small)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kappa=hst.floats(0.0, 1.0, exclude_min=True), n_max=hst.integers(0, 40))
    def test_full_width_corners_are_orthogonal_for_any_kappa(self, kappa, n_max):
        _assert_full_width_orthogonal(kappa, n_max, 1e-13)

    # verify's covariance dilation (d = 28, 69 environment levels) at
    # kappa = 0.7, where one-sided recurrences were 3e-7 off, and nearly as
    # many levels as fig3's n_b = 10 takes (1163)
    @pytest.mark.parametrize("kappa, d, n_env", [(0.7, 28, 69), (0.8, 12, 1151)])
    def test_corners_match_the_mpmath_sum(self, kappa, d, n_env):
        n_total = d + n_env - 1
        amp = fo.beamsplitter_corners(kappa, d, n_total)
        for total in np.linspace(0, n_total - 1, 13).astype(int):
            for j in range(0, min(d, total + 1), 4):
                for n in range(0, min(d, total + 1), 4):
                    want = _corner_entry_mp(kappa, int(total), j, n)
                    assert abs(amp[total, j, n] - float(want)) <= 1e-14


class TestNoisyOracle:
    # fig3's channel at n_b = 1 and 10: the environment takes 127 and 1163
    # levels.  The dilation is exact below the d = 20 cutoff up to the 1e-10
    # environment mass it leaves out, and fock_diagonal's window is wider.
    @pytest.mark.parametrize("n_b", [1.0, 10.0])
    def test_fock_diagonal_matches_the_number_kernel(self, n_b):
        ch, energy, cutoff = ThermalLossChannel(0.8, n_b), 0.1, 20
        probs = fock_diagonal(energy, ch).probs
        n_s, n_i = min(cutoff, probs.shape[0]), min(cutoff, probs.shape[1])
        lossy = fo.apply_thermal_loss(fo.tmsv_state(energy, cutoff), 0, ch)
        dense = np.real(np.diag(lossy.data)).reshape(cutoff, cutoff)
        assert np.abs(probs[:n_s, :n_i] - dense[:n_s, :n_i]).max() <= 1e-10


class TestEntropies:
    def test_pure_state_has_no_entropy(self):
        assert fo.von_neumann_entropy(_plus_state()) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        st = fo.FockOperator((4,), (np.eye(4) / 4.0).astype(complex))
        assert fo.von_neumann_entropy(st) == pytest.approx(2.0, abs=1e-12)


class TestSchmidtDephasedMutualInformation:
    def test_distinct_totals_reduce_to_the_weight_entropy(self):
        probs = np.array([0.5, 0.3, 0.2])
        got = fo.schmidt_dephased_mutual_information(probs, [0, 1, 2])
        assert got == pytest.approx(shannon_entropy(probs), rel=1e-12)

    def test_flagship_two_mode_input_attains_the_capacity(self):
        sol = solve_dephasing(2, 0.3)
        patterns = [(a, t - a) for t in range(31) for a in range(t + 1)]
        probs = _optimal_joint_weights(2, sol.lambda1, patterns)
        totals = [sum(p) for p in patterns]
        got = fo.schmidt_dephased_mutual_information(probs, totals)
        assert got == pytest.approx(sol.capacity, abs=1e-5)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ValueError):
            fo.schmidt_dephased_mutual_information(np.array([0.5, 0.4]), [0, 1])


@pytest.mark.parametrize("mean", [-0.5, math.nan, math.inf])
def test_thermal_probs_refuses_a_mean_outside_zero_to_infinity(mean):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        fo.thermal_probs(mean, 3)


class TestStructure:
    def test_total_numbers(self):
        np.testing.assert_array_equal(fo.total_numbers((2, 2)), [0, 1, 1, 2])

    def test_noisy_loss_keeps_only_the_corner_table(self):
        # about 127 environment levels: the full blocks would run to
        # 132 x 132 and take 6 MB together; the 6 x 6 corners take 38 kB
        st = fo.tmsv_state(0.5, 6)
        tracemalloc.start()
        try:
            fo.apply_thermal_loss(st, 0, ThermalLossChannel(0.8, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_loss_allocates_one_state_beyond_its_input(self):
        # the result is the only state-sized array; each offset's slab and
        # its product are at most 1/d of it
        st = fo.tmsv_state(0.1, 28)
        tracemalloc.start()
        try:
            fo.apply_thermal_loss(st, 0, ThermalLossChannel(0.8, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * st.data.nbytes

    @pytest.mark.parametrize("dims, mode, kappa, n_b", [
        ((12, 12), 0, 0.8, 0.5), ((3, 4, 2), 1, 0.7, 0.3), ((3, 4, 2), 2, 1.0, 0.0)])
    def test_loss_leaves_its_input_alone(self, dims, mode, kappa, n_b):
        st = _random_state(dims, seed=4)
        before = st.data.copy()
        out = fo.apply_thermal_loss(st, mode, ThermalLossChannel(kappa, n_b))
        assert np.array_equal(st.data, before)
        assert not np.shares_memory(out.data, st.data)

    def test_partial_trace_of_perfectly_correlated_state(self):
        # a Schmidt-form vector sum_n c_n |n, n> has the reduced state
        # diag(|c_n|^2): the support and the amplitudes give it directly
        vec = fo.tmsv_vector(0.5, 12).reshape(12, 12)
        off = vec - np.diag(np.diag(vec))
        assert not off.any()
        law = fo.thermal_probs(0.5, 12)
        np.testing.assert_allclose(np.diag(vec) ** 2, law / law.sum(), rtol=1e-12)

    def test_two_mode_covariance_of_squeezed_vacuum(self):
        cm = fo.two_mode_covariance(fo.tmsv_state(0.2, 30))
        cross = 2.0 * math.sqrt(0.2 * 1.2)
        want = np.array([
            [1.4, 0.0, cross, 0.0],
            [0.0, 1.4, 0.0, -cross],
            [cross, 0.0, 1.4, 0.0],
            [0.0, -cross, 0.0, 1.4],
        ])
        np.testing.assert_allclose(cm, want, atol=1e-10)

    @pytest.mark.parametrize("make_state", [
        lambda: _random_state((5, 4), seed=9),
        # the truncated ladder matrices give a a+ no weight on the top level,
        # which holds 8e-4 of this state's signal and 2e-4 of its idler
        lambda: fo.apply_thermal_loss(
            fo.tmsv_state(1.0, 12), 0, ThermalLossChannel(0.8, 0.5))],
        ids=["random", "lossy-tmsv"])
    def test_two_mode_covariance_matches_the_kron_ladders(self, make_state):
        st = make_state()
        d0, d1 = st.dims
        a0 = np.kron(np.diag(np.sqrt(np.arange(1.0, d0)), 1), np.eye(d1))
        a1 = np.kron(np.eye(d0), np.diag(np.sqrt(np.arange(1.0, d1)), 1))
        quads = [op for a in (a0, a1)
                 for op in (a + a.conj().T, -1j * (a - a.conj().T))]
        mean = [np.trace(st.data @ q).real for q in quads]
        want = np.array([[
            0.5 * np.trace(st.data @ (qr @ qc + qc @ qr)).real - mr * mc
            for qc, mc in zip(quads, mean)] for qr, mr in zip(quads, mean)])
        assert np.abs(fo.two_mode_covariance(st) - want).max() <= 1e-12

    def test_imports_no_closed_form_module(self):
        # the oracle shares no code with what it checks
        tree = ast.parse(open(fo.__file__).read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and not node.module.startswith("dephcap")
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("dephcap") for a in node.names)

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(ValueError):
            fo.pure_state(np.array([1.0, 1.0]), (2,))
