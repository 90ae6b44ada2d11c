"""Brute-force truncated-Fock-space checks of the analytic machinery."""

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
        st = _thermal_state(0.4, 8)
        out = fo.apply_thermal_loss(st, 0, ThermalLossChannel(1.0))
        np.testing.assert_allclose(out.data, st.data, atol=1e-13)

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
    # kappa = 0.7, where one-sided recurrences were 3e-7 off, and fig3's
    # n_b = 10 (1151 levels)
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
    # fig3's channel at n_b = 1 and 10: the environment takes 127 and 1151
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

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(ValueError):
            fo.pure_state(np.array([1.0, 1.0]), (2,))
