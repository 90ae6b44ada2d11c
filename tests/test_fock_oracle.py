"""Brute-force truncated-Fock-space checks of the analytic machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from dephcap import fock_oracle as fo
from dephcap.bounds import thermal_total_photon_dist
from dephcap.dephasing_exact import solve_dephasing
from dephcap.special_math import shannon_entropy
from dephcap.thermal_loss import ThermalLossChannel
from dephcap.verification import _optimal_joint_weight


def _random_state(dims, seed):
    dim = int(np.prod(dims))
    g = np.random.default_rng(seed).normal(size=(dim, dim, 2)) @ [1.0, 1j]
    rho = g @ g.conj().T
    return fo.FockOperator(dims, rho / np.trace(rho).real)


def _dilation_reference(rho, dims, mode, ch, cut):
    """Thermal loss on one mode of a two-mode state, from a product space.

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
    work = np.moveaxis(rho.reshape(dims + dims), (mode, 2 + mode), (0, 2))
    out = np.einsum("jenk,k,nopq,repk->jorq", u_in, tau, work, u_in)
    out = np.moveaxis(out[:d, :, :d, :], (0, 2), (mode, 2 + mode))
    return out.reshape(rho.shape)


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
        phases = 2.0 * math.pi * np.arange(128) / 128.0
        st = _plus_state(4)
        avg = sum(fo.apply_phase_shift(st, 0, t).data for t in phases) / 128.0
        np.testing.assert_allclose(avg, fo.apply_dephasing(st).data, atol=1e-12)

    @pytest.mark.parametrize("mode", [-1, 1])
    def test_phase_shift_rejects_a_mode_out_of_range(self, mode):
        with pytest.raises(ValueError):
            fo.apply_phase_shift(_plus_state(), mode, 0.1)


class TestComplementaryOutput:
    def test_vacuum(self):
        vec = np.zeros(4)
        vec[0] = 1.0
        dist = fo.complementary_dephasing((4,), vec**2)
        assert dist.probs[0] == 1.0

    def test_single_thermal_mode_is_geometric(self):
        dist = fo.complementary_dephasing((30,), fo.thermal_probs(0.7, 30))
        n = np.arange(30)
        want = 0.7**n / 1.7 ** (n + 1)
        np.testing.assert_allclose(dist.probs[:30], want, rtol=1e-12)

    def test_two_thermal_modes_give_the_total_photon_law(self):
        one = fo.thermal_probs(1.0, 40)
        dist = fo.complementary_dephasing((40, 40), np.kron(one, one))
        want = thermal_total_photon_dist(2, 1.0)
        assert np.abs(dist.probs[:40] - want.probs[:40]).max() <= 1e-10


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

    @pytest.mark.parametrize("mode", [0, 1])
    @pytest.mark.parametrize("n_b, tol", [
        # the oracle drops environment photon numbers of total mass below
        # 1e-10; that part of the map is a positive operator of trace below
        # 1e-10, which bounds each of its elements
        (0.03, 1e-10),
        # vacuum environment: both sides are exact up to rounding in expm
        (0.0, 1e-13)])
    def test_matches_the_beamsplitter_on_a_product_space(self, mode, n_b, tol):
        dims = (4, 3)
        st = _random_state(dims, seed=5)
        ch = ThermalLossChannel(0.7, n_b)
        got = fo.apply_thermal_loss(st, mode, ch).data
        want = _dilation_reference(st.data, dims, mode, ch, cut=18)
        assert np.abs(got - want).max() <= tol


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
        probs = np.array([_optimal_joint_weight(2, sol.lambda1, p) for p in patterns])
        totals = [sum(p) for p in patterns]
        got = fo.schmidt_dephased_mutual_information(probs, totals)
        assert got == pytest.approx(sol.capacity, abs=1e-5)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ValueError):
            fo.schmidt_dephased_mutual_information(np.array([0.5, 0.4]), [0, 1])


class TestStructure:
    def test_total_numbers(self):
        np.testing.assert_array_equal(fo.total_numbers((2, 2)), [0, 1, 1, 2])

    def test_noisy_loss_keeps_one_beamsplitter_block_alive(self):
        # about 127 environment levels: the blocks run to 132 x 132, and all
        # of them together take 6 MB
        st = fo.tmsv_state(0.5, 6)
        tracemalloc.start()
        try:
            fo.apply_thermal_loss(st, 0, ThermalLossChannel(0.8, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_beamsplitter_blocks_are_unitary(self):
        theta = math.acos(math.sqrt(0.7))
        for block in fo.beamsplitter_blocks(theta, 25):
            np.testing.assert_allclose(
                block @ block.T, np.eye(block.shape[0]), atol=1e-12)

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
