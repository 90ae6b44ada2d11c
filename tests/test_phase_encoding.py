"""Gaussian two-mode states, their Fock diagonals, and phase-encoding rates."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dephcap import cli, phase_encoding
from dephcap.bounds import entropy_total_asym, entropy_total_exact
from dephcap.errors import ContractViolation, SolverError
from dephcap.phase_encoding import (
    _number_kernel_log,
    fock_diagonal,
    gaussian_conditional_entropy,
    holevo_phase_encoding,
    symplectic_eigenvalues,
    tmsv_through_loss,
)
from dephcap.scalar_math import thermal_entropy_g
from dephcap.special_math import shannon_entropy
from dephcap.thermal_loss import ThermalLossChannel, capacity_report, ea_capacity


class TestGaussianState:
    def test_vacuum_through_identity(self):
        cm = tmsv_through_loss(0.0, ThermalLossChannel(1.0, 0.0))
        np.testing.assert_allclose(cm, np.eye(4), atol=1e-14)
        nu_minus, nu_plus = symplectic_eigenvalues(cm)
        assert nu_minus == pytest.approx(1.0, abs=1e-12)
        assert nu_plus == pytest.approx(1.0, abs=1e-12)

    def test_lossless_state_stays_pure(self):
        cm = tmsv_through_loss(0.3, ThermalLossChannel(1.0, 0.0))
        nu_minus, nu_plus = symplectic_eigenvalues(cm)
        assert nu_minus == pytest.approx(1.0, abs=1e-10)
        assert nu_plus == pytest.approx(1.0, abs=1e-10)

    def test_covariance_entries(self):
        cm = tmsv_through_loss(0.001, ThermalLossChannel(0.8, 10.0))
        cross = 2.0 * math.sqrt(0.8 * 0.001 * 1.001)
        assert cm[0, 0] == pytest.approx(21.0016, rel=1e-13)
        assert cm[1, 1] == pytest.approx(21.0016, rel=1e-13)
        assert cm[2, 2] == pytest.approx(1.002, rel=1e-13)
        assert cm[3, 3] == pytest.approx(1.002, rel=1e-13)
        assert abs(cm[0, 2]) == pytest.approx(cross, rel=1e-12)
        assert cm[1, 3] == pytest.approx(-cm[0, 2], rel=1e-12)
        assert cm[0, 1] == cm[0, 3] == cm[1, 2] == cm[2, 3] == 0.0

    def test_symplectic_spectrum_of_thermal_product(self):
        cm = np.diag([3.0, 3.0, 5.0, 5.0])
        nu_minus, nu_plus = symplectic_eigenvalues(cm)
        assert nu_minus == pytest.approx(3.0, rel=1e-12)
        assert nu_plus == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.2, 0.7, 1.0])
    @pytest.mark.parametrize("n_b", [0.0, 0.5, 10.0])
    @pytest.mark.parametrize("energy", [0.001, 1.0, 10.0])
    def test_symplectic_pair_matches_occupation_pair(self, kappa, n_b, energy):
        # Unordered-pair identity: the labels cross once the channel removes
        # more photons than it injects.
        if kappa == 1.0 and n_b > 0.0:
            pytest.skip("lossless channel admits no added noise")
        rep = capacity_report(ThermalLossChannel(kappa, n_b), energy)
        cm = tmsv_through_loss(energy, ThermalLossChannel(kappa, n_b))
        nus = sorted((nu - 1.0) / 2.0 for nu in symplectic_eigenvalues(cm))
        occs = sorted((rep.a_plus, rep.a_minus))
        assert nus[0] == pytest.approx(occs[0], abs=1e-9)
        assert nus[1] == pytest.approx(occs[1], abs=1e-9)


    def test_a_stack_gives_the_single_matrix_values(self):
        cms = [tmsv_through_loss(energy, ThermalLossChannel(kappa, n_b))
               for kappa, n_b in [(0.2, 0.0), (0.7, 0.5), (1.0, 0.0), (0.9, 10.0)]
               for energy in (0.001, 1.0, 10.0)] + [np.diag([3.0, 3.0, 5.0, 5.0])]
        one = [symplectic_eigenvalues(cm) for cm in cms]
        assert all(type(nu) is float for pair in one for nu in pair)
        nu_minus, nu_plus = symplectic_eigenvalues(np.array(cms))
        assert nu_minus.shape == nu_plus.shape == (len(cms),)
        assert nu_minus.tolist() == [pair[0] for pair in one]
        assert nu_plus.tolist() == [pair[1] for pair in one]
        grid = symplectic_eigenvalues(np.array(cms).reshape(13, 1, 4, 4))
        assert [nus.shape for nus in grid] == [(13, 1), (13, 1)]


class TestConditionalEntropy:
    def test_vacuum(self):
        got = gaussian_conditional_entropy(0.0, ThermalLossChannel(1.0, 0.0))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_pure_state(self):
        assert gaussian_conditional_entropy(2.0, ThermalLossChannel(1.0, 0.0)) <= 1e-7

    @pytest.mark.parametrize(
        "kappa, n_b, energy",
        [(0.8, 10.0, 0.001), (0.8, 0.01, 0.001), (0.45, 1.0, 0.1)])
    def test_matches_occupation_entropies(self, kappa, n_b, energy):
        ch = ThermalLossChannel(kappa, n_b)
        rep = capacity_report(ch, energy)
        want = thermal_entropy_g(rep.a_plus) + thermal_entropy_g(rep.a_minus)
        assert gaussian_conditional_entropy(energy, ch) == pytest.approx(want, abs=1e-9)


class TestFockDiagonal:
    def test_zero_energy_concentrates_on_the_vacuum(self):
        jd = fock_diagonal(0.0, ThermalLossChannel(0.5, 0.0))
        assert jd.probs[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert shannon_entropy(jd) == pytest.approx(0.0, abs=1e-10)

    def test_lossless_diagonal_is_perfectly_correlated(self):
        jd = fock_diagonal(0.6, ThermalLossChannel(1.0, 0.0))
        n = np.arange(12)
        want = 0.6**n / 1.6 ** (n + 1)
        np.testing.assert_allclose(np.diag(jd.probs)[:12], want, rtol=1e-10)
        off = jd.probs - np.diag(np.diag(jd.probs))
        assert np.abs(off).max() <= 1e-12

    def test_marginals_are_thermal(self):
        jd = fock_diagonal(0.001, ThermalLossChannel(0.8, 10.0))
        n_s = np.arange(jd.cutoffs[0])
        n_i = np.arange(jd.cutoffs[1])
        signal_want = 10.0008**n_s / 11.0008 ** (n_s + 1)
        idler_want = 0.001**n_i / 1.001 ** (n_i + 1)
        assert np.abs(jd.probs.sum(axis=1) - signal_want).max() <= 1e-8
        assert np.abs(jd.probs.sum(axis=0) - idler_want).max() <= 1e-8

    def test_mass_window_including_tail(self):
        jd = fock_diagonal(0.001, ThermalLossChannel(0.8, 10.0))
        total = jd.probs.sum()
        assert total <= 1.0 + 1e-10
        assert total + jd.tail_bound >= 1.0 - 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kappa=hst.floats(0.05, 1.0), n_b=hst.floats(0.0, 10.0),
           energy=hst.floats(1e-4, 10.0))
    def test_tail_bound_covers_the_missing_mass(self, kappa, n_b, energy):
        jd = fock_diagonal(energy, ThermalLossChannel(kappa, 0.0 if kappa == 1.0 else n_b))
        assert 1.0 - jd.probs.sum() <= jd.tail_bound + 1e-12
        assert jd.tail_bound <= 1e-9

    def test_entropy_matches_flat_shannon(self):
        jd = fock_diagonal(0.1, ThermalLossChannel(0.7, 0.5))
        nz = jd.probs[jd.probs > 0.0]
        assert shannon_entropy(jd) == pytest.approx(
            float(-(nz * np.log2(nz)).sum()), rel=1e-14)


def _kernel_entry_mp(kappa, n_b, j, n):
    """T[j, n] as the 50-digit sum over the intermediate photon number i."""
    with mp.workdps(50):
        gain = mp.mpf(n_b) + 1
        k0 = mp.mpf(kappa) / gain
        return mp.fsum(
            mp.binomial(n, i) * k0**i * (1 - k0) ** (n - i)
            * mp.binomial(j, i) * gain ** (-(i + 1)) * (1 - 1 / gain) ** (j - i)
            for i in range(min(j, n) + 1))


class TestNumberKernel:
    @pytest.mark.parametrize("kappa, n_b, j, n", [
        (0.8, 10.0, 0, 0), (0.8, 10.0, 3, 7), (0.8, 10.0, 120, 40),
        (0.8, 10.0, 489, 286), (0.8, 10.0, 0, 5500),  # ~4e-182
        (0.3, 0.0, 382, 382),  # ~1.8e-200
        (0.3, 0.0, 100, 399)])
    def test_entries_match_the_mpmath_sum(self, kappa, n_b, j, n):
        ref = _kernel_entry_mp(kappa, n_b, j, n)
        got = _number_kernel_log(kappa, n_b, j + 1, n + 1)[j, n]
        # Pascal's rule rounds once per step, j + n steps in all
        with mp.workdps(50):
            assert abs(mp.expm1(got - mp.log(ref))) <= 1e-16 * (j + n + 10)

    def test_pure_loss_cannot_add_photons(self):
        log_t = _number_kernel_log(0.3, 0.0, 8, 4)
        assert np.all(np.isneginf(log_t[np.tril_indices(8, -1, 4)]))
        assert np.all(np.isfinite(log_t[np.triu_indices(8, 0, 4)]))

    @pytest.mark.parametrize("kappa, n_b", [(0.8, 10.0), (0.3, 0.0)])
    def test_columns_sum_to_one(self, kappa, n_b):
        t = np.exp(_number_kernel_log(kappa, n_b, 2000, 20))
        np.testing.assert_allclose(t.sum(axis=0), 1.0, rtol=0.0, atol=1e-13)

    def test_identity_channel_is_the_identity(self):
        t = np.exp(_number_kernel_log(1.0, 0.0, 40, 25))
        assert np.array_equal(t, np.eye(40, 25))

    def test_budget_refuses_oversized_cutoffs(self):
        with pytest.raises(SolverError, match=r"cutoffs \(10419, 13006\) needs 3.04e\+09"):
            _number_kernel_log(0.8, 1.0, 10419, 13006)


# chi at 50 digits: -sum p ln p over p[j, k] = w_k T(j | k), with w the
# idler's thermal law and T the two-factor kernel summed as in
# _kernel_entry_mp, at cutoffs (signal, idler) = (640, 30) and (40, 90), which
# leave out under 1e-26 of the mass, minus g(A+) + g(A-) from the closed-form
# A+- at 50 digits; rounded once to double precision
TRUE_CHI_REFS = {
    (0.8, 10.0, 0.001): 7.35405641829466e-4,  # fig3's noisy point
    (1e-8, 0.0, 1.0): 2.77295885349594e-7,
}


class TestHolevoPhaseEncoding:
    @pytest.mark.xfail(strict=True, reason=(
        "fock_diagonal certifies the mass it leaves out, not that mass's entropy: "
        "chi is low by 8.0e-8 and 7.6e-3 relative; ROADMAP item 3's I, summed "
        "from nonnegative terms, is to mend it"))
    @pytest.mark.parametrize("kappa, n_b, energy", list(TRUE_CHI_REFS))
    def test_rate_matches_the_true_chi(self, kappa, n_b, energy):
        got = holevo_phase_encoding(energy, ThermalLossChannel(kappa, n_b))
        assert got == pytest.approx(TRUE_CHI_REFS[kappa, n_b, energy], rel=1e-10)

    def test_recorded_rate_at_ten_photons(self):
        # chi and the auto-extended cutoffs recorded from the N^3 log-space
        # stack that the two-factor kernel replaced
        ch = ThermalLossChannel(0.8, 10.0)
        assert fock_diagonal(10.0, ch).cutoffs == (490, 287)
        assert holevo_phase_encoding(10.0, ch) == pytest.approx(
            0.7296053793010913, rel=1e-12)

    @pytest.mark.parametrize("n_b, recorded, cutoffs", [
        (10.0, 0.0007354055832298201, (287, 16)),
        (1.0, 0.004334679056546609, (34, 16)),
        (0.1, 0.008438429446100792, (16, 16)),
        (0.01, 0.00927814101094658, (16, 16))])
    def test_recorded_rates_of_fig3(self, n_b, recorded, cutoffs):
        # recorded when the channel parameters were recovered from the
        # covariance matrix, which returned n_b = 0.010000000000000031 for
        # 0.01; taking them exactly moves that rate by 8 ulps (1.5e-15).
        # The cutoffs are those the kernel column sums once certified.
        ch = ThermalLossChannel(0.8, n_b)
        assert fock_diagonal(0.001, ch).cutoffs == cutoffs
        got = holevo_phase_encoding(0.001, ch)
        assert got == pytest.approx(recorded, rel=2e-15, abs=0.0)

    def test_kernel_is_built_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2:])
            return _number_kernel_log(*args)

        monkeypatch.setattr(phase_encoding, "_number_kernel_log", counted)
        fock_diagonal(10.0, ThermalLossChannel(0.8, 10.0))
        assert calls == [(490, 287)]

    def test_zero_energy(self):
        assert holevo_phase_encoding(0.0, ThermalLossChannel(0.5, 0.0)) == 0.0

    def test_lossless_equals_thermal_entropy(self):
        got = holevo_phase_encoding(0.7, ThermalLossChannel(1.0, 0.0))
        assert got == pytest.approx(thermal_entropy_g(0.7), rel=1e-10)

    @pytest.mark.parametrize(
        "kappa, n_b, energy",
        [(0.8, 10.0, 0.001), (0.8, 0.01, 0.001), (0.45, 1.0, 0.1),
         (0.7, 0.5, 0.1)])
    def test_never_exceeds_the_assisted_capacity(self, kappa, n_b, energy):
        ch = ThermalLossChannel(kappa, n_b)
        chi = holevo_phase_encoding(energy, ch)
        assert 0.0 <= chi <= ea_capacity(ch, energy) + 1e-12

    def test_near_optimal_at_large_noise(self):
        ch = ThermalLossChannel(0.8, 10.0)
        chi = holevo_phase_encoding(0.001, ch)
        ea = ea_capacity(ch, 0.001)
        assert 0.0 < (ea - chi) / ea < 0.01

    @pytest.mark.parametrize("kappa, n_b, energy", [
        (0.8, 1e-12, 1e-16),  # chi rounds to 1.44e-14, ea to 7.51e-15
        (0.8, 10.0, 1e-300)])  # chi is 0, ea rounds to -9.26e-298
    def test_refuses_a_rate_above_the_assisted_capacity(self, kappa, n_b, energy):
        ch = ThermalLossChannel(kappa, n_b)
        with pytest.raises(ContractViolation, match="exceeds the assisted capacity"):
            holevo_phase_encoding(energy, ch)
        assert holevo_phase_encoding(0.0, ch) == 0.0

    def test_clearly_suboptimal_at_low_noise(self):
        ch = ThermalLossChannel(0.8, 0.01)
        chi = holevo_phase_encoding(0.001, ch)
        ea = ea_capacity(ch, 0.001)
        assert (ea - chi) / ea > 0.01


def _cli_json(argv, capsys):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _chi_rows(n_b, modes, capsys):
    """chi at full precision, and ``phase-encoding -m``'s bounds per m."""
    rep = _cli_json(["phase-encoding", "-k", "0.8", "--nb", str(n_b),
                     "-E", "0.001", "-m", modes], capsys)
    chi = holevo_phase_encoding(0.001, ThermalLossChannel(0.8, n_b))
    return chi, rep["with_dephasing"]


class TestHolevoWithDephasing:
    def test_shares_the_total_count_penalty(self, capsys):
        chi, (row,) = _chi_rows(10.0, "1e4", capsys)
        assert row["chi_lb"] == pytest.approx(
            chi - entropy_total_exact(1e4, 0.001) / 1e4, rel=1e-12)

    def test_asym_variant(self, capsys):
        chi, rows = _chi_rows(10.0, "1e1:1e6:5/dec", capsys)
        assert rows[-1]["m"] == pytest.approx(1e6, rel=1e-12)
        assert rows[-1]["chi_lb_asym"] == pytest.approx(
            chi - entropy_total_asym(1e6, 0.001) / 1e6, rel=1e-12)
        assert math.isnan(rows[0]["chi_lb_asym"])

    @pytest.mark.parametrize("n_b", [10.0, 0.01])
    def test_never_exceeds_the_assisted_lower_bound(self, n_b, capsys):
        _, rows = _chi_rows(n_b, "1e1:1e7:1/dec", capsys)
        recs = _cli_json(["bounds", "-k", "0.8", "--nb", str(n_b), "-E", "0.001",
                          "-m", "1e1:1e7:1/dec", "--format", "json"], capsys)
        assert len(rows) == len(recs) == 7
        for row, rec in zip(rows, recs):
            assert row["m"] == rec["m"]
            assert row["chi_lb"] <= rec["lower"] + 1e-9

    def test_penalty_vanishes_at_huge_mode_counts(self, capsys):
        chi, (row,) = _chi_rows(10.0, "1e8", capsys)
        assert row["chi_lb"] == pytest.approx(chi, abs=1e-3)

    def test_nothing_is_encoded_at_zero_energy(self):
        assert holevo_phase_encoding(0.0, ThermalLossChannel(0.8, 1.0)) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kappa=hst.floats(0.05, 1.0, exclude_min=True), n_b=hst.floats(0.0, 10.0),
       log_energy=hst.floats(-3.0, math.log10(3.0)))
def test_rate_lies_between_zero_and_the_assisted_capacity(kappa, n_b, log_energy):
    energy = 10.0 ** log_energy
    ch = ThermalLossChannel(kappa, 0.0 if kappa == 1.0 else n_b)
    chi = holevo_phase_encoding(energy, ch)
    ea = ea_capacity(ch, energy)
    assert 0.0 <= chi <= ea + 1e-12 * max(1.0, ea)
