"""Total-photon-number law of iid thermal blocks and the capacity bounds.

A dephased lower bound per mode is ea_capacity - H(N_total)/m; the
``bounds`` command forms it, and its JSON records are checked here.

Reference constants were evaluated with mpmath at 50 significant digits.
"""

import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from dephcap import bounds, cli
from dephcap.bounds import (
    entropy_total_asym,
    entropy_total_exact,
    thermal_total_photon_dist,
)
from dephcap.dephasing_exact import solve_dephasing
from dephcap.errors import SolverError
from dephcap.photon_dist import scan_from_ratios
from dephcap.scalar_math import LN2, thermal_entropy_g
from dephcap.special_math import shannon_entropy
from dephcap.thermal_loss import ThermalLossChannel, ea_capacity, hsw_capacity

# Law of the summed photon number at m=1e5, E=0.001.
NB_SPOT_REFS = {
    0: 3.910678089496651229596e-44,
    50: 1.238204994566478356975e-8,
    100: 0.03984108121300295999334,
    150: 6.588025574380207688662e-7,
}
ENTROPY_M20_E1 = 4.680314857618025910646
# entropy_total_exact(m, 1) as computed by the full-support law from n = 0
# (before the law was windowed around its mode)
ENTROPY_E1_FULL_SUPPORT = {
    1e3: 7.529446461024764,
    1e5: 10.851910412267099,
    1e7: 14.173843863185342,
}
# H(NB(m, E)) in bits of wide laws, at 40 digits, from a trapezoid of the
# continuous law (its mass is 1 to 1e-33):
#
#     mp.mp.dps = 40
#     m, e = mp.mpf(m), mp.mpf(energy)
#     mean, sigma = m * e, mp.sqrt(m * e * (e + 1))
#     h = sigma / 10
#     c = m * mp.log(1 / (e + 1)) - mp.loggamma(m)
#     ent = 0
#     for j in range(-140, 181):  # [-14 sigma, +18 sigma]
#         t = mean + j * h
#         lp = mp.loggamma(t + m) - mp.loggamma(t + 1) + c + t * mp.log(e / (e + 1))
#         ent -= h * mp.exp(lp) * lp
#     ent / mp.log(2)
ENTROPY_WIDE_REFS = {
    (5896.812405806846, 351.8582591889659): 16.77077158913742939465912,
    (10**2.5, 100.0): 12.84901756532059357338662,
    (1e6, 10.0): 15.40355924461363778133064,
    (1e7, 1.0): 14.17384386318534273213876,
}
# the same trapezoid at laws whose edge term ratios round to 1, with mp.mp.dps
# raised to 70 at E = 1e14 and 150 at E = 1e100, so that 40 digits survive
# the difference of two log-gammas near mE ln(mE) (mass 1 to 1e-44)
ENTROPY_HUGE_E_REFS = {
    (1e7, 1e14): 60.18083719761965350536273,
    (1e3, 1e100): 339.2223161976603517903568,
}
# H(NB(18, 1)) at 40 digits, by direct summation over n < 2000
ENTROPY_M18_E1 = 4.6011350428202001866
ENTROPY_ASYM_1E5 = 5.369744667154956690786
LOWER_M20_LOSSLESS = 3.765984257119098704468
EA_08_10_0001 = 0.0007394223764090147909
EA_08_1_0001 = 0.004522904519812368671714

GAUSS_FLOOR = 2.0 * math.pi * math.e  # variance below 1/(2 pi e) has no bits
# large-m limit of the optimal input's block advantage over the TMSV bound
ADVANTAGE_LIMIT = 0.5 * math.log2(math.e / 2.0)


class TestTotalPhotonLaw:
    def test_single_mode_is_geometric(self):
        dist = thermal_total_photon_dist(1, 1.0)
        n = np.arange(40)
        np.testing.assert_allclose(dist.probs[:40], 0.5 ** (n + 1), rtol=1e-13)

    def test_zero_probability_of_vacuum_two_modes(self):
        dist = thermal_total_photon_dist(2, 1.0)
        assert dist.probs[0] == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("n, want", sorted(NB_SPOT_REFS.items()))
    def test_reference_entries_at_large_mode_count(self, n, want):
        dist = thermal_total_photon_dist(1e5, 0.001)
        assert dist.probs[n] == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("m, energy", [(7, 0.3), (1e5, 0.001), (2.5, 0.3)])
    def test_moments(self, m, energy):
        dist = thermal_total_photon_dist(m, energy)
        assert dist.mean() == pytest.approx(m * energy, rel=1e-9)
        assert dist.variance() == pytest.approx(
            m * energy * (energy + 1.0), rel=1e-9)

    @pytest.mark.parametrize("m, energy",
                             [(1, 1.0), (20, 1.0), (1e5, 0.001), (1e7, 0.001)])
    def test_mass_window(self, m, energy):
        dist = thermal_total_photon_dist(m, energy)
        total = dist.probs.sum()
        assert total <= 1.0 + 1e-12
        assert total + dist.tail_bound >= 1.0 - 1e-12
        assert dist.tail_bound <= 1e-12

    def test_zero_energy_is_point_mass(self):
        dist = thermal_total_photon_dist(5, 0.0)
        assert dist.probs[0] == 1.0

    @pytest.mark.parametrize("m", [0.5, 0.0, -3])
    def test_mode_count_below_one_rejected(self, m):
        with pytest.raises(ValueError):
            thermal_total_photon_dist(m, 1.0)


class TestEntropyExact:
    def test_single_mode_matches_thermal_entropy(self):
        assert entropy_total_exact(1, 1.0) == pytest.approx(2.0, abs=1e-10)
        for energy in (0.1, 10.0):
            assert entropy_total_exact(1, energy) == pytest.approx(
                thermal_entropy_g(energy), rel=1e-10)

    @pytest.mark.parametrize("energy", [1e2, 1e3, 1e4, 3e4])
    def test_many_chunk_walks_match_thermal_entropy(self, energy):
        # the geometric law's window runs to about 250 chunks at E = 3e4
        with mp.workdps(50):
            e = mp.mpf(energy)
            want = (e + 1) * mp.log(e + 1, 2) - e * mp.log(e, 2)
        assert entropy_total_exact(1, energy) == pytest.approx(float(want), rel=2e-13)

    def test_reference_value(self):
        assert entropy_total_exact(20, 1.0) == pytest.approx(
            ENTROPY_M20_E1, rel=1e-12)

    def test_zero_energy(self):
        assert entropy_total_exact(5, 0.0) == 0.0

    @pytest.mark.parametrize("m", sorted(ENTROPY_E1_FULL_SUPPORT))
    def test_window_keeps_the_full_support_entropy(self, m):
        assert entropy_total_exact(m, 1.0) == pytest.approx(
            ENTROPY_E1_FULL_SUPPORT[m], abs=1e-10)

    @pytest.mark.parametrize("energy", [1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-16])
    def test_single_mode_matches_mpmath_at_small_energy(self, energy):
        # the law is geometric with P(0) = 1/(1+E), a mass within E of 1
        # that must not be rounded to 1 before its -p log p is taken
        with mp.workdps(50):
            e = mp.mpf(energy)
            want = float(((e + 1) * mp.log1p(e) - e * mp.log(e)) / mp.log(2))
        assert entropy_total_exact(1, energy) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m, energy", [(1e7, 1.0), (1, 2e5)])
    def test_memory_stays_at_one_chunk(self, m, energy):
        # (1, 2e5) sums a 9.6e6-term window, 77 MB as one float64 array
        tracemalloc.start()
        try:
            entropy_total_exact(m, energy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_m=hst.floats(0.0, 7.0), log_energy=hst.floats(-3.0, 1.0))
def test_streamed_entropy_matches_the_materialized_law(log_m, log_energy):
    m, energy = 10.0 ** log_m, 10.0 ** log_energy
    want = shannon_entropy(thermal_total_photon_dist(m, energy))
    assert entropy_total_exact(m, energy) == pytest.approx(want, rel=1e-13, abs=0.0)


def _is_wide(m, energy):
    return m * energy - 13.0 * math.sqrt(m * energy * (energy + 1.0)) >= 30.0


@pytest.fixture
def scan_calls(monkeypatch):
    """The term ratio of each law that entropy_total_exact sends to the scan."""
    calls = []

    def scan(ratio):
        calls.append(ratio)
        return scan_from_ratios(ratio)

    monkeypatch.setattr(bounds, "scan_from_ratios", scan)
    return calls


class TestWideRoute:
    @pytest.mark.parametrize("m, energy", sorted(ENTROPY_WIDE_REFS))
    def test_matches_the_40_digit_trapezoid(self, m, energy):
        assert _is_wide(m, energy)
        assert entropy_total_exact(m, energy) == pytest.approx(
            ENTROPY_WIDE_REFS[m, energy], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m, energy", sorted(ENTROPY_HUGE_E_REFS))
    def test_tails_certified_where_the_edge_ratio_rounds_to_1(self, m, energy):
        sigma = math.sqrt(m * energy * (energy + 1.0))
        edge = math.floor(m * energy + 16.0 * sigma)
        assert bounds._negative_binomial_ratio(m, energy)(edge) == 1.0
        assert entropy_total_exact(m, energy) == pytest.approx(
            ENTROPY_HUGE_E_REFS[m, energy], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m, energy", [(1e6, 10.0), (1e7, 1.0), (1e7, 1e-3)])
    def test_wide_law_runs_no_scan(self, m, energy, scan_calls):
        entropy_total_exact(m, energy)
        assert scan_calls == []

    @pytest.mark.parametrize("m, energy", [(18, 1.0), (1e5, 1e-3)])
    def test_narrow_law_keeps_the_scan(self, m, energy, scan_calls):
        assert not _is_wide(m, energy)
        entropy_total_exact(m, energy)
        assert len(scan_calls) == 1

    @pytest.mark.parametrize("m, energy", [(1e6, 10.0), (1e4, 1.0), (1e7, 1e-3)])
    def test_a_coarse_step_fails_the_mass_guard(self, m, energy, monkeypatch):
        # a step of sigma aliases 4e-9 to 7e-9 of mass into the trapezoid
        assert _is_wide(m, energy)
        monkeypatch.setattr(bounds, "_NODES_PER_SIGMA", 1)
        with pytest.raises(SolverError, match="trapezoid mass"):
            entropy_total_exact(m, energy)

    @pytest.mark.parametrize("m, energy", [(1e6, 10.0), (1e4, 1.0), (1e7, 1e-3)])
    def test_an_offset_log_pmf_fails_the_mass_guard(self, m, energy, monkeypatch):
        assert _is_wide(m, energy)
        log_pmf = bounds._log_nb_pmf
        monkeypatch.setattr(bounds, "_log_nb_pmf",
                            lambda *args: log_pmf(*args) + 1e-11)
        with pytest.raises(SolverError, match="trapezoid mass"):
            entropy_total_exact(m, energy)

    @pytest.mark.xfail(strict=True, reason=(
        "a narrow law's scan may omit 1e-11 bits of tail entropy and reads "
        "4.601135042818614, 3.4e-13 low (ROADMAP item 2)"))
    def test_narrow_scan_at_m_18_matches_the_direct_sum(self):
        assert entropy_total_exact(18, 1.0) == pytest.approx(
            ENTROPY_M18_E1, rel=1e-14, abs=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_m=hst.floats(0.0, 7.0), log_energy=hst.floats(-3.0, 3.0))
def test_wide_route_matches_the_scan(log_m, log_energy):
    # log-uniform m and E; wide laws whose scan stays below 2e5 terms
    m, energy = 10.0 ** log_m, 10.0 ** log_energy
    assume(_is_wide(m, energy) and 24.0 * math.sqrt(m * energy * (energy + 1.0)) <= 2e5)
    want = scan_from_ratios(bounds._negative_binomial_ratio(m, energy)).entropy
    assert bounds._entropy_wide(m, energy)[0] == pytest.approx(want, rel=1e-13, abs=0.0)


class TestEntropyAsym:
    def test_reference_value(self):
        assert entropy_total_asym(1e5, 0.001) == pytest.approx(
            ENTROPY_ASYM_1E5, rel=1e-13)

    def test_nan_below_the_gaussian_floor(self):
        assert math.isnan(entropy_total_asym(1, 0.001))

    def test_zero_exactly_at_the_floor(self):
        energy = 0.001
        m = 1.0 / (GAUSS_FLOOR * energy * (energy + 1.0))
        assert entropy_total_asym(m, energy) == pytest.approx(0.0, abs=1e-12)

    def test_agreement_with_exact_improves_with_mode_count(self):
        rel = [abs(entropy_total_exact(m, 0.001) - entropy_total_asym(m, 0.001))
               / entropy_total_exact(m, 0.001) for m in (1e4, 1e6)]
        assert rel[0] < 0.01
        assert rel[1] < rel[0]


def _bounds_records(n_b, modes, capsys, kappa=0.8, energy=0.001):
    """The ``bounds`` command's JSON records, at 12 significant digits."""
    rc = cli.main(["bounds", "-k", str(kappa), "--nb", str(n_b),
                   "-E", str(energy), "-m", modes, "--format", "json"])
    assert rc == 0
    return json.loads(capsys.readouterr().out)


def _lower(m, ch, energy):
    return ea_capacity(ch, energy) - entropy_total_exact(m, energy) / m


class TestCapacityBounds:
    def test_upper_bound_is_the_dephasing_free_capacity(self, capsys):
        (rec,) = _bounds_records(10.0, "1e5", capsys)
        assert rec["upper"] == pytest.approx(EA_08_10_0001, rel=1e-12)

    def test_lossless_reference_value(self):
        got = _lower(20, ThermalLossChannel(1.0, 0.0), 1.0)
        assert got == pytest.approx(LOWER_M20_LOSSLESS, rel=1e-12)

    def test_lower_bound_identity(self, capsys):
        (rec,) = _bounds_records(10.0, "1e5", capsys)
        want = EA_08_10_0001 - entropy_total_exact(1e5, 0.001) / 1e5
        assert rec["lower"] == pytest.approx(want, rel=1e-10)

    def test_asym_lower_bound_closed_form(self, capsys):
        (rec,) = _bounds_records(1.0, "1e6", capsys)
        want = EA_08_1_0001 - 0.5 * math.log2(
            GAUSS_FLOOR * 1e6 * 0.001 * 1.001) / 1e6
        assert rec["lower_asym"] == pytest.approx(want, rel=1e-10)

    def test_asym_lower_bound_inherits_nan(self, capsys):
        (rec,) = _bounds_records(10.0, "10", capsys)
        assert math.isnan(rec["entropy_asym"]) and math.isnan(rec["lower_asym"])
        assert math.isfinite(rec["lower"])

    def test_gap_closes_at_huge_mode_counts(self):
        ch = ThermalLossChannel(0.8, 10.0)
        gap = ea_capacity(ch, 0.001) - _lower(1e8, ch, 0.001)
        assert 0.0 < gap < 1e-3

    @pytest.mark.parametrize("n_b", [10.0, 1.0, 0.1, 0.01])
    def test_bound_ordering(self, n_b, capsys):
        recs = _bounds_records(n_b, "1e1:1e7:1/dec", capsys)
        assert [r["m"] for r in recs] == pytest.approx(
            [10.0**exp for exp in range(1, 8)], rel=1e-12)
        for rec in recs:
            assert rec["lower"] <= rec["upper"] + 1e-12
            if not math.isnan(rec["lower_asym"]):
                assert rec["lower_asym"] <= rec["upper"] + 1e-12

    def test_scaled_gap_varies_slowly(self):
        # m (upper - lower) / log2(m) should drift, not jump, across decades.
        ch = ThermalLossChannel(0.8, 10.0)
        upper = ea_capacity(ch, 0.001)
        vals = [m * (upper - _lower(m, ch, 0.001)) / math.log2(m)
                for m in (1e5, 1e6, 1e7)]
        assert all(0.1 < v < 10.0 for v in vals)
        assert all(0.9 < b / a < 1.3 for a, b in zip(vals, vals[1:]))


class TestBoundsRecords:
    def test_fields(self, capsys):
        ch = ThermalLossChannel(0.8, 10.0)
        (rec,) = _bounds_records(10.0, "1e5", capsys)
        assert list(rec) == ["m", "kappa", "n_b", "energy", "upper", "lower",
                             "lower_asym", "entropy_exact", "entropy_asym",
                             "baseline"]
        assert (rec["m"], rec["kappa"], rec["n_b"], rec["energy"]) == (
            1e5, 0.8, 10.0, 0.001)
        # each printed value carries up to 5e-13 relative of rounding
        assert rec["baseline"] == pytest.approx(hsw_capacity(ch, 0.001), rel=1e-12)
        assert rec["lower"] == pytest.approx(
            rec["upper"] - rec["entropy_exact"] / rec["m"], rel=2e-12)

    def test_mode_count_below_one_rejected(self, capsys):
        assert cli.main(["bounds", "-k", "0.8", "--nb", "10", "-E", "0.001",
                         "-m", "0.5"]) == 1
        assert "mode count must be >= 1" in capsys.readouterr().err
        with pytest.raises(ValueError):
            entropy_total_exact(0.5, 0.001)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(log_m=hst.floats(3.0, 6.0), log_energy=hst.floats(-3.0, 2.0))
def test_block_advantage_approaches_its_large_m_limit(log_m, log_energy):
    # A = capacity - [2 m g(E) - H(NB(m, E))], the exact solve's advantage over
    # the bound fig2 prints as lower_bound_ratio, obeys
    # m (ADVANTAGE_LIMIT - A) = c(E) + O(1/m), c(E) = [5/24 + 1/(12 E (E+1))]/ln 2
    # (fitted, not derived).  K(E) = 0.12 (1 + 1/E^2) is twice the largest
    # m |m (ADVANTAGE_LIMIT - A) - c| seen over 300 draws; R = 4 ulps of the
    # block's 2 m g(E) bits bounds A's rounding (at most 0.8 ulp seen).
    # Below E = 0.01 the expansion starts at m ~ 1e5, so m is drawn from there.
    energy = 10.0 ** log_energy
    m = int(10.0 ** (5.0 + (log_m - 3.0) / 3.0 if energy < 0.01 else log_m))
    block = 2.0 * m * thermal_entropy_g(energy)
    advantage = solve_dephasing(m, energy).capacity - (
        block - entropy_total_exact(m, energy))
    c = (5.0 / 24.0 + 1.0 / (12.0 * energy * (energy + 1.0))) / LN2
    k = 0.12 * (1.0 + energy ** -2)
    rounding = 4.0 * 2.0 ** -52 * block
    assert abs(m * (ADVANTAGE_LIMIT - advantage) - c) <= k / m + m * rounding
