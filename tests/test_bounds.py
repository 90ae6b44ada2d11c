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
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from reference_laws import (
    negative_binomial,
    negative_binomial_entropy,
    negative_binomial_outside,
    scipy_energy,
)

from dephcap import bounds, cli
from dephcap.bounds import (
    entropy_total_asym,
    entropy_total_exact,
    thermal_total_photon_dist,
)
from dephcap.dephasing_exact import solve_dephasing
from dephcap.errors import SolverError
from dephcap.scalar_math import LN2, thermal_entropy_g
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
# H(NB(m, E)) in bits, from _mp_entropy at 60 digits with its reach raised to
# 60: at m = 1 it is g(E) to 1.3e-27
ENTROPY_LARGE_E_REFS = {
    (1, 3e5): 19.63730042053599449007389887003262078128,
    (1, 1e6): 21.37426433156041749001028793333945336271,
    (3, 1e9): 32.56284520926134295208929323598851382121,
}
ENTROPY_ASYM_1E5 = 5.369744667154956690786
LOWER_M20_LOSSLESS = 3.765984257119098704468
EA_08_10_0001 = 0.0007394223764090147909
EA_08_1_0001 = 0.004522904519812368671714

GAUSS_FLOOR = 2.0 * math.pi * math.e  # variance below 1/(2 pi e) has no bits
# large-m limit of the optimal input's block advantage over the TMSV bound
ADVANTAGE_LIMIT = 0.5 * math.log2(math.e / 2.0)


class TestTotalPhotonLaw:
    def test_single_mode_is_geometric(self):
        # q = 1/2: the mass beyond n is 2^-(n+1), first below 5e-13 at n = 40
        window = thermal_total_photon_dist(1, 1.0)
        assert (window.offset, window.cutoff) == (0, 40)
        assert window.tail_bound == pytest.approx(0.5 ** 41, rel=1e-13)

    def test_zero_probability_of_vacuum_two_modes(self):
        window = thermal_total_photon_dist(2, 1.0)
        law = negative_binomial(2, 1.0, window.offset, window.cutoff)
        assert window.offset == 0
        assert law[0] == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("n, want", sorted(NB_SPOT_REFS.items()))
    def test_reference_entries_at_large_mode_count(self, n, want):
        # the reference the windows are tested against; every entry above the
        # 1e-12 the window may omit lies inside it, and P(0) = 3.9e-44 does not.
        # scipy's rounded p = 1/(E+1) moves P(0) = p^m by m 1.1e-16 relative
        assert negative_binomial(1e5, 0.001, n, n)[0] == pytest.approx(
            want, rel=2e-11, abs=0.0)
        window = thermal_total_photon_dist(1e5, 0.001)
        assert (window.offset <= n <= window.cutoff) == (want > 1e-12)

    @pytest.mark.parametrize("m, energy",
                             [(1, 1.0), (20, 1.0), (1e5, 0.001), (1e7, 0.001)])
    def test_mass_window(self, m, energy):
        window = thermal_total_photon_dist(m, energy)
        outside = negative_binomial_outside(m, energy, window.offset, window.cutoff)
        # m = 1 is geometric, where the bound is the omitted mass itself
        assert outside <= window.tail_bound * (1.0 + 1e-12)
        assert window.tail_bound <= 1e-12

    def test_zero_energy_is_point_mass(self):
        assert thermal_total_photon_dist(5, 0.0) == (0, 0, 0.0)

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
        # geometric laws whose windows ran to about 250 chunks at E = 3e4
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

    @pytest.mark.parametrize("energy", [1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-16, 1e-19,
                                        1e-21, 1e-300])
    def test_single_mode_matches_mpmath_at_small_energy(self, energy):
        # the law is geometric with P(0) = 1/(1+E), a mass within E of 1;
        # below E = 1e-20 the closed form mE (1 - ln mE) nats answers
        with mp.workdps(50):
            e = mp.mpf(energy)
            want = float(((e + 1) * mp.log1p(e) - e * mp.log(e)) / mp.log(2))
        assert entropy_total_exact(1, energy) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m, energy", [(1e7, 1.0), (1, 2e5)])
    def test_memory_stays_at_one_chunk(self, m, energy):
        # (1, 2e5) has a 9.6e6-term window, 77 MB as one float64 array
        tracemalloc.start()
        try:
            entropy_total_exact(m, energy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_m=hst.floats(0.0, 7.0), log_energy=hst.floats(-3.0, 1.0))
def test_streamed_entropy_matches_the_reference_law(log_m, log_energy):
    # scipy's law over all but 1e-25 of each tail, where a window leaves out
    # up to 1e-11 bits
    m, energy = 10.0 ** log_m, scipy_energy(10.0 ** log_energy)
    want = negative_binomial_entropy(m, energy)
    assert entropy_total_exact(m, energy) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestWideRoute:
    """Laws of mean mE at least 13 standard deviations above 30."""

    @pytest.mark.parametrize("m, energy", sorted(ENTROPY_WIDE_REFS))
    def test_matches_the_40_digit_trapezoid(self, m, energy):
        assert entropy_total_exact(m, energy) == pytest.approx(
            ENTROPY_WIDE_REFS[m, energy], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m, energy", sorted(ENTROPY_HUGE_E_REFS))
    def test_tails_certified_where_the_edge_ratio_rounds_to_1(self, m, energy):
        sigma = math.sqrt(m * energy * (energy + 1.0))
        edge = math.floor(m * energy + 16.0 * sigma)
        assert bounds._negative_binomial_law(m, energy).ratio(edge) == 1.0
        assert entropy_total_exact(m, energy) == pytest.approx(
            ENTROPY_HUGE_E_REFS[m, energy], rel=1e-13, abs=0.0)


def _mp_small(z, coef):
    # sum_{k=2}^{8} coef(k) z^k: the rest is below 1e-60 of it for z < 1e-10
    return z * z * mp.polyval([coef(k) for k in range(8, 1, -1)], z)


def _mp_integrand(m, energy, t):
    """F(t) of entropy_total_exact at the working precision.

    A bracket that cancels more than 10 of its digits comes from its series.
    """
    e1 = -mp.expm1(-t)
    if t < 1e-10:
        s1 = _mp_small(t, lambda k: mp.mpf(-1) ** k / mp.factorial(k))
        s2 = _mp_small(t, lambda k: mp.mpf(-1) ** k * (k - 1) / mp.factorial(k))
    else:
        s1, s2 = t - e1, e1 - t * mp.exp(-t)
    x = energy * e1
    dev = _mp_small(x, lambda k: mp.mpf(-1) ** k / k) if x < 1e-10 else x - mp.log1p(x)
    b = m * mp.log1p(x)
    b1 = -mp.expm1(-m * t) / t
    return (mp.exp(-b) * -mp.expm1(-m * (energy * s1 + dev)) * b1
            - mp.expm1(-b) * (s2 + mp.exp(-m * t) * s1) / (t * e1))


def _mp_entropy(m, energy, dps=50, reach=40.0):
    """H in bits: mp.quad of F over u = ln t, in Gauss-Legendre pieces at most 8 wide.

    The ends are -ln(m (E+1)) - reach and reach + max(0, -ln mE); each omits
    at most e^-reach of H.  F is divided by min(1, mE), which brings H to
    order 1, since mp.quad stops at an absolute error of 10^-dps.
    """
    lo = -math.log(m) - math.log1p(energy) - reach
    hi = reach + max(0.0, -math.log(m * energy))
    with mp.workdps(dps):
        m, energy = mp.mpf(m), mp.mpf(energy)
        scale = min(1, m * energy)
        nodes = mp.linspace(lo, hi, math.ceil((hi - lo) / 8.0) + 1)
        return scale * mp.quad(lambda u: _mp_integrand(m, energy, mp.exp(u)) / scale, nodes,
                               method="gauss-legendre") / mp.log(2)


_BOUND_LAWS = [(1, 1.0), (18, 1.0), (1e7, 1e-3), (1e6, 10.0), (1e3, 1e100), (1e7, 1e-27)]


class TestIntegral:
    @pytest.mark.parametrize("m, energy", [(18, 1.0), (2.5, 0.3), (1, 1e-3), (40, 1e-6)])
    def test_reference_integral_matches_the_direct_sum(self, m, energy):
        # -sum P ln P over n < 400 at 50 digits, the entropy _mp_entropy stands for;
        # a reach of 80 omits less than 2e-35 of it
        with mp.workdps(50):
            mm, e = mp.mpf(m), mp.mpf(energy)
            log_p = [mp.loggamma(n + mm) - mp.loggamma(mm) - mp.loggamma(n + 1)
                     + n * mp.log(e) - (n + mm) * mp.log1p(e) for n in range(400)]
            want = -mp.fsum(mp.exp(lp) * lp for lp in log_p) / mp.log(2)
            assert abs(_mp_entropy(m, energy, reach=80.0) / want - 1) < 1e-30

    def test_no_law_is_scanned(self, monkeypatch):
        monkeypatch.setattr(bounds, "build_from_log_pmf", None)  # calling it fails
        entropy_total_exact([1, 18, 1e5, 1e7], 1e-3)

    def test_narrow_scan_at_m_18_matches_the_direct_sum(self):
        # the scan that narrow laws took read 4.601135042818614, 3.4e-13 low
        assert entropy_total_exact(18, 1.0) == pytest.approx(
            ENTROPY_M18_E1, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m, energy", sorted(ENTROPY_LARGE_E_REFS))
    def test_laws_beyond_the_scan_cap(self, m, energy):
        # windows of more than the scan's 1e7 terms
        got = entropy_total_exact(m, energy)
        assert got == pytest.approx(ENTROPY_LARGE_E_REFS[m, energy], rel=1e-13, abs=0.0)
        if m == 1:
            assert got == pytest.approx(thermal_entropy_g(energy), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m, energy", [(1e6, 10.0), (18, 1.0), (1e7, 1e-3), (1, 1e-19)])
    def test_a_coarse_step_fails_the_guard(self, m, energy, monkeypatch):
        # a step of 1/2 misses Frullani's integral by 1e-11 to 1e-9 relative
        monkeypatch.setattr(bounds, "_STEP", 0.5)
        with pytest.raises(SolverError, match="total-count integral reads"):
            entropy_total_exact(m, energy)

    @pytest.mark.parametrize("m, energy", [(1e6, 10.0), (18, 1.0), (1e7, 1e-3), (1, 1e-19)])
    def test_an_offset_integrand_fails_the_guard(self, m, energy, monkeypatch):
        # both integrands with their logs offset by 1e-11
        integrands = bounds._integrands
        monkeypatch.setattr(bounds, "_integrands", lambda *args: [
            v * math.exp(1e-11) for v in integrands(*args)])
        with pytest.raises(SolverError, match="total-count integral reads"):
            entropy_total_exact(m, energy)

    @pytest.mark.parametrize("m, energy", _BOUND_LAWS)
    @pytest.mark.parametrize("step", [0.5, 0.75, 1.0])
    def test_a_coarse_step_stays_within_its_stated_error(self, m, energy, step,
                                                         monkeypatch):
        # about exp(-pi^2/h) of H, times a constant that 150 random laws kept
        # below 13 for h from 0.4 to 1; the step of 1/4 is the reference
        want = entropy_total_exact(m, energy)
        monkeypatch.setattr(bounds, "_STEP", step)
        monkeypatch.setattr(bounds, "_GUARD_RTOL", math.inf)  # it refuses most
        got = entropy_total_exact(m, energy)
        assert abs(got - want) <= 20.0 * math.exp(-math.pi ** 2 / step) * want

    @pytest.mark.parametrize("m, energy", _BOUND_LAWS)
    @pytest.mark.parametrize("reach", [6.0, 10.0])
    def test_short_ends_stay_within_their_stated_error(self, m, energy, reach,
                                                       monkeypatch):
        # F <= 1/t and F <= mEt + m^2 E(E+1) t^2/2 bound what each end omits;
        # the reach of 38 is the reference
        want = entropy_total_exact(m, energy)
        monkeypatch.setattr(bounds, "_REACH", reach)
        monkeypatch.setattr(bounds, "_GUARD_RTOL", math.inf)  # it refuses most
        got = entropy_total_exact(m, energy)
        omitted = math.exp(-reach) * (min(1.0, m * energy) + energy / (energy + 1.0)
                                      * (1.0 + math.exp(-reach) / 4.0)) / LN2
        assert 0.0 <= want - got <= omitted

    def test_nodes_below_the_normal_floats_are_refused(self):
        # m (E+1) above e^662 would put the left end below t = e^-700
        with pytest.raises(SolverError, match=r"nodes below t = e\^-700"):
            entropy_total_exact([18, 1e300], 1.0)

    def test_tiny_mean_takes_the_closed_form(self, monkeypatch):
        monkeypatch.setattr(bounds, "_entropy_block", None)  # calling it fails
        for m, energy in [(1, 5e-324), (3, 1e-100), (1e7, 1e-28)]:
            mean = m * energy
            assert entropy_total_exact(m, energy) == mean * (1.0 - math.log(mean)) / LN2


@settings(max_examples=10, deadline=None, derandomize=True)
@given(log_m=hst.floats(0.0, 7.0), log_energy=hst.floats(-300.0, 150.0))
@example(log_m=0.0, log_energy=-19.99)
@example(log_m=7.0, log_energy=-27.01)
def test_integral_matches_mpmath(log_m, log_energy):
    # log-uniform m and E, and both sides of mE = 1e-20, below which the
    # closed form answers, whose omitted terms are O(mE) relative
    m, energy = 10.0 ** log_m, 10.0 ** log_energy
    want = _mp_entropy(m, energy)
    assert entropy_total_exact(m, energy) == pytest.approx(float(want), rel=1e-13, abs=0.0)


_SHUFFLED = np.random.default_rng(0).permutation(np.geomspace(1.0, 1e7, 120)).tolist()


class TestBatch:
    """A sequence of m gives, bit for bit, what its members give one at a time."""

    @pytest.mark.parametrize("energy, grid", [
        (1e-3, np.geomspace(1.0, 1e7, 150)),  # three blocks
        (1.0, np.geomspace(1.0, 1e7, 150)),
        (1.0, _SHUFFLED),  # short and long node ranges interleaved
        (10.0, np.geomspace(1e3, 1e7, 200)),
        (1e14, [200.0, 1e4, 1e7]),
        (1e100, np.geomspace(200.0, 1e7, 70)),
        (1.0, [1e7]),
        (1.0, [18]),
        (1e-22, _SHUFFLED),  # closed-form and integrated members interleaved
    ], ids=["E1e-3", "E1", "E1-shuffled", "E10", "E1e14", "E1e100", "one-wide",
            "one-narrow", "E1e-22-shuffled"])
    def test_batch_equals_single_points(self, energy, grid):
        grid = list(grid)
        assert entropy_total_exact(grid, energy) == [
            entropy_total_exact(m, energy) for m in grid]

    def test_empty_batch(self):
        assert entropy_total_exact([], 1.0) == []

    def test_laws_run_in_blocks(self, monkeypatch):
        blocks, block = [], bounds._entropy_block
        monkeypatch.setattr(bounds, "_entropy_block",
                            lambda m, energy: blocks.append(len(m)) or block(m, energy))
        entropy_total_exact(np.geomspace(1.0, 1e7, 150), 1.0)
        assert blocks == [bounds._BLOCK_ROWS] * 2 + [150 - 2 * bounds._BLOCK_ROWS]

    @pytest.mark.parametrize("bad", [0.5, math.nan, math.inf])
    def test_a_bad_member_fails_before_any_law(self, bad, monkeypatch):
        with pytest.raises(ValueError) as single:
            entropy_total_exact(bad, 1.0)
        monkeypatch.setattr(bounds, "_entropy_block", None)  # calling it fails
        with pytest.raises(ValueError) as batch:
            entropy_total_exact([18, 1e7, bad, 1e3], 1.0)
        assert str(batch.value) == str(single.value)
        assert str(single.value).endswith(f"got {bad}")

    def test_memory_stays_at_one_block(self):
        # 5000 laws in blocks of 64 peak at 2.1 MB; as one array of 5000 rows
        # they would take 15 MB per array
        grid = np.geomspace(1e3, 1e7, 5000)
        tracemalloc.start()
        try:
            entropy_total_exact(grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


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
