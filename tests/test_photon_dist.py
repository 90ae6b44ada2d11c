"""The certified window builder shared by the total-photon-number laws."""

import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from reference_laws import (
    negative_binomial,
    negative_binomial_outside,
    negative_binomial_sides,
    optimal_outside,
    scipy_energy,
)

from dephcap.bounds import _negative_binomial_law, thermal_total_photon_dist
from dephcap.dephasing_exact import _optimal_law, solve_dephasing
from dephcap.errors import SolverError
from dephcap.photon_dist import _MAX_ALLOWANCE, _geometric_tail, build_from_log_pmf


def _assert_tight(law, window):
    """One step inward from each edge other than n = 0, the tail rule fails."""
    lo, hi = window.offset, window.cutoff
    if hi > 0:
        assert _geometric_tail(math.exp(sum(law.log_pmf(hi - 1))), law.ratio(hi - 1)) is None
    if lo > 0:
        assert _geometric_tail(math.exp(sum(law.log_pmf(lo + 1))), 1.0 / law.ratio(lo)) is None


class TestOffsetWindow:
    def test_law_near_the_vacuum_starts_at_zero(self):
        assert thermal_total_photon_dist(100.0, 0.3).offset == 0

    def test_far_law_is_windowed_around_its_mean(self):
        m, energy = 1e6, 1.0
        window = thermal_total_photon_dist(m, energy)
        sd = math.sqrt(m * energy * (energy + 1.0))
        assert 0 < window.offset < m * energy - 6.0 * sd
        assert window.cutoff > m * energy + 6.0 * sd
        assert window.cutoff - window.offset + 1 < 15.0 * sd

    def test_both_tails_are_certified(self):
        m, energy = 1e6, 1.0
        window = thermal_total_photon_dist(m, energy)
        assert window.tail_bound <= 1e-12
        assert negative_binomial_outside(m, energy, window.offset, window.cutoff) <= (
            window.tail_bound)
        edges = negative_binomial(m, energy, window.offset, window.cutoff)[[0, -1]]
        assert edges.max() < 1e-14

    def test_heavy_tail_widens_the_window(self):
        # m = 1 is geometric: the mass beyond n is (E/(E+1))^(n+1)
        window = thermal_total_photon_dist(1.0, 30.0)
        assert window.offset == 0
        assert (30.0 / 31.0) ** (window.cutoff + 1) <= 5e-13 < (30.0 / 31.0) ** window.cutoff
        assert window.tail_bound <= 1e-12


class TestRefusals:
    def test_edge_past_two_to_the_53_is_a_solver_error(self):
        # a geometric law of mean 1e15 needs a cutoff near 2.8e16
        with pytest.raises(SolverError, match=r"edge past 2\^53"):
            thermal_total_photon_dist(1.0, 1e15)

    def test_allowance_past_its_cap_is_a_solver_error(self):
        # edges near 1e15, where lgamma's rounding is worth more than e^4 in P(n)
        with pytest.raises(SolverError, match="rounding allowance above 4.0"):
            thermal_total_photon_dist(1e7, 1e8)


class TestTailRule:
    """A side is short while r >= 1 or its mass bound exceeds half of 1e-12."""

    @pytest.mark.parametrize("p, ratio, mass", [
        (1e-13, 0.5, 1e-13),
        (1e-13, 0.6, 1.5e-13),
        (0.0, 0.9, 0.0)])  # an edge term that underflowed
    def test_tail_within_the_budget_is_certified(self, p, ratio, mass):
        assert _geometric_tail(p, ratio) == pytest.approx(mass, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p, ratio", [
        (1e-12, 0.5),  # mass over half of 1e-12
        (1e-20, 1.0)])  # not past the mode
    def test_short_side(self, p, ratio):
        assert _geometric_tail(p, ratio) is None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(log_m=hst.floats(0.0, 7.0),
       energy=hst.one_of(hst.just(0.0), hst.floats(-6.0, 6.0).map(lambda x: 10.0 ** x)))
@example(log_m=0.0, energy=1e6)
@example(log_m=7.0, energy=1e-3)
@example(log_m=math.log10(3.0), energy=1e5)
def test_negative_binomial_windows_hold_their_certificate(log_m, energy):
    # the law scipy reads from p = 1/(E+1), so both sides sum the same law
    m, energy = 10.0 ** log_m, scipy_energy(energy) if energy else 0.0
    window = thermal_total_photon_dist(m, energy)
    left, right = negative_binomial_sides(m, energy, window.offset, window.cutoff)
    assert left + right <= window.tail_bound <= 1e-12
    assert left <= 5e-13 and right <= 5e-13
    _assert_tight(_negative_binomial_law(m, energy), window)


@pytest.mark.parametrize("m, energy", [(1, 1.0), (20, 1.0), (2, 100.0), (200, 1.0),
                                       (5000, 10.0)])
def test_optimal_law_windows_hold_their_certificate(m, energy):
    # against the law's entries at 30 digits; (5000, 10) is the benchmark's point
    sol = solve_dephasing(m, energy)
    window = sol.window()
    assert optimal_outside(m, sol.lambda1, window.offset, window.cutoff) <= (
        window.tail_bound) <= 1e-12
    _assert_tight(_optimal_law(m, sol.lambda1, sol.log_s0), window)


def _log_binomial(n, m):
    return mp.loggamma(n + m) - mp.loggamma(m) - mp.loggamma(n + 1)


def _assert_edges_within_allowance(law, window, exact):
    for n in (window.offset, window.cutoff):
        value, allowance = law.log_pmf(n)
        assert allowance <= _MAX_ALLOWANCE
        with mp.workdps(40):
            assert abs(mp.mpf(value) - exact(n)) <= allowance


@pytest.mark.parametrize("m", [1.0, 2.0, 1e3, 1e7])
@pytest.mark.parametrize("energy", [1e-3, 1.0, 1e3, 1e6])
def test_negative_binomial_edges_are_within_their_allowance(m, energy):
    law = _negative_binomial_law(m, energy)
    e = mp.mpf(energy)
    _assert_edges_within_allowance(
        law, build_from_log_pmf(law),
        lambda n: _log_binomial(n, mp.mpf(m)) + n * mp.log(e) - (n + m) * mp.log1p(e))


@pytest.mark.parametrize("m, energy", [
    (m, energy) for m in (1, 2, 1000) for energy in (1e-3, 1.0, 1e3)] + [(1, 1e6), (2, 1e6)])
def test_optimal_law_edges_are_within_their_allowance(m, energy):
    # the allowance also covers ln S0 as the lambda solve's series gives it
    sol = solve_dephasing(m, energy)
    lam = mp.mpf(sol.lambda1)
    with mp.workdps(40):
        log_s0 = mp.log(mp.hyp2f1(m, m, 1, lam))
    _assert_edges_within_allowance(
        _optimal_law(m, sol.lambda1, sol.log_s0), sol.window(),
        lambda n: 2 * _log_binomial(n, m) + n * mp.log(lam) - log_s0)
