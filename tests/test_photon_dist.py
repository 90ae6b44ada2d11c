"""The certified window walk shared by the total-photon-number laws."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from reference_laws import (
    negative_binomial,
    negative_binomial_outside,
    optimal_law,
    window_sums,
)

from dephcap.bounds import thermal_total_photon_dist
from dephcap.dephasing_exact import solve_dephasing
from dephcap.errors import SolverError
from dephcap.photon_dist import _geometric_tail, scan_from_ratios


def _negative_binomial(m, energy):
    q = energy / (energy + 1.0)
    return scan_from_ratios(lambda n: (n + m) / (n + 1.0) * q)


class TestOffsetWindow:
    def test_law_near_the_vacuum_starts_at_zero(self):
        window = _negative_binomial(100.0, 0.3)
        assert window.offset == 0

    def test_far_law_is_windowed_around_its_mean(self):
        m, energy = 1e6, 1.0
        window = _negative_binomial(m, energy)
        sd = math.sqrt(m * energy * (energy + 1.0))
        assert 0 < window.offset < m * energy - 6.0 * sd
        assert window.cutoff > m * energy + 6.0 * sd
        assert window.cutoff - window.offset + 1 < 40.0 * sd
        assert window.mean == pytest.approx(m * energy, rel=1e-12)
        assert window.variance == pytest.approx(m * energy * (energy + 1.0), rel=1e-9)

    def test_both_tails_are_certified(self):
        m, energy = 1e6, 1.0
        window = _negative_binomial(m, energy)
        assert window.tail_bound <= 1e-12
        assert negative_binomial_outside(m, energy, window.offset, window.cutoff) <= (
            window.tail_bound)
        edges = negative_binomial(m, energy, window.offset, window.cutoff)[[0, -1]]
        assert edges.max() < 1e-14

    def test_heavy_tail_widens_the_window(self):
        # m = 1 is geometric: its tail outlasts the first reach of 12 widths
        window = _negative_binomial(1.0, 30.0)
        assert window.offset == 0
        assert (30.0 / 31.0) ** window.cutoff < 1e-12
        assert window.tail_bound <= 1e-12


def test_window_too_long_is_a_solver_error():
    # a geometric law of mean 1e6 needs ~3e7 terms; refused before allocating
    with pytest.raises(SolverError):
        _negative_binomial(1.0, 1e6)


@pytest.mark.parametrize("m, lam", [(3, 0.5), (200, 0.2), (5000, 0.9)])
def test_scan_sums_the_reference_law_over_its_window(m, lam):
    # the optimal-input law; (5000, 0.9) spans many chunks on both sides
    def ratio(n):
        return ((n + m) / (n + 1.0)) ** 2 * lam

    window = scan_from_ratios(ratio)
    mean, variance = window_sums(
        window.offset, optimal_law(m, lam, window.offset, window.cutoff))
    assert window.mean == pytest.approx(mean, rel=1e-13, abs=0.0)
    assert window.variance == pytest.approx(variance, rel=1e-11, abs=0.0)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=hst.integers(1, 20), log_energy=hst.floats(-3.0, 4.0))
@example(m=2, log_energy=2.0)
@example(m=1, log_energy=4.0)
@example(m=20, log_energy=-3.0)
def test_mass_certified_windows_keep_their_moment_guards(m, log_energy):
    # both raise ContractViolation past their guards: the negative binomial's
    # mean and variance to 1e-9, and the optimal law's mean to 1e-9 of m E
    energy = 10.0 ** log_energy
    for window in (thermal_total_photon_dist(m, energy), solve_dephasing(m, energy).window()):
        assert window.tail_bound <= 1e-12
