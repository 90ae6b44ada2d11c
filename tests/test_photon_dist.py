"""The certified window builder shared by the total-photon-number laws."""

import math

import numpy as np
import pytest

from dephcap.errors import SolverError
from dephcap.photon_dist import (
    PhotonDistribution,
    _geometric_tail,
    build_from_ratios,
    scan_from_ratios,
)
from dephcap.special_math import shannon_entropy


def _negative_binomial(m, energy):
    q = energy / (energy + 1.0)
    return build_from_ratios(lambda n: (n + m) / (n + 1.0) * q)


class TestOffsetWindow:
    def test_moments_and_cutoff_count_the_offset(self):
        dist = PhotonDistribution(np.array([0.25, 0.5, 0.25]), 0.0, 10)
        assert dist.mean() == 11.0
        assert dist.variance() == 0.5
        assert dist.cutoff == 12

    def test_law_near_the_vacuum_starts_at_zero(self):
        dist = _negative_binomial(100.0, 0.3)
        assert dist.offset == 0

    def test_far_law_is_windowed_around_its_mean(self):
        m, energy = 1e6, 1.0
        dist = _negative_binomial(m, energy)
        sd = math.sqrt(m * energy * (energy + 1.0))
        assert 0 < dist.offset < m * energy - 6.0 * sd
        assert dist.cutoff > m * energy + 6.0 * sd
        assert dist.probs.size < 40.0 * sd
        assert dist.mean() == pytest.approx(m * energy, rel=1e-12)
        assert dist.variance() == pytest.approx(m * energy * (energy + 1.0), rel=1e-9)

    def test_both_tails_are_certified(self):
        dist = _negative_binomial(1e6, 1.0)
        assert dist.tail_bound <= 1e-12
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert max(dist.probs[0], dist.probs[-1]) < 1e-14

    def test_heavy_tail_widens_the_window(self):
        # m = 1 is geometric: its tail outlasts the first reach of 12 widths
        dist = _negative_binomial(1.0, 30.0)
        assert dist.offset == 0
        assert (30.0 / 31.0) ** dist.cutoff < 1e-12
        assert dist.tail_bound <= 1e-12


def test_window_too_long_is_a_solver_error():
    # a geometric law of mean 1e6 needs ~3e7 terms; refused before allocating
    with pytest.raises(SolverError):
        _negative_binomial(1.0, 1e6)


@pytest.mark.parametrize("m, lam", [(3, 0.5), (200, 0.2), (5000, 0.9)])
def test_scan_sums_the_window_the_builder_stores(m, lam):
    # the optimal-input law; (5000, 0.9) spans many chunks on both sides
    def ratio(n):
        return ((n + m) / (n + 1.0)) ** 2 * lam

    dist = build_from_ratios(ratio)
    window = scan_from_ratios(ratio)
    assert (window.offset, window.cutoff, window.tail_bound) == (
        dist.offset, dist.cutoff, dist.tail_bound)
    assert window.entropy == pytest.approx(shannon_entropy(dist), rel=1e-13, abs=0.0)
    assert window.mean == pytest.approx(dist.mean(), rel=1e-13, abs=0.0)
    assert window.variance == pytest.approx(dist.variance(), rel=1e-11, abs=0.0)


class TestTailRule:
    """A side is short while r >= 1 or its bound exceeds half of either budget."""

    def test_entropy_budget_keeps_a_light_tail_short(self):
        # mass 1.5e-13 is under half of 1e-12, entropy 6.75e-12 bits over half of 1e-11
        assert _geometric_tail(1e-13, 0.6) is None

    @pytest.mark.parametrize("p, ratio, gap, mass", [
        (1e-13, 0.5, None, 1e-13),  # entropy 4.5e-12 bits
        (1e-20, 1.0, 1e-3, 1e-17),  # a ratio that rounds to 1, with its gap
        (0.0, 0.9, None, 0.0)])  # an edge term that underflowed
    def test_tail_within_both_budgets_is_certified(self, p, ratio, gap, mass):
        assert _geometric_tail(p, ratio, gap) == pytest.approx(mass, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p, ratio, gap", [
        (1e-12, 0.5, None),  # mass over half of 1e-12
        (1e-20, 1.0, None), (1e-20, 1.0, 0.0)])  # not past the mode
    def test_short_side(self, p, ratio, gap):
        assert _geometric_tail(p, ratio, gap) is None
