"""Unit checks for the scalar special-function layer.

Reference constants were evaluated with mpmath at 50 significant digits and
rounded once to double precision.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from dephcap.photon_dist import PhotonDistribution
from dephcap.scalar_math import thermal_entropy_g
from dephcap.special_math import (
    MAX_MODES,
    bd0,
    check_block,
    log_binomial,
    shannon_entropy,
    squared_binomial_law,
    stirling_remainder,
)

G_OF_TEN = 4.83446685613664633949
LOG_BINOM_1E6_500 = 4296.300049745916891604

# ln 2F1(m, m; 1; z) from mpmath.hyp2f1 (direct hypergeometric summation,
# not the Euler polynomial) at 50 significant digits.
LOG_HYP2F1_REFS = {
    (50, 0.25): 65.75481725652898328546001,
    (50, 0.8): 219.4289174066125662643646,
    (2000, 0.25): 2767.176388465207691946066,
    (2000, 0.8): 8986.159381607579737970204,
    (20000, 0.25): 27719.32341322071916453122,
    (20000, 0.8): 89925.76745018035779368878,
}


def _s0_closed(m, z):
    """Closed form of sum_n C(n+m-1, m-1)^2 z^n for small integer m.

    Euler's transformation turns the squared-binomial series into
    (1-z)^(1-2m) times a degree-(m-1) polynomial with coefficients C(m-1,k)^2,
    an algebraically independent route to the same number.
    """
    poly = sum(math.comb(m - 1, k) ** 2 * z**k for k in range(m))
    return (1.0 - z) ** (1 - 2 * m) * poly


def _s1_closed(m, z):
    # S1 = z dS0/dz via the product rule on the closed form above.
    poly = sum(math.comb(m - 1, k) ** 2 * z**k for k in range(m))
    dpoly = sum(k * math.comb(m - 1, k) ** 2 * z ** (k - 1) for k in range(1, m))
    return z * ((2 * m - 1) * (1.0 - z) ** (-2 * m) * poly
                + (1.0 - z) ** (1 - 2 * m) * dpoly)


class TestThermalEntropy:
    def test_vacuum_is_zero(self):
        assert thermal_entropy_g(0) == 0.0

    def test_one_photon_is_two_bits(self):
        assert thermal_entropy_g(1.0) == pytest.approx(2.0, abs=1e-14)

    def test_reference_value(self):
        assert thermal_entropy_g(10.0) == pytest.approx(G_OF_TEN, rel=1e-14)

    @pytest.mark.parametrize("n", [1e-310, 3e-309])
    def test_subnormal_means_match_mpmath(self, n):
        # 1/n overflows here; the reference sums n ln(1 + 1/n) + ln(1 + n)
        # at 50 digits from the float64 input taken exactly
        with mp.workdps(50):
            x = mp.mpf(n)
            want = float((x * mp.log1p(1 / x) + mp.log1p(x)) / mp.log(2))
        assert abs(thermal_entropy_g(n) - want) <= 2e-16 * want

    @pytest.mark.parametrize("n", [5e-324, 1e-300, 1e-12, 1e-3, 1e6, 1e15])
    def test_extreme_means_stay_finite_and_positive(self, n):
        val = thermal_entropy_g(n)
        assert math.isfinite(val)
        assert val > 0.0

    def test_monotone_in_mean(self):
        grid = np.logspace(-4, 4, 30)
        vals = [thermal_entropy_g(n) for n in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [-0.1, -1.0, math.nan, math.inf, -math.inf])
    def test_invalid_mean_rejected(self, n):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            thermal_entropy_g(n)


class TestLogBinomial:
    def test_trivial_coefficients(self):
        assert log_binomial(0, 0) == 0.0
        assert log_binomial(5, 0) == 0.0
        assert log_binomial(5, 5) == 0.0

    def test_three_choose_one(self):
        assert log_binomial(3, 1) == pytest.approx(math.log(3.0), rel=1e-15)

    def test_large_arguments_against_exact_integer(self):
        # math.comb is exact big-integer arithmetic, an independent oracle.
        want = math.log(math.comb(10**6, 500))
        got = log_binomial(1e6, 500)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(LOG_BINOM_1E6_500, rel=1e-13)

    def test_symmetry(self):
        assert log_binomial(40, 13) == pytest.approx(log_binomial(40, 27), rel=1e-14)

    @pytest.mark.parametrize("n, k", [(3, 4), (-1, 0), (5, -2)])
    def test_out_of_range_rejected(self, n, k):
        with pytest.raises(ValueError):
            log_binomial(n, k)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            log_binomial(5.5, 2)


class TestLoaderPrimitives:
    @pytest.mark.parametrize("x", [30.0, 31.5, 100.0, 1e4, 1e8, 1e15])
    def test_stirling_remainder_matches_mpmath(self, x):
        # 60 digits: ln Gamma(1e15) cancels 33 of them against the Stirling part
        with mp.workdps(60):
            v = mp.mpf(x)
            want = float(mp.loggamma(v) - (v - 0.5) * mp.log(v) + v - mp.log(2 * mp.pi) / 2)
        assert stirling_remainder(np.array([x]))[0] == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x, d", [
        (100.0, 1.0), (100.0, 18.0), (100.0, -20.0), (1e10, 1e5), (1e7, -1e-3),
        # |v| = |d/(2x-d)| >= 0.1: the log1p branch
        (100.0, 19.0), (100.0, 50.0), (1e10, -3e9), (30.0, 29.0)])
    def test_bd0_matches_mpmath(self, x, d):
        with mp.workdps(40):
            want = float(mp.mpf(x) * mp.log(mp.mpf(x) / (mp.mpf(x) - d)) - d)
        assert bd0(np.array([x]), np.array([d]))[0] == pytest.approx(want, rel=1e-15, abs=0.0)


class TestCheckBlock:
    def test_largest_integer_block_accepted(self):
        assert check_block(1e7, 0.5) == (MAX_MODES, 0.5)
        assert type(check_block(1e7, 0.5)[0]) is int

    @pytest.mark.parametrize("m", [MAX_MODES + 1, 1e8, 10**400, 1e300, math.inf])
    def test_larger_integer_block_refused(self, m):
        with pytest.raises(ValueError, match="exceeds the limit of 10000000 modes"):
            check_block(m, 1.0)

    @pytest.mark.parametrize("m", [0, 2.5, 2.0000000001, math.nan])
    def test_non_integer_block_refused(self, m):
        with pytest.raises(ValueError, match="positive integer"):
            check_block(m, 1.0)

    def test_real_mode_counts_have_no_limit(self):
        # the total-count laws of bounds take log-spaced real m of any size
        assert check_block(1e8, 1.0, integer=False) == (1e8, 1.0)


class TestShannonEntropy:
    def test_point_mass_is_zero(self):
        assert shannon_entropy(np.array([1.0])) == 0.0
        assert shannon_entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_four_outcomes(self):
        assert shannon_entropy(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("energy, cutoff", [(0.1, 400), (1.0, 400), (10.0, 900)])
    def test_geometric_law_matches_thermal_entropy(self, energy, cutoff):
        q = energy / (energy + 1.0)
        probs = (1.0 - q) * q ** np.arange(cutoff + 1)
        dist = PhotonDistribution(probs, q ** (cutoff + 1))
        assert shannon_entropy(dist) == pytest.approx(
            thermal_entropy_g(energy), abs=1e-10)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.6, -0.1, 0.5]))

    def test_mass_deficit_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.5, 0.4]))

    def test_mass_excess_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.7, 0.5]))

    def test_mass_tolerance_boundary(self):
        shannon_entropy(np.array([0.5, 0.5 - 1e-10]))  # inside default tol
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.5, 0.5 - 1e-8]))


def _log_s0(m, z):
    return squared_binomial_law(m, z)[0]


def _log_s1(m, z):
    # S1 = sum_n n C(n+m-1, m-1)^2 z^n = S0 * mean
    log_s0, mean, _ = squared_binomial_law(m, z)
    return log_s0 + math.log(mean)


class TestSquaredBinomialSeries:
    @pytest.mark.parametrize("z", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_single_mode_is_geometric_normalizer(self, z):
        # m=1 collapses to sum z^n = 1/(1-z).
        assert _log_s0(1, z) == pytest.approx(-math.log1p(-z), rel=1e-13)

    def test_reference_value_two_modes(self):
        assert _log_s0(2, 0.3) == pytest.approx(1.332389096283688188773, rel=1e-13)

    @pytest.mark.parametrize("m, z", sorted(LOG_HYP2F1_REFS))
    def test_large_mode_counts_match_mpmath(self, m, z):
        assert _log_s0(m, z) == pytest.approx(LOG_HYP2F1_REFS[m, z], rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
    def test_matches_closed_form(self, m, z):
        assert _log_s0(m, z) == pytest.approx(math.log(_s0_closed(m, z)), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
    def test_mean_series_matches_closed_form(self, m, z):
        assert _log_s1(m, z) == pytest.approx(math.log(_s1_closed(m, z)), rel=1e-12)

    @pytest.mark.parametrize("m, z", [(1, 0.5), (3, 0.7), (40, 0.3), (2000, 0.8)])
    def test_variance_is_the_mean_derivative_in_log_z(self, m, z):
        h = 1e-5
        up = squared_binomial_law(m, z * math.exp(h))[1]
        down = squared_binomial_law(m, z * math.exp(-h))[1]
        assert squared_binomial_law(m, z)[2] == pytest.approx(
            (up - down) / (2.0 * h), rel=1e-7)

    @pytest.mark.parametrize("m", [2, 3, 10, 50])
    @pytest.mark.parametrize("z", [1e-9, 1e-12, 1e-16, 1e-300])
    def test_tiny_argument_matches_mpmath(self, m, z):
        # Q = 1 + (m-1)^2 z + ...: its ln must keep the part beside the 1;
        # mpmath carries 50 digits beyond the ones that 1 + z spends on the 1
        with mp.workdps(50 - int(math.log10(z))):
            want = float(mp.log(mp.hyp2f1(m, m, 1, mp.mpf(z))))
        assert _log_s0(m, z) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_zero_argument(self):
        assert squared_binomial_law(3, 0.0) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("z", [-0.1, 1.0, 1.5])
    def test_argument_outside_unit_interval_rejected(self, z):
        with pytest.raises(ValueError):
            squared_binomial_law(2, z)

    @pytest.mark.parametrize("m", [0, -1, 2.5])
    def test_bad_mode_count_rejected(self, m):
        with pytest.raises(ValueError):
            squared_binomial_law(m, 0.5)
