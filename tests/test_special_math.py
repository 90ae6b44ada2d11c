"""Unit checks for the scalar special-function layer.

Reference constants were evaluated with mpmath at 50 significant digits and
rounded once to double precision.
"""

import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephcap.scalar_math import MAX_MODES, check_block, thermal_entropy_g
from dephcap.special_math import shannon_entropy, squared_binomial_law

G_OF_TEN = 4.83446685613664633949

# ln 2F1(m, m; 1; z) at 50 significant digits: to m = 20000 from
# mpmath.hyp2f1 (direct hypergeometric summation, not the Euler polynomial);
# at m = 1e6 and 1e7 as (1-2m) ln(1-z) + ln Q from _laplace_log_q, with the
# float z taken exactly.
LOG_HYP2F1_REFS = {
    (50, 0.25): 65.75481725652898328546001,
    (50, 0.8): 219.4289174066125662643646,
    (2000, 0.25): 2767.176388465207691946066,
    (2000, 0.8): 8986.159381607579737970204,
    (20000, 0.25): 27719.32341322071916453122,
    (20000, 0.8): 89925.76745018035779368878,
    (10**6, 1e-6): 1996.280339669484598842507,
    (10**6, 0.25): 1386285.841279304122255142,
    (10**6, 0.99): 10591602.4116784687609005,
    (10**7, 0.25): 13862933.94006540756956845,
}


def _laplace_integral(n, z, moment=False):
    """(1/pi) int_0^pi (g/(1 + sqrt z)^2)^n x dt in mpmath, g = 1 + z + 2 sqrt(z) cos t.

    x is 1, or with ``moment`` the weight h = (z + sqrt(z) cos t)/g whose
    n-fold average is the mean of Q's weights.  The integrand peaks at t = 0
    with width (1 + sqrt z)/sqrt(n sqrt z); the quadrature breaks at 1 to 64
    such widths.
    """
    z = mp.mpf(z)
    r = mp.sqrt(z)
    peak = 2 * mp.log1p(r)  # ln of the integrand's largest value, per power
    width = (1 + r) / mp.sqrt(n * r)
    points = [0] + [k * width for k in (1, 2, 4, 8, 16, 32, 64) if k * width < mp.pi]

    def integrand(t):
        g = 1 + z + 2 * r * mp.cos(t)
        return mp.exp(n * (mp.log(g) - peak)) * ((z + r * mp.cos(t)) / g if moment else 1)
    return mp.quad(integrand, points + [mp.pi]) / mp.pi


def _laplace_log_q(m, z):
    """ln Q(z) of the Euler polynomial from Laplace's integral, in mpmath.

    Q = (1/pi) int_0^pi (1 + z + 2 sqrt(z) cos t)^(m-1) dt: an independent
    route to ln Q where the polynomial has too many terms to sum in mpmath.
    """
    n = m - 1
    return 2 * n * mp.log1p(mp.sqrt(mp.mpf(z))) + mp.log(_laplace_integral(n, z))


def _reference_law(m, z):
    """ln S0 and the mean of the law at z, in mpmath at the working precision.

    Q's weights are summed directly while their peak k ~ n sqrt(z)/(1 + sqrt z)
    lies below 400, until past it they fall below 1e-60 of the sum; above it
    they come from Laplace's integral, which no longer cancels there.
    """
    n, zz = m - 1, mp.mpf(z)
    top = n * mp.sqrt(zz) / (1 + mp.sqrt(zz))
    if top < 400:
        q, kq, term, k = mp.mpf(0), mp.mpf(0), mp.mpf(1), 0
        while k <= n and (k < top + 10 or term > q * mp.mpf(10) ** -60):
            q, kq = q + term, kq + k * term
            term *= (mp.mpf(n - k) / (k + 1)) ** 2 * zz
            k += 1
        log_q, mean_q = mp.log(q), kq / q
    else:
        log_q = _laplace_log_q(m, z)
        mean_q = n * _laplace_integral(n, z, moment=True) / _laplace_integral(n, z)
    return ((1 - 2 * m) * mp.log1p(-zz) + log_q,
            (2 * m - 1) * zz / (1 - zz) + mean_q)


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
        dist = SimpleNamespace(probs=probs, tail_bound=q ** (cutoff + 1))
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


class TestSquaredBinomialLaw:
    @pytest.mark.parametrize("z", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_single_mode_is_geometric_normalizer(self, z):
        # m=1 collapses to sum z^n = 1/(1-z).
        assert _log_s0(1, z) == pytest.approx(-math.log1p(-z), rel=1e-13)

    def test_reference_value_two_modes(self):
        assert _log_s0(2, 0.3) == pytest.approx(1.332389096283688188773, rel=1e-13)

    @pytest.mark.parametrize("m, z", sorted(LOG_HYP2F1_REFS))
    def test_large_mode_counts_match_mpmath(self, m, z):
        assert _log_s0(m, z) == pytest.approx(LOG_HYP2F1_REFS[m, z], rel=1e-13)

    @pytest.mark.parametrize("m, z", [(2, 0.3), (50, 0.25), (2000, 0.8), (5000, 1e-6),
                                      (5000, 0.99)])
    def test_laplace_integral_matches_the_polynomial(self, m, z):
        # the references' route against the exact sum of Q's m terms
        with mp.workdps(50):
            exact = mp.log(mp.fsum(mp.binomial(m - 1, k) ** 2 * mp.mpf(z) ** k
                                   for k in range(m)))
            assert abs(_laplace_log_q(m, z) - exact) <= mp.mpf(10) ** -40 * abs(exact)

    @pytest.mark.parametrize("m, z", [key for key in sorted(LOG_HYP2F1_REFS) if key[0] >= 10**6])
    def test_laplace_references_are_reproduced(self, m, z):
        with mp.workdps(50):
            log_s0 = (1 - 2 * m) * mp.log1p(-mp.mpf(z)) + _laplace_log_q(m, z)
            # the constant is the 50-digit value rounded once to a double
            assert abs(log_s0 - LOG_HYP2F1_REFS[m, z]) <= 2.0 ** -53 * LOG_HYP2F1_REFS[m, z]

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

    # n = m - 1 on both sides of the head's last all-terms degree, 256, and
    # of n sqrt(z) = 2, where the head stops and Laplace's integral starts
    @pytest.mark.parametrize("m, z, head", [
        (257, 0.25, True), (258, 0.25, False), (257, 0.9, True), (258, 0.9, False),
        (257, 1e-3, True), (258, 1e-3, False),
        (301, (2.0 / 300) ** 2 * (1.0 - 1e-9), True), (301, (2.0 / 300) ** 2 * (1.0 + 1e-9), False),
        (10**7, (2.0 / (10**7 - 1)) ** 2 * (1.0 - 1e-9), True),
        (10**7, (2.0 / (10**7 - 1)) ** 2 * (1.0 + 1e-9), False),
        (10**7 - 1, 0.25, False),
    ])
    def test_routes_meet_mpmath_at_their_switch_points(self, m, z, head):
        assert (m - 1 <= 256 or (m - 1) * math.sqrt(z) <= 2.0) == head
        log_s0, mean, _ = squared_binomial_law(m, z)
        with mp.workdps(50):
            want_log_s0, want_mean = _reference_law(m, z)
            assert abs(log_s0 - want_log_s0) <= 4e-16 * want_log_s0
            assert abs(mean - want_mean) <= 4e-16 * want_mean

    def test_laplace_route_corrects_the_rounding_of_sqrt_z(self):
        # 2n log1p(sqrt z) carries sqrt(z)'s rounding times 2n; corrected, ln S0
        # at the lambda of `capacity --pure-dephasing -m 5000 -E 1` is within
        # one ulp (it was two ulps off without the correction)
        z = 0.2500375028127109
        with mp.workdps(50):
            want = _reference_law(5000, z)[0]
            assert abs(squared_binomial_law(5000, z)[0] - want) <= math.ulp(float(want))

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_m=st.floats(0.0, 7.0), log_z=st.floats(-16.0, math.log10(0.999)))
def test_law_meets_mpmath_at_every_mode_count(log_m, log_z):
    m, z = int(round(10.0 ** log_m)), 10.0 ** log_z
    log_s0, mean, _ = squared_binomial_law(m, z)
    with mp.workdps(30):
        want_log_s0, want_mean = _reference_law(m, z)
        assert abs(log_s0 - want_log_s0) <= 1e-15 * want_log_s0
        assert abs(mean - want_mean) <= 1e-14 * want_mean
