"""Exact collective-dephasing capacities and the optimal input law.

Reference constants were evaluated with mpmath at 50 significant digits.
"""

import math
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_laws import optimal_law, optimal_outside, window_sums

from dephcap import dephasing_exact
from dephcap.dephasing_exact import (
    DephasingSolution,
    optimal_total_distribution,
    solve_dephasing,
    solve_lambda,
)
from dephcap.errors import SolverError
from dephcap.scalar_math import LN2, thermal_entropy_g
from dephcap.special_math import squared_binomial_law
from dephcap.verification import _optimal_joint_weights

CAPACITY_M2_E1 = 5.322462129777240821346  # bits over the two-mode block
LAMBDA_M2_E1 = (math.sqrt(3.0) - 1.0) / 2.0


class TestSolveLambda:
    def test_single_mode_unit_energy(self):
        # m=1 makes the law plain geometric with mean lam/(1-lam).
        assert solve_lambda(1, 1.0)[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_energy(self):
        # the law is the vacuum, whose normalizer S0(0) is 1
        assert solve_lambda(3, 0.0) == (0.0, 0.0, 0.0)

    def test_two_modes_unit_energy(self):
        assert solve_lambda(2, 1.0)[0] == pytest.approx(LAMBDA_M2_E1, abs=1e-12)

    @pytest.mark.parametrize("m, energy", [(1, 0.3), (2, 1.0), (5, 0.1), (20, 1.0)])
    def test_solved_weight_reproduces_the_mean(self, m, energy):
        # the law's own mean, from 30-digit entries over its certified window
        lam, _, mean = solve_lambda(m, energy)
        window = optimal_total_distribution(m, lam)
        law = optimal_law(m, lam, window.offset, window.cutoff)
        assert window_sums(window.offset, law)[0] == pytest.approx(m * energy, rel=1e-9)
        assert mean == pytest.approx(m * energy, rel=1e-10)

    @pytest.mark.parametrize("m, energy", [(1, 1.0), (2, 1.0), (20, 0.3), (3000, 10.0)])
    def test_returns_the_normalizer_and_mean_at_the_solved_lambda(self, m, energy):
        lam, log_s0, mean = solve_lambda(m, energy)
        assert (log_s0, mean) == squared_binomial_law(m, lam)[:2]

    @pytest.mark.parametrize("m", [0, -2, 1.5])
    def test_bad_mode_count_rejected(self, m):
        with pytest.raises(ValueError):
            solve_lambda(m, 1.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            solve_lambda(2, -0.1)


class TestOptimalTotalDistribution:
    def test_single_mode_is_geometric(self):
        # lambda = 1/2: the mass beyond n is 2^-(n+1), first below 5e-13 at n = 40
        window = optimal_total_distribution(1, solve_lambda(1, 1.0)[0])
        assert (window.offset, window.cutoff) == (0, 40)
        assert window.tail_bound == pytest.approx(0.5 ** 41, rel=1e-13)

    def test_zero_energy_is_point_mass(self):
        window = optimal_total_distribution(4, 0.0)
        assert window == (0, 0, 0.0)

    # E = 100: a heavy tail, whose window the mass-only certificate sizes
    @pytest.mark.parametrize("energy", [1.0, 100.0])
    def test_tail_certification(self, energy):
        lam = solve_lambda(2, energy)[0]
        window = optimal_total_distribution(2, lam)
        assert window.tail_bound <= 1e-12
        assert optimal_outside(2, lam, window.offset, window.cutoff) <= window.tail_bound

    @pytest.mark.parametrize("m, lam, message", [
        (2.5, 0.5, "positive integer"), (0, 0.5, "positive integer"),
        (-2, 0.5, "positive integer"), (10**8, 0.5, "exceeds the limit"),
        (2, -0.5, r"lie in \[0, 1\)"), (2, math.nan, r"lie in \[0, 1\)"),
        (2, 1.0, r"lie in \[0, 1\)")])
    def test_bad_arguments_rejected(self, m, lam, message):
        # the solve's rules: m = 2.5 is not read as m = 2
        with pytest.raises(ValueError, match=message):
            optimal_total_distribution(m, lam)


class TestSolveDephasing:
    @pytest.mark.parametrize("energy", [0.1, 1.0, 10.0])
    def test_single_mode_capacity_is_thermal_entropy(self, energy):
        sol = solve_dephasing(1, energy)
        assert sol.capacity == pytest.approx(
            thermal_entropy_g(energy), rel=1e-10)

    def test_two_mode_reference_value(self):
        sol = solve_dephasing(2, 1.0)
        assert sol.capacity == pytest.approx(CAPACITY_M2_E1, rel=1e-10)
        assert sol.lambda1 == pytest.approx(LAMBDA_M2_E1, abs=1e-12)
        assert sol.mean == pytest.approx(2.0, rel=1e-10)

    def test_twenty_modes_approach_the_doubling_ceiling(self):
        sol = solve_dephasing(20, 1.0)
        assert 74.48 <= sol.capacity <= 77.52  # 76 bits within 2 percent
        assert sol.unassisted_ratio > 1.86

    def test_capacity_sandwich_and_monotone_ratio(self):
        g1 = thermal_entropy_g(1.0)
        ratios = []
        for m in range(1, 21):
            sol = solve_dephasing(m, 1.0)
            assert m * g1 - 1e-9 <= sol.capacity <= 2.0 * m * g1 + 1e-9
            ratios.append(sol.unassisted_ratio)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] == pytest.approx(1.0, abs=1e-9)

    def test_solution_record_consistency(self):
        sol = solve_dephasing(3, 0.5)
        assert isinstance(sol, DephasingSolution)
        assert sol.capacity_per_mode == pytest.approx(sol.capacity / 3.0, rel=1e-15)
        assert sol.mean == pytest.approx(1.5, rel=1e-10)

    def test_zero_energy_yields_the_silent_solution(self):
        sol = solve_dephasing(2, 0.0)
        assert sol.capacity == 0.0
        assert sol.lambda1 == 0.0
        assert sol.window() == optimal_total_distribution(sol.m, sol.lambda1)
        assert sol.window() == (0, 0, 0.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            solve_dephasing(2, -0.5)

    def test_solve_and_its_window_build_no_law(self, monkeypatch):
        built = []

        def counted(m, lam, build=dephasing_exact.optimal_total_distribution):
            built.append(m)
            return build(m, lam)
        monkeypatch.setattr(dephasing_exact, "optimal_total_distribution", counted)
        sol = solve_dephasing(20, 1.0)
        window = sol.window()
        assert built == []
        assert window == optimal_total_distribution(sol.m, sol.lambda1)

    def test_solve_needs_no_window_of_the_law(self):
        # the capacity is closed form and equals g(E) at m = 1
        sol = solve_dephasing(1, 1e6)
        assert sol.capacity == pytest.approx(thermal_entropy_g(1e6), rel=1e-12)
        assert sol.capacity == pytest.approx(21.3742643316, abs=1e-10)

    def test_mode_limit_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit of 10000000 modes"):
                solve_dephasing(10**8, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@settings(max_examples=80, deadline=None, derandomize=True)
@given(m=st.integers(1, 3000), log_energy=st.floats(-3.0, math.log10(30.0)))
def test_every_point_solves_inside_its_sandwich(m, log_energy):
    energy = 10.0 ** log_energy
    sol = solve_dephasing(m, energy)
    window = sol.window()
    assert sol.mean == pytest.approx(m * energy, rel=1e-10)
    g = thermal_entropy_g(energy)
    assert m * g - 1e-9 <= sol.capacity <= 2.0 * m * g + 1e-9
    assert window.tail_bound <= 1e-12
    sd = math.sqrt(squared_binomial_law(m, sol.lambda1)[2])
    assert window.cutoff - window.offset + 1 <= 100.0 * (sd + 1.0)


def _visited(m, energy):
    """solve_dephasing(m, E) and the (lambda, evaluation) of every Newton step."""
    seen = []

    def recorded(m, lam, evaluate=dephasing_exact._squared_series_logs):
        seen.append((lam, evaluate(m, lam)))
        return seen[-1][1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dephasing_exact, "_squared_series_logs", recorded)
        return solve_dephasing(m, energy), seen


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 3000), log_energy=st.floats(-6.0, 3.0))
def test_capacity_is_the_last_newton_evaluation(m, log_energy):
    energy = 10.0 ** log_energy
    sol, seen = _visited(m, energy)
    lam = sol.lambda1
    assert seen[-1][0] == lam
    assert sol.capacity == (squared_binomial_law(m, lam)[0] - m * energy * math.log(lam)) / LN2
    # every step is a plain evaluation: called again it gives the same bits
    for z, law in seen:
        assert law == squared_binomial_law(m, z)


@pytest.mark.parametrize("energy, evaluations", [(1.0, 2), (10.0, 2)])
def test_one_series_evaluation_per_newton_step(energy, evaluations):
    # the capacity reads ln S0 from the last step instead of a further evaluation
    assert len(_visited(100, energy)[1]) == evaluations


def test_newton_starts_near_the_root():
    # fig2's benchmark grids take 1100 evaluations from max(q^(2-1/m), q/m),
    # whose 1/m term is wrong; at m = 1 that guess is the root itself
    grids = [(m, 1.0) for m in range(1, 201)] + [(m, 10.0) for m in range(1, 101)]
    assert sum(len(_visited(m, energy)[1]) for m, energy in grids) <= 717
    for energy in (1e-6, 1.0, 1e5):
        assert len(_visited(1, energy)[1]) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=st.integers(1, 3000), log_energy=st.floats(-6.0, 3.0))
def test_no_point_takes_more_than_five_evaluations(m, log_energy):
    assert len(_visited(m, 10.0 ** log_energy)[1]) <= 5


# solve_lambda(m, E) where E(E+1) in the asymptotic start underflows or
# overflows: each point ends in this value or error, and warns nothing
_BRACKET_TOP = "lambda bracket top rounded to 1 (m={m}, E={E!r})"
_FLOAT_EDGE_ENDINGS = {
    (1, 5e-324): (5e-324, 5e-324, 5e-324),
    (2, 5e-324): "lambda solve underflowed to 0: E is too close to the smallest "
                 "float (m=2, E=5e-324)",
    (200, 5e-324): "lambda solve underflowed to 0: E is too close to the smallest "
                   "float (m=200, E=5e-324)",
    (1, 1e-300): (1e-300, 1e-300, 1e-300),
    (2, 1e-300): (5e-301, 2e-300, 2e-300),
    (200, 1e-300): (5e-303, 2e-298, 2e-298),
    (1, 1e12): "solved lambda=0.999999999999 reproduces mean 1000022122208.5028 "
               "instead of 1000000000000.0 (m=1, E=1000000000000.0)",
    (2, 1e12): "solved lambda=0.9999999999985 reproduces mean 1999970229012.5972 "
               "instead of 2000000000000.0 (m=2, E=1000000000000.0)",
    (200, 1e12): "solved lambda=0.999999999998005 reproduces mean "
                 "200004034873185.72 instead of 200000000000000.0 "
                 "(m=200, E=1000000000000.0)",
    **{(m, energy): _BRACKET_TOP.format(m=m, E=energy)
       for m in (1, 2, 200) for energy in (1e150, 1e300)},
}


@pytest.mark.parametrize("m, energy", sorted(_FLOAT_EDGE_ENDINGS))
def test_float_edges_end_as_before(m, energy):
    want = _FLOAT_EDGE_ENDINGS[m, energy]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, tuple):
            assert solve_lambda(m, energy) == want
            return
        with pytest.raises(SolverError) as raised:
            solve_lambda(m, energy)
    assert str(raised.value) == want


@pytest.mark.parametrize("energy", [1e-3, 1.0, 10.0])
def test_solve_at_the_mode_limit_peaks_below_one_megabyte(energy):
    # an evaluation holds at most 257 floats per array, whatever m is
    tracemalloc.start()
    try:
        solve_dephasing(10**7, energy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.xfail(strict=True, raises=SolverError, reason=(
    "(2m-1) lambda/(1-lambda) loses the digits of 1 - lambda = 2e-6; "
    "ROADMAP item 2's solve in u = 1 - lambda is to mend it"))
def test_solve_meets_its_mean_where_lambda_nears_one():
    assert solve_dephasing(1000, 1e6).mean == pytest.approx(1e9, rel=1e-10)


class TestOptimalJointWeight:
    def test_vacuum_pattern_is_the_inverse_normalizer(self):
        # F = 2F1(2,2,1,1/2) = 12 exactly, so the vacuum weight is 1/12.
        got = _optimal_joint_weights(2, 0.5, [(0, 0)])[0]
        assert got == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_one_photon_per_mode_pattern(self):
        # C(3,1) * 0.5^2 / 12 = 1/16.
        got = _optimal_joint_weights(2, 0.5, [(1, 1)])[0]
        assert got == pytest.approx(0.0625, rel=1e-13)

    def test_weight_depends_only_on_the_total(self):
        a, b, c = _optimal_joint_weights(3, 0.4, [(2, 1, 0), (3, 0, 0), (1, 1, 1)])
        assert a == b == c

    @pytest.mark.parametrize("k", range(0, 21, 4))
    def test_shell_sum_reproduces_the_total_law(self, k):
        lam = solve_lambda(3, 0.7)[0]
        shell = math.comb(k + 2, 2) * _optimal_joint_weights(3, lam, [(k, 0, 0)])[0]
        assert shell == pytest.approx(optimal_law(3, lam, k, k)[0], rel=1e-12)


def marginal_m2(n1, lam):
    """Single-mode marginal of the optimal two-mode input.

    Closed form (1-lambda)/(1+lambda) * lambda^n1 * [(1-lambda) n1 + 1]; the
    linear-in-n1 prefactor is what makes the marginal non-geometric, i.e. the
    optimal input is not a product of thermal states for m >= 2.
    """
    return ((1.0 - lam) / (1.0 + lam)) * lam ** n1 * ((1.0 - lam) * n1 + 1.0)


class TestMarginalM2:
    def test_reference_values(self):
        assert marginal_m2(0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert marginal_m2(1, 0.5) == pytest.approx(0.25, rel=1e-12)
        assert marginal_m2(2, 0.5) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_marginal_is_not_geometric(self):
        # A geometric law would satisfy P0 P2 = P1^2; here 1/18 < 1/16.
        p0, p1, p2 = (marginal_m2(n, 0.5) for n in range(3))
        assert p0 * p2 < p1**2
        assert abs(p0 * p2 - p1**2) > 0.02 * p1**2

    @pytest.mark.parametrize("n1", [0, 1, 5])
    def test_matches_summed_joint_weights(self, n1):
        lam = 0.37
        want = _optimal_joint_weights(2, lam, [(n1, n2) for n2 in range(200)]).sum()
        assert marginal_m2(n1, lam) == pytest.approx(want, rel=1e-12)

    def test_normalized(self):
        total = sum(marginal_m2(n, 0.5) for n in range(120))
        assert total == pytest.approx(1.0, abs=1e-12)
