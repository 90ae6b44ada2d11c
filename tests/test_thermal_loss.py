"""Closed-form thermal-loss capacities and their internal consistency.

Reference constants were evaluated with mpmath at 50 significant digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from dephcap.errors import ContractViolation, SolverError
from dephcap.phase_encoding import gaussian_conditional_entropy
from dephcap.scalar_math import thermal_entropy_g
from dephcap.thermal_loss import (
    CapacityReport,
    ThermalLossChannel,
    advantage_ratio,
    capacity_report,
    ea_capacity,
    hsw_capacity,
)

# kappa=0.8, N_B=10, E=0.001
EA_REF = 0.0007394223764090147909
HSW_REF = 0.0001099986222825695838
RATIO_REF = 6.722105796103083491


class TestChannelValidation:
    @pytest.mark.parametrize("kappa", [0.0, -0.2, 1.0 + 1e-9, 2.0])
    def test_transmissivity_outside_unit_interval_rejected(self, kappa):
        with pytest.raises(ValueError):
            ThermalLossChannel(kappa, 0.5)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            ThermalLossChannel(0.5, -0.1)

    def test_lossless_channel_cannot_add_noise(self):
        with pytest.raises(ValueError):
            ThermalLossChannel(1.0, 0.5)

    def test_output_mean(self):
        ch = ThermalLossChannel(0.8, 10.0)
        assert ch.output_mean(0.001) == pytest.approx(10.0008, rel=1e-14)


class TestAssistedCapacity:
    def test_identity_channel_doubles_the_unassisted_rate(self):
        ch = ThermalLossChannel(1.0, 0.0)
        assert ea_capacity(ch, 1.0) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("energy", [0.01, 0.1, 1.0, 10.0])
    def test_lossless_reduction_to_twice_thermal_entropy(self, energy):
        ch = ThermalLossChannel(1.0, 0.0)
        want = 2.0 * thermal_entropy_g(energy)
        assert abs(ea_capacity(ch, energy) - want) <= 1e-12

    def test_zero_energy_carries_nothing(self):
        ch = ThermalLossChannel(0.8, 10.0)
        assert ea_capacity(ch, 0.0) == 0.0
        assert hsw_capacity(ch, 0.0) == 0.0

    def test_reference_point(self):
        ch = ThermalLossChannel(0.8, 10.0)
        assert ea_capacity(ch, 0.001) == pytest.approx(EA_REF, rel=1e-10)
        assert hsw_capacity(ch, 0.001) == pytest.approx(HSW_REF, rel=1e-10)

    def test_negative_energy_rejected(self):
        ch = ThermalLossChannel(0.8, 10.0)
        with pytest.raises(ValueError):
            ea_capacity(ch, -0.5)

    @pytest.mark.parametrize("kappa", [0.2, 0.6, 0.9, 1.0])
    @pytest.mark.parametrize("n_b", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("energy", [1e-4, 0.1, 1.0, 10.0])
    def test_assistance_never_hurts(self, kappa, n_b, energy):
        if kappa == 1.0 and n_b > 0.0:
            pytest.skip("lossless channel admits no added noise")
        rep = capacity_report(ThermalLossChannel(kappa, n_b), energy)
        assert rep.hsw >= 0.0
        assert rep.ea + 1e-12 >= rep.hsw


class TestUnassistedCapacity:
    def test_identity_channel_is_thermal_entropy(self):
        ch = ThermalLossChannel(1.0, 0.0)
        assert hsw_capacity(ch, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_output_minus_environment_entropies(self):
        ch = ThermalLossChannel(0.45, 1.5)
        want = thermal_entropy_g(0.45 * 2.0 + 1.5) - thermal_entropy_g(1.5)
        assert hsw_capacity(ch, 2.0) == pytest.approx(want, rel=1e-13)


class TestAdvantageRatio:
    def test_identity_channel_gives_factor_two(self):
        ch = ThermalLossChannel(1.0, 0.0)
        assert advantage_ratio(ch, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_reference_point(self):
        ch = ThermalLossChannel(0.8, 10.0)
        assert advantage_ratio(ch, 0.001) == pytest.approx(RATIO_REF, rel=1e-10)

    def test_grows_as_energy_shrinks(self):
        ch = ThermalLossChannel(0.8, 10.0)
        assert advantage_ratio(ch, 1e-4) > advantage_ratio(ch, 1e-2)

    def test_strictly_decreasing_in_energy(self):
        ch = ThermalLossChannel(0.8, 10.0)
        vals = [advantage_ratio(ch, e) for e in np.logspace(-6, 0, 13)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_undefined_at_zero_energy(self):
        ch = ThermalLossChannel(0.8, 10.0)
        with pytest.raises(ValueError):
            advantage_ratio(ch, 0.0)


class TestCapacityReport:
    def test_fields_echo_inputs_and_ratio(self):
        rep = capacity_report(ThermalLossChannel(0.8, 10.0), 0.001)
        assert isinstance(rep, CapacityReport)
        assert (rep.kappa, rep.n_b, rep.energy) == (0.8, 10.0, 0.001)
        assert rep.ratio == pytest.approx(rep.ea / rep.hsw, rel=1e-15)
        assert rep.e_prime == pytest.approx(10.0008, rel=1e-14)
        assert rep.a_plus >= 0.0
        assert rep.a_minus >= -1e-15

    @pytest.mark.parametrize("kappa, n_b, energy", [
        (0.999, 0.0, 1e-3), (0.999, 0.0, 1.0), (0.999, 0.0, 1e6),
        (0.8, 0.0, 1e6), (0.999999, 1e-6, 1e-6), (0.8, 10.0, 0.001),
        (0.5, 2.0, 1e6)])
    def test_occupations_match_mpmath(self, kappa, n_b, energy):
        # A+- = (D - 1 +- (E' - E))/2 from the unexpanded discriminant at 50
        # digits; the float64 inputs are taken exactly
        with mp.workdps(50):
            k, nb, e = mp.mpf(kappa), mp.mpf(n_b), mp.mpf(energy)
            e_prime = k * e + nb
            d = mp.sqrt((e + e_prime + 1) ** 2 - 4 * k * e * (e + 1))
            want = ((d - 1 + e_prime - e) / 2, (d - 1 - e_prime + e) / 2)
        rep = capacity_report(ThermalLossChannel(kappa, n_b), energy)
        for got, ref in zip((rep.a_plus, rep.a_minus), want):
            assert abs(got - float(ref)) <= 1e-14 * float(ref)

    def test_zero_energy_ratio_is_nan(self):
        rep = capacity_report(ThermalLossChannel(0.8, 10.0), 0.0)
        assert rep.ea == 0.0
        assert math.isnan(rep.ratio)

    @pytest.mark.parametrize("n_b", [0.0, 10.0, 1e100, 1e300])
    def test_zero_energy_occupations_are_exact(self, n_b):
        # no n_b^2 is formed, which overflows beyond n_b ~ 1.3e154
        rep = capacity_report(ThermalLossChannel(0.8, n_b), 0.0)
        assert (rep.e_prime, rep.big_d, rep.a_plus, rep.a_minus) == (n_b, n_b + 1.0, n_b, 0.0)
        assert rep.ea == rep.hsw == 0.0

    @pytest.mark.parametrize("kappa, n_b, energy, error, message", [
        # g(E) - g(A-) cancels once kappa E is below ulp(E): ea 2% below hsw
        (1e-16, 1e-3, 10.0, ContractViolation, "is below the unassisted"),
        # ea rounds to 0, hsw to the subnormal 2.1e-320
        (5e-324, 0.0, 3.7, ContractViolation, "is below the unassisted"),
        # kappa E is lost to rounding beside n_b
        (0.8, 1e17, 1.0, SolverError, "unassisted capacity rounds to 0"),
        # ea rounds to -9.26e-298, hsw to 0
        (0.8, 10.0, 1e-300, ContractViolation, "is below the unassisted")])
    def test_refuses_an_impossible_ordering(self, kappa, n_b, energy, error, message):
        ch = ThermalLossChannel(kappa, n_b)
        with pytest.raises(error, match=message):
            capacity_report(ch, energy)
        rep = capacity_report(ch, 0.0)  # nothing is sent: both rates are 0
        assert rep.ea == rep.hsw == 0.0
        assert math.isnan(rep.ratio)

    @pytest.mark.parametrize(
        "kappa, n_b, energy",
        [(0.8, 10.0, 0.001), (0.8, 0.01, 0.001), (0.45, 1.0, 0.1)])
    def test_occupations_reproduce_gaussian_conditional_entropy(
            self, kappa, n_b, energy):
        # The pair (a_plus, a_minus) must carry exactly the output-given-idler
        # entropy of the loss-applied two-mode squeezed state.
        ch = ThermalLossChannel(kappa, n_b)
        rep = capacity_report(ch, energy)
        want = gaussian_conditional_entropy(energy, ch)
        got = thermal_entropy_g(rep.a_plus) + thermal_entropy_g(rep.a_minus)
        assert abs(got - want) <= 1e-9
