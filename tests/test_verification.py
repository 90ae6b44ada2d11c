"""Plumbing of the cross-check harness (the checks themselves run in
test_acceptance.py, once, since several build large truncated spaces)."""

import math

import numpy as np
import pytest

from dephcap import fock_oracle as fo
from dephcap import verification
from dephcap.thermal_loss import ThermalLossChannel
from dephcap.verification import (_ALL_CHECKS, CheckResult,
                                  check_covariance_vs_dilation,
                                  check_discrete_phase_holevo,
                                  check_fock_diagonal_vs_dilation,
                                  check_loss_dephasing_commutation,
                                  check_phase_average_diagonality,
                                  check_symplectic_occupations,
                                  check_trace_preservation,
                                  check_two_mode_optimal_input_mi)


class TestCheckResult:
    def test_within_tolerance_passes(self):
        res = CheckResult("demo", value=1.0 + 1e-12, reference=1.0,
                          tolerance=1e-9)
        assert res.status == "pass"
        assert res.delta <= 1e-9

    def test_outside_tolerance_fails(self):
        res = CheckResult("demo", value=1.1, reference=1.0, tolerance=1e-9)
        assert res.status == "fail"

    def test_nan_fails(self):
        res = CheckResult("demo", value=math.nan, reference=1.0, tolerance=1e-9)
        assert res.status == "fail"

    def test_line_format(self):
        res = CheckResult("demo check", value=2.0, reference=2.0, tolerance=1e-6)
        line = res.line()
        assert "PASS" in line
        assert "demo check" in line
        assert "tol=" in line

    def test_status_follows_the_fields(self):
        res = CheckResult("demo", value=1.0, reference=1.0, tolerance=0.0)
        assert res.status == "pass"
        res.value = 2.0
        assert res.status == "fail"


def test_registry_is_nonempty_and_named():
    assert len(_ALL_CHECKS) >= 10
    names = [fn.__name__ for fn in _ALL_CHECKS]
    assert len(set(names)) == len(names)


def test_phase_checks_project_instead_of_rotating(monkeypatch):
    def rotation(*args):
        raise AssertionError("phase average built from rotated copies")
    monkeypatch.setattr(fo, "apply_phase_shift", rotation)
    for check in (check_phase_average_diagonality, check_discrete_phase_holevo):
        assert check().status == "pass"


def test_discrete_phase_holevo_is_the_ensemble_formula():
    # the check takes every member's entropy to be S(lossy); here each of the
    # 64 rotated states is diagonalised, as the full formula has it
    lossy = fo.apply_thermal_loss(fo.tmsv_state(0.1, 14), 0, ThermalLossChannel(0.8, 0.5))
    members = [fo.apply_phase_shift(lossy, 0, 2.0 * math.pi * k / 64) for k in range(64)]
    entropies = np.array([fo.von_neumann_entropy(st) for st in members])
    assert np.abs(entropies - fo.von_neumann_entropy(lossy)).max() <= 1e-12
    avg = fo.FockOperator(lossy.dims, sum(st.data for st in members) / 64)
    chi = fo.von_neumann_entropy(avg) - entropies.mean()
    assert abs(chi - check_discrete_phase_holevo().value) <= 1e-12


@pytest.mark.parametrize("check", [
    check_fock_diagonal_vs_dilation, check_covariance_vs_dilation, check_trace_preservation])
def test_banded_checks_read_nothing_outside_their_band(check, monkeypatch):
    banded = check()
    full_map = fo.apply_thermal_loss
    monkeypatch.setattr(fo, "apply_thermal_loss",
                        lambda state, mode, ch, max_offset=None: full_map(state, mode, ch))
    assert check() == banded


def test_optimal_weights_are_computed_once_per_shell(monkeypatch):
    # the MI check's 351 patterns have 26 distinct totals, 0 to 25
    calls, comb = [], math.comb
    monkeypatch.setattr(math, "comb", lambda *args: calls.append(args) or comb(*args))
    check_two_mode_optimal_input_mi()
    assert len(calls) == 26


def test_symplectic_check_makes_one_eigenvalue_call(monkeypatch):
    calls, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    assert check_symplectic_occupations().status == "pass"
    assert calls == [(105, 4, 4)]


def test_each_run_builds_its_own_corner_tables(monkeypatch):
    # nine lossy maps over three channels, one corner table per channel at
    # its largest cutoff, and none kept for the next run
    calls, corners = [], fo.beamsplitter_corners
    monkeypatch.setattr(fo, "beamsplitter_corners",
                        lambda *args: calls.append(args) or corners(*args))
    for _ in range(2):
        calls.clear()
        verification.run_all()
        assert calls == [(0.8, 28, 96), (0.7, 5, 38), (0.6, 24, 57)]


def test_checks_alone_equal_their_entries_in_run_all():
    # alone, each builds its own dilation at its own cutoff; in run_all the
    # _LOSS checks read the leading part of one built at 28 levels
    results = dict(zip(_ALL_CHECKS, verification.run_all()))
    for check in (check_fock_diagonal_vs_dilation, check_phase_average_diagonality,
                  check_discrete_phase_holevo, check_covariance_vs_dilation,
                  check_loss_dephasing_commutation):
        assert check() == results[check]
