"""Plumbing of the cross-check harness (the checks themselves run in
test_acceptance.py, once, since several build large truncated spaces)."""

import math

import numpy as np

from dephcap import fock_oracle as fo
from dephcap.thermal_loss import ThermalLossChannel
from dephcap.verification import (_ALL_CHECKS, CheckResult, _skipped,
                                  check_discrete_phase_holevo,
                                  check_phase_average_diagonality)


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

    def test_skipped_marker(self):
        res = _skipped("demo", "resource limit")
        assert res.status.startswith("skipped")
        assert "SKIP" in res.line().upper()


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
