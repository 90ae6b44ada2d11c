"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion detail lines even on success).
"""

import json
import math
import time

import pytest

from dephcap import cli, verification
from dephcap.bounds import thermal_total_photon_dist
from dephcap.dephasing_exact import solve_dephasing
from dephcap.phase_encoding import fock_diagonal, holevo_phase_encoding
from dephcap.scalar_math import thermal_entropy_g
from dephcap.thermal_loss import ThermalLossChannel, ea_capacity, hsw_capacity

MODE_GRID = [10.0 ** (1.0 + j / 10.0) for j in range(61)]  # 10^1 .. 10^7


def _verdict(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def crosschecks():
    return {r.name: r for r in verification.run_all()}


@pytest.fixture(scope="module")
def fig2_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2") / "fig2.csv"
    start = time.perf_counter()
    rc = cli.main(["fig2", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return rows, elapsed


def test_criterion_1_single_mode_identity():
    worst = max(
        abs(solve_dephasing(1, e).capacity - thermal_entropy_g(e))
        for e in (0.1, 1.0, 10.0))
    _verdict(1, worst <= 1e-10,
             f"single-mode assisted capacity equals g(E), worst |diff|={worst:.2e}")


def test_criterion_2_ratio_curve(fig2_table):
    rows, elapsed = fig2_table
    exact = [r[1] for r in rows]
    increasing = all(b > a for a, b in zip(exact, exact[1:]))
    bounded = all(r <= 2.0 + 1e-12 for r in exact)
    starts_at_one = abs(exact[0] - 1.0) <= 1e-9
    reaches_target = exact[-1] >= 1.86
    fast_enough = elapsed < 10.0
    ok = increasing and bounded and starts_at_one and reaches_target and fast_enough
    _verdict(2, ok,
             f"ratio strictly increasing={increasing}, <=2={bounded}, "
             f"start={exact[0]:.6f}, m=20 value={exact[-1]:.4f}, "
             f"runtime={elapsed:.2f}s")


def test_criterion_3_encoding_gap(fig2_table):
    rows, _ = fig2_table
    gaps = [(r[1] - r[2]) / r[1] for r in rows[1:]]  # m = 2 .. 20
    ok = all(0.0 < gap <= 0.01 for gap in gaps)
    _verdict(3, ok,
             f"relative gap to the entangled-input bound in (0, 1%]: "
             f"max={max(gaps):.4%} at m={2 + gaps.index(max(gaps))}")


def test_criterion_4_lossless_reductions(crosschecks):
    worst_ea = max(
        abs(ea_capacity(ThermalLossChannel(1.0, 0.0), e)
            - 2.0 * thermal_entropy_g(e)) for e in (0.01, 0.1, 1.0, 10.0))
    worst_hsw = max(
        abs(hsw_capacity(ThermalLossChannel(1.0, 0.0), e)
            - thermal_entropy_g(e)) for e in (0.01, 0.1, 1.0, 10.0))
    sym = crosschecks["symplectic occupations vs intermediates"]
    ok = worst_ea <= 1e-12 and worst_hsw <= 1e-12 and sym.status == "pass"
    _verdict(4, ok,
             f"|ea-2g|={worst_ea:.2e}, |hsw-g|={worst_hsw:.2e}, "
             f"symplectic pair identity delta={sym.delta:.2e} (grid)")


@pytest.mark.parametrize("n_b", [10.0, 1.0, 0.1, 0.01])
def test_criterion_5_bounds_sweeps(n_b, capsys):
    start = time.perf_counter()
    rc = cli.main(["bounds", "-k", "0.8", "--nb", f"{n_b:g}", "-E", "0.001",
                   "-m", "1e1:1e7:10/dec", "--format", "json"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["m"] for r in reports] == pytest.approx(MODE_GRID, rel=1e-11)
    ordered = all(r["lower"] <= r["upper"] + 1e-12 for r in reports)
    rel = [abs(r["entropy_exact"] - r["entropy_asym"]) / r["entropy_exact"]
           for r in reports if r["m"] >= 1e4 - 1e-6]
    asym_close = all(v < 0.01 for v in rel)
    detail = (f"N_B={n_b:g}: lower<=upper={ordered}, "
              f"max |H_exact-H_asym|/H_exact for m>=1e4: {max(rel):.3%}, "
              f"sweep={elapsed:.2f}s")
    if n_b == 10.0:
        # Saturation scale: first grid point where the sandwich closes to 5%.
        m_sat = next(r["m"] for r in reports
                     if (r["upper"] - r["lower"]) / r["upper"] <= 0.05)
        detail += f", 5% saturation at m={m_sat:.4g}"
        ok = (ordered and asym_close and elapsed < 30.0
              and 10.0**4.5 <= m_sat <= 10.0**5.5)
    else:
        ok = ordered and asym_close and elapsed < 30.0
    _verdict(5, ok, detail)


def test_criterion_6_phase_encoding_optimality():
    ch_noisy = ThermalLossChannel(0.8, 10.0)
    ea_noisy = ea_capacity(ch_noisy, 0.001)
    rel_noisy = (ea_noisy - holevo_phase_encoding(0.001, ch_noisy)) / ea_noisy
    ch_quiet = ThermalLossChannel(0.8, 0.01)
    ea_quiet = ea_capacity(ch_quiet, 0.001)
    rel_quiet = (ea_quiet - holevo_phase_encoding(0.001, ch_quiet)) / ea_quiet
    ok = 0.0 < rel_noisy < 0.01 and rel_quiet > 0.01
    _verdict(6, ok,
             f"relative correction {rel_noisy:.3%} at N_B=10 (<1%), "
             f"{rel_quiet:.3%} at N_B=0.01 (>1%)")


_ORACLE_CHECKS = (
    ("a", "two-mode optimal-input MI vs capacity"),
    ("b", "complementary dephasing output law"),
    ("c", "joint Fock diagonal vs dilation"),
    ("d", "phase-averaged state diagonality"),
    ("e", "discrete-phase Holevo information"),
)


@pytest.mark.parametrize("part, name", _ORACLE_CHECKS)
def test_criterion_7_oracle_equivalence(crosschecks, part, name):
    res = crosschecks[name]
    _verdict(f"7{part}", res.status == "pass",
             f"{name}: delta={res.delta:.2e} tol={res.tolerance:.0e}")


def test_criterion_8_structural_invariants(crosschecks):
    idem = crosschecks["dephasing idempotence"]
    commute = crosschecks["loss commutes with dephasing"]
    trace = crosschecks["trace preservation"]
    windows = [
        thermal_total_photon_dist(1e5, 0.001),
        thermal_total_photon_dist(1e7, 0.001),
        solve_dephasing(3, 1.0).window(),
    ]
    # a window's sums are over its own mass; what it omits is below tail_bound
    mass_ok = all(0.0 <= w.tail_bound <= 1e-10 for w in windows)
    jd = fock_diagonal(0.001, ThermalLossChannel(0.8, 10.0))
    joint_ok = (jd.probs.sum() <= 1.0 + 1e-10
                and jd.probs.sum() + jd.tail_bound >= 1.0 - 1e-10)
    ok = (idem.status == "pass" and idem.delta == 0.0
          and commute.status == "pass" and trace.status == "pass"
          and mass_ok and joint_ok)
    _verdict(8,
             ok,
             f"idempotence delta={idem.delta:.1e} (exact), "
             f"commutation delta={commute.delta:.2e}, "
             f"trace delta={trace.delta:.2e}, "
             f"normalization within 1e-10 incl. tails={mass_ok and joint_ok}")
