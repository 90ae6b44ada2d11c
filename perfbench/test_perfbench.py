"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

import checks
import run
import spans
import workloads

REFERENCE = json.loads(run.REFERENCE.read_text())

# the metric names the benchmark was specified with
END_TO_END = {"setup_s", "points_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"}
PER_LAYER = {
    "cli.self_s", "cli.pool_speedup",
    "dephasing_exact.solve_dephasing.calls", "dephasing_exact.solve_dephasing.busy_s",
    "dephasing_exact.solve_lambda.busy_s",
    "dephasing_exact.optimal_total_distribution.busy_s",
    "dephasing_exact.optimal_total_distribution.terms",
    "special_math.series.calls", "special_math.series.busy_s",
    "photon_dist.build_from_log_pmf.calls", "photon_dist.build_from_log_pmf.busy_s",
    "bounds.thermal_total_photon_dist.calls", "bounds.thermal_total_photon_dist.busy_s",
    "bounds.thermal_total_photon_dist.terms", "bounds.entropy_total_exact.busy_s",
    "phase_encoding.holevo_phase_encoding.busy_s", "phase_encoding.fock_diagonal.passes",
    "phase_encoding.fock_diagonal.cutoff_cells", "phase_encoding.kernel_bytes_computed",
    "thermal_loss.calls", "thermal_loss.busy_s",
    *(f"fock_oracle.{fn}.{key}" for fn in ("apply_thermal_loss", "two_mode_covariance",
                                           "von_neumann_entropy", "apply_phase_shift")
      for key in ("calls", "busy_s")),
    *(f"verification.{check}.s" for check in (
        "single_mode_thermal_identity", "two_mode_optimal_input_mi",
        "complementary_total_count", "fock_diagonal_vs_dilation",
        "phase_average_diagonality", "discrete_phase_holevo", "symplectic_occupations",
        "covariance_vs_dilation", "loss_dephasing_commutation", "dephasing_idempotence",
        "trace_preservation")),
    "trace.overhead_ratio",
}

RECORDED = [workloads.SETUP_OP] + [
    op for name in workloads.WORKLOADS for op in workloads.passes(name, 0)[0]]


def printing(text_for):
    """A stand-in for cli.main that prints the recorded output of each op."""
    def main(argv):
        if argv[0] == "fig3":
            out_dir = argv[argv.index("--out-dir") + 1]
            os.makedirs(out_dir, exist_ok=True)
            parts = re.split(r"^== (\S+) ==\n", text_for("fig3"), flags=re.M)[1:]
            for name, text in zip(parts[::2], parts[1::2]):
                with open(os.path.join(out_dir, name), "w") as fh:
                    fh.write(text)
        else:
            print(text_for(" ".join(argv)), end="")
        return 0
    return main


def corrupt(text):
    """Change the third significant digit of the first field that has one."""
    for match in checks._NUMBER.finditer(text):
        token = match.group()
        if token.lstrip("+-")[:1].isalpha() or abs(float(token)) < 1e-3:
            continue
        mantissa = re.split("[eE]", token)[0]
        positions = [i for i, c in enumerate(mantissa) if c.isdigit()]
        first = next((k for k, i in enumerate(positions) if mantissa[i] != "0"), None)
        if first is None or len(positions) - first < 4:
            continue
        i = match.start() + positions[first + 2]
        return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    raise AssertionError("no field to corrupt")


@pytest.mark.parametrize("op", RECORDED, ids=lambda op: op.key)
def test_corrupted_digit_is_a_failed_op(op):
    good = run.run_op(op, printing(REFERENCE.get), REFERENCE)
    assert good.error is None and good.rows > 0
    bad_text = corrupt(REFERENCE[op.key])
    bad = run.run_op(op, printing(lambda key: bad_text), REFERENCE)
    assert bad.wrong and bad.rows == 0, bad


def test_verify_value_drift_within_the_program_tolerance_is_caught():
    # the Holevo value moved at its 7th digit: well inside verify's own
    # tol of 1e-3, far outside the recorded 1e-10
    op, = workloads.passes("verify-oracle", 0)[0]
    text = REFERENCE[op.key].replace("value=+2.484742143181e-01", "value=+2.484742943181e-01")
    assert text != REFERENCE[op.key]
    bad = run.run_op(op, printing(lambda key: text), REFERENCE)
    assert bad.wrong and "discrete-phase Holevo" in bad.error


def test_law_cutoff_fields_are_not_held_to_the_reference():
    op = workloads.capacity_dephasing(5000, 10.0)
    rep = json.loads(REFERENCE[op.key])
    rep["intermediates"]["support"] = 1234
    rep["intermediates"]["tail_bound"] = 1e-13
    narrower = json.dumps(rep)
    assert run.run_op(op, printing(lambda key: narrower), REFERENCE).error is None
    rep["intermediates"]["tail_bound"] = 1e-11
    looser = json.dumps(rep)
    assert run.run_op(op, printing(lambda key: looser), REFERENCE).wrong


@pytest.mark.parametrize("outcome", [MemoryError(), ValueError("mass 1.0000000000013"),
                                     SystemExit(3), 1, 2])
def test_raising_op_is_a_failed_op(outcome):
    def main(argv):
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome
    op = workloads.capacity_dephasing(5000, 10.0)
    result = run.run_op(op, main, REFERENCE)
    assert result.error is not None and not result.wrong and result.rows == 0


def test_failed_ops_are_counted_not_fatal():
    def main(argv):
        if argv[0] == "fig2":
            raise MemoryError
        return printing(REFERENCE.get)(argv)
    program = SimpleNamespace(cli=SimpleNamespace(main=main))
    result = run.run_workload("dephasing-blocks", 0, 0.01, 0, program, REFERENCE)
    timed = result["attempted"] - run.SETUP_RUNS
    assert timed > 0 and timed % 3 == 0
    assert result["failed"] == 2 * timed // 3
    assert not result["correct"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_passes_run_at_the_workload_pool_size(workload):
    seen = []
    def main(argv):
        seen.append(os.environ.get("DEPH_NUM_THREADS"))
        return printing(REFERENCE.get)(argv)
    program = SimpleNamespace(cli=SimpleNamespace(main=main))
    result = run.run_workload(workload, 0, 0.01, 0, program, REFERENCE)
    assert result["attempted"] > 0 and seen
    assert set(seen) == {workloads.POOL[workload]}
    assert "DEPH_NUM_THREADS" not in os.environ


def test_metric_names_match_the_specification():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} == END_TO_END == set(run.END_TO_END)
    assert {m["name"] for m in bench["per_layer"]} == PER_LAYER == set(run.PER_LAYER)
    for section, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in bench[section]} == units


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_result_carries_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dephasing-blocks",
         "--seed", "5", "--seconds", "0.01", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", ["dephasing-blocks", "large-m-sweeps"])
def test_no_run_starts_more_threads_than_nproc(workload):
    dephcap = run.load_program()
    tracer = spans.Tracer()
    ops, _ = workloads.passes(workload, 0)
    with tracer.installed(dephcap):
        results, _ = run.run_pass(ops, dephcap.cli.main, REFERENCE, tracer)
    assert all(r.error is None for r in results)
    assert tracer.max_threads - 1 <= os.cpu_count()
    threads = {s.thread for s in tracer.spans}
    assert (len(threads) > 1) == (os.cpu_count() > 1)
    assert threading.active_count() == 1
    # child spans plus the op's self time account for each op's time
    for duration, covered, self_s in spans.op_accounting(tracer.spans).values():
        assert 0.0 <= self_s <= duration and covered + self_s == pytest.approx(duration)
