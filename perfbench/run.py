"""Benchmark of the dephcap CLI: end-to-end timings, checked outputs, layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload dephasing-blocks --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Load is a closed loop with one client: each op is one in-process
``dephcap.cli.main(argv)`` call, made after the previous one returned.  The
benchmark starts no threads; the program's pool has the size
``workloads.POOL`` gives the workload.  A run measures set-up time in fresh
interpreters, runs one warm-up pass, then whole passes for about
``--seconds``.  ``--trace 1`` instead alternates untraced, traced and
other-pool-size passes and prints per-layer metrics.
The last line of standard output is one JSON object with the result.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_RUNS = 3

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# the verify checks of the seed commit, in run order
VERIFY_CHECKS = (
    "single_mode_thermal_identity", "two_mode_optimal_input_mi",
    "complementary_total_count", "fock_diagonal_vs_dilation",
    "phase_average_diagonality", "discrete_phase_holevo",
    "symplectic_occupations", "covariance_vs_dilation",
    "loss_dephasing_commutation", "dephasing_idempotence", "trace_preservation",
)
FOCK_ORACLE = ("apply_thermal_loss", "two_mode_covariance", "von_neumann_entropy",
               "apply_phase_shift")

# per-layer metric -> (unit, layer span name, total taken from that layer)
LAYER_SOURCES = {
    "dephasing_exact.solve_dephasing.calls": ("count", "dephasing_exact.solve_dephasing", "calls"),
    "dephasing_exact.solve_dephasing.busy_s": ("s", "dephasing_exact.solve_dephasing", "busy_s"),
    "dephasing_exact.solve_lambda.busy_s": ("s", "dephasing_exact.solve_lambda", "busy_s"),
    "dephasing_exact.optimal_total_distribution.busy_s":
        ("s", "dephasing_exact.optimal_total_distribution", "busy_s"),
    "dephasing_exact.optimal_total_distribution.terms":
        ("count", "dephasing_exact.optimal_total_distribution", "terms"),
    "special_math.series.calls": ("count", "special_math.series", "calls"),
    "special_math.series.busy_s": ("s", "special_math.series", "busy_s"),
    "photon_dist.build_from_log_pmf.calls": ("count", "photon_dist.build_from_log_pmf", "calls"),
    "photon_dist.build_from_log_pmf.busy_s": ("s", "photon_dist.build_from_log_pmf", "busy_s"),
    "bounds.thermal_total_photon_dist.calls": ("count", "bounds.thermal_total_photon_dist", "calls"),
    "bounds.thermal_total_photon_dist.busy_s": ("s", "bounds.thermal_total_photon_dist", "busy_s"),
    "bounds.thermal_total_photon_dist.terms": ("count", "bounds.thermal_total_photon_dist", "terms"),
    "bounds.entropy_total_exact.busy_s": ("s", "bounds.entropy_total_exact", "busy_s"),
    "phase_encoding.holevo_phase_encoding.busy_s":
        ("s", "phase_encoding.holevo_phase_encoding", "busy_s"),
    "phase_encoding.fock_diagonal.passes": ("count", "phase_encoding.kernel", "passes"),
    "phase_encoding.fock_diagonal.cutoff_cells":
        ("count", "phase_encoding.fock_diagonal", "cutoff_cells"),
    "phase_encoding.kernel_bytes_computed": ("B", "phase_encoding.kernel", "kernel_bytes"),
    "thermal_loss.calls": ("count", "thermal_loss", "calls"),
    "thermal_loss.busy_s": ("s", "thermal_loss", "busy_s"),
}
for _fn in FOCK_ORACLE:
    LAYER_SOURCES[f"fock_oracle.{_fn}.calls"] = ("count", f"fock_oracle.{_fn}", "calls")
    LAYER_SOURCES[f"fock_oracle.{_fn}.busy_s"] = ("s", f"fock_oracle.{_fn}", "busy_s")
for _check in VERIFY_CHECKS:
    LAYER_SOURCES[f"verification.{_check}.s"] = ("s", f"verification.{_check}", "busy_s")

PER_LAYER = {"cli.self_s": "s", "cli.pool_speedup": "ratio",
             **{name: src[0] for name, src in LAYER_SOURCES.items()},
             "trace.overhead_ratio": "ratio"}


def load_program():
    """Import dephcap from this checkout's src/, or exit 1 if it is not there."""
    src = ROOT / "src"
    if not (src / "dephcap" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'dephcap'}; run from a full checkout")
    sys.path.insert(0, str(src))
    dephcap = importlib.import_module("dephcap")
    importlib.import_module("dephcap.cli")
    if Path(dephcap.__file__).resolve().parent != (src / "dephcap").resolve():
        sys.exit(f"perfbench: imported dephcap from {dephcap.__file__}, not from {src}")
    return dephcap


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    rows: int
    error: str | None

    @property
    def wrong(self):
        return self.error is not None and self.error.startswith("wrong output")


def call(op, main, tracer=None):
    """Call ``main`` on the op's argv: (seconds, output, error or None).

    Whatever ``main`` raises or returns is recorded; only interrupts escape.
    The output is the printed text, or {file name: text} for fig3.
    """
    argv = list(op.argv)
    fig3_dir = None
    if op.kind == "fig3":
        fig3_dir = OUT_DIR / "fig3"
        shutil.rmtree(fig3_dir, ignore_errors=True)
        argv += ["--out-dir", str(fig3_dir)]
    out, err = io.StringIO(), io.StringIO()
    scope = tracer.op(op.key) if tracer else contextlib.nullcontext()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), scope:
            rc = main(argv)
    except (Exception, SystemExit) as exc:
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    if error is not None or fig3_dir is None:
        return seconds, out.getvalue(), error
    return seconds, {p.name: p.read_text() for p in fig3_dir.glob("*.csv")}, None


def checked(op, seconds, output, error, reference):
    rows = 0
    if error is None:
        try:
            rows = checks.check(op, output, reference.get(op.key))
        except (checks.CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
            error = f"wrong output: {type(exc).__name__}: {exc}"
    return OpResult(op, seconds, rows, error)


def run_op(op, main, reference, tracer=None):
    return checked(op, *call(op, main, tracer), reference)


def measure_setup(reference):
    """One fresh interpreter that imports the CLI and answers a closed-form query."""
    op = workloads.SETUP_OP
    code = ("import sys; sys.path.insert(0, 'src'); from dephcap import cli; "
            "sys.exit(cli.main(sys.argv[1:]))")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *op.argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    error = None
    if proc.returncode != 0:
        error = f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return checked(op, seconds, proc.stdout, error, reference)


def run_pass(ops, main, reference, tracer=None):
    start = time.perf_counter()
    results = [run_op(op, main, reference, tracer) for op in ops]
    return results, time.perf_counter() - start


@contextlib.contextmanager
def pool_size(workers):
    """Run with DEPH_NUM_THREADS set to ``workers``, or unset for None."""
    saved = os.environ.pop("DEPH_NUM_THREADS", None)
    if workers is not None:
        os.environ["DEPH_NUM_THREADS"] = workers
    try:
        yield
    finally:
        os.environ.pop("DEPH_NUM_THREADS", None)
        if saved is not None:
            os.environ["DEPH_NUM_THREADS"] = saved


def latency_stats(results):
    """(median op latency, median latency of the slowest op, sample count).

    Each op's latency is its median over the timed passes.  The median op
    latency is the median of those over the pass's ops, and the tail is the
    largest of them: a run makes too few passes for a percentile with ten
    samples beyond it.
    """
    by_op = {}
    for r in results:
        by_op.setdefault(r.op.key, []).append(r.seconds)
    per_op = [statistics.median(v) for v in by_op.values()]
    return statistics.median(per_op), max(per_op), len(results)


def environment(dephcap):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pool_workers": dephcap.cli._n_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('openblas configuration', blas.get('version', '?'))}",
    }


def _fmt(value):
    return f"{value:.6g}"


def run_workload(name, seed, seconds, trace, dephcap, reference):
    """Run one workload; print its report and return the result object."""
    ops, probe = workloads.passes(name, seed)
    main = dephcap.cli.main
    # the timed passes run at the workload's pool size; cli.pool_speedup
    # compares them with passes at the other one
    pool = workloads.POOL[name]
    other = None if pool else "1"
    print(f"== {name} seed={seed} seconds={seconds:g} trace={trace} "
          f"DEPH_NUM_THREADS={pool or 'unset'}")
    for op in ops:
        print(f"   op: {op.key}")

    # set-up samples are spread over the run, so that a slow spell of the
    # machine does not decide their median
    setup = [] if trace else [measure_setup(reference)]
    timed, others, walls = [], [], {"timed": [], "traced": [], "other": []}
    tracer = spans.Tracer()
    with pool_size(pool):
        warm, _ = run_pass(ops, main, reference)
        start = time.perf_counter()
        while True:
            res, wall = run_pass(ops, main, reference)
            timed.append(res)
            walls["timed"].append(wall)
            if trace:
                with tracer.installed(dephcap):
                    res, wall = run_pass(ops, main, reference, tracer)
                others += res
                walls["traced"].append(wall)
                with pool_size(other):
                    res, wall = run_pass(ops, main, reference)
                others += res
                walls["other"].append(wall)
                elapsed = time.perf_counter() - start
                step = elapsed / len(walls["timed"])
            else:
                elapsed = sum(walls["timed"])
                step = statistics.median(walls["timed"])
                if len(setup) < SETUP_RUNS and elapsed >= len(setup) * seconds / SETUP_RUNS:
                    setup.append(measure_setup(reference))
            # stop at the round boundary nearest to `seconds`
            if elapsed + 0.5 * step >= seconds:
                break
        while not trace and len(setup) < SETUP_RUNS:
            setup.append(measure_setup(reference))
        probed = [run_op(op, main, reference) for op in probe]

    results = [r for res in timed for r in res]
    counted = setup + results + others
    failed = [r for r in counted if r.error]
    for r in failed + warm:
        if r.error:
            print(f"   FAILED {r.op.key}: {r.error}")
    correct = not failed and not any(r.error for r in warm) and not any(r.wrong for r in probed)
    print(f"   passes: {len(walls['timed'])} timed"
          + (f", {len(walls['traced'])} traced, {len(walls['other'])} at "
             f"DEPH_NUM_THREADS={other or 'unset'}" if trace else "")
          + f"; ops attempted {len(counted)}, failed {len(failed)}"
          + f" (fail_ratio {len(failed) / len(counted):.4g})")
    for r in probed:
        print(f"   known-failing probe: {r.op.key}: "
              + ("now succeeds" if r.error is None else r.error.splitlines()[0]))

    if trace:
        metrics = layer_metrics(tracer, walls, pool)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(span_file)
        acc = spans.op_accounting(tracer.spans).values()
        print(f"   trace: {len(tracer.spans)} spans in {span_file.relative_to(ROOT)}; "
              f"op time {sum(a[0] for a in acc):.4f} s = child spans {sum(a[1] for a in acc):.4f} s"
              f" + cli self {sum(a[2] for a in acc):.4f} s; "
              f"peak threads {tracer.max_threads} (main + pool, nproc {os.cpu_count()})")
        units = PER_LAYER
    else:
        p50, tail, n = latency_stats(results)
        metrics = {
            "setup_s": statistics.median(r.seconds for r in setup),
            "points_per_s": statistics.median(sum(r.rows for r in res) / sum(r.seconds for r in res)
                                              for res in timed),
            "op_p50_s": p50,
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"   op latency: {n} samples, median {_fmt(p50)} s, "
              f"slowest op's median {_fmt(tail)} s; setup over {len(setup)} interpreters")
        units = END_TO_END
    for key, value in metrics.items():
        print(f"   {key:52s} {_fmt(value):>12s} {units[key]}")
    return {"correct": correct, "attempted": len(counted), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def layer_metrics(tracer, walls, pool):
    """Per-layer metrics per traced pass, from the recorded spans."""
    n = len(walls["traced"])
    totals = spans.layer_totals(tracer.spans)
    single, default = (walls["timed"], walls["other"]) if pool else (walls["other"], walls["timed"])
    metrics = {
        "cli.self_s": sum(a[2] for a in spans.op_accounting(tracer.spans).values()) / n,
        "cli.pool_speedup": statistics.median(single) / statistics.median(default),
    }
    for metric, (_, layer, key) in LAYER_SOURCES.items():
        metrics[metric] = totals.get(layer, {}).get(key, 0) / n
    metrics["trace.overhead_ratio"] = (statistics.median(walls["traced"])
                                       / statistics.median(walls["timed"]))
    return metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_each(args):
    """Run every workload in a process of its own and merge their results.

    Each child's peak RSS is then that workload's alone.
    """
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return final


def main(argv=None):
    args = parse_args(argv)
    dephcap = load_program()
    if args.workload == "all":
        print(json.dumps(run_each(args)))
        return
    # each workload sets the pool size it is measured at (workloads.POOL)
    os.environ.pop("DEPH_NUM_THREADS", None)
    reference = json.loads(REFERENCE.read_text())
    print("environment: " + json.dumps(environment(dephcap)))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, dephcap, reference)
    shutil.rmtree(OUT_DIR / "fig3", ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
