"""Command-line front end: sweeps, figure data, and machine-readable reports.

Exit codes: 0 success, 1 usage or domain error, 2 numerical failure
(contract violation, failed verification check, unconverged solve or
exhausted memory), 3 I/O failure.  A nonzero exit prints one ``error:`` line
on stderr, and nothing on stdout but ``verify``'s check lines.

Output is deterministic for a given flag set: rows are emitted in grid
order and every float is formatted at 12 significant digits.  A sweep runs
one contiguous chunk of its grid per pool worker (capped by DEPH_NUM_THREADS).

Each command imports the numerical modules it uses in its own body, so the
closed-form thermal-loss commands and --help start without numpy.
"""

import argparse
import json
import math
import os
import sys

from . import thermal_loss
from .errors import ContractViolation, SolverError
from .scalar_math import check_block, thermal_entropy_g
from .thermal_loss import ThermalLossChannel


def _fmt(x):
    return f"{x:.12g}"


def _round_floats(obj):
    """Round floats to the 12-significant-digit output convention."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


# Most pool workers a sweep starts, one OS thread each
MAX_WORKERS = 64


def _n_workers():
    raw = os.environ.get("DEPH_NUM_THREADS")
    if raw is None:
        return min(8, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if not 1 <= n <= MAX_WORKERS:
        raise ValueError(
            f"DEPH_NUM_THREADS must be an integer from 1 to {MAX_WORKERS}, got {raw!r}")
    return n


def _parallel_map(func, items):
    items = list(items)
    workers = min(_n_workers(), max(1, len(items)))
    if workers == 1:
        return func(items)
    cuts = [len(items) * k // workers for k in range(workers + 1)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(func, [items[a:b] for a, b in zip(cuts, cuts[1:])])
        return [row for part in parts for row in part]


# Most points one sweep evaluates, counted before any list is built
MAX_SWEEP_POINTS = 100_000


def parse_mode_grid(spec):
    """Parse --modes: a single number or a log grid 'START:STOP:K/dec'.

    The grid places K points per decade at exponents lo + j/K, both
    endpoints included, e.g. '1e1:1e7:10/dec' gives 61 values.  A single
    count, START and STOP go to check_block as real mode counts, and a grid
    may hold at most MAX_SWEEP_POINTS points.
    """
    spec = spec.strip()
    if ":" not in spec:
        try:
            value = float(spec)
        except ValueError:
            raise ValueError(f"cannot parse mode count {spec!r}")
        return [check_block(value, 0.0, integer=False)[0]]
    parts = spec.split(":")
    if len(parts) != 3 or not parts[2].endswith("/dec"):
        raise ValueError(f"mode grid must look like 'START:STOP:K/dec', got {spec!r}")
    try:
        start, stop, per_dec = float(parts[0]), float(parts[1]), int(parts[2][:-4])
    except ValueError:
        raise ValueError(f"cannot parse mode grid {spec!r}")
    for value in (start, stop):
        check_block(value, 0.0, integer=False)
    if not start < stop or per_dec < 1:
        raise ValueError(f"mode grid needs START < STOP and K >= 1, got {spec!r}")
    lo, hi = math.log10(start), math.log10(stop)
    try:
        n_steps = math.floor((hi - lo) * per_dec + 1e-9)
    except OverflowError:  # K beyond the float range
        n_steps = math.inf
    if n_steps + 1 > MAX_SWEEP_POINTS:
        raise ValueError(f"mode grid {spec!r} exceeds the limit of "
                         f"{MAX_SWEEP_POINTS} points per sweep")
    return [10.0 ** (lo + j / per_dec) for j in range(n_steps + 1)]


def _entropies(bounds, grid, energy):
    """(exact, asymptotic) entropy in bits of the total count of each m in grid.

    Every dephased lower bound per mode is R - H/m, with R the assisted
    capacity (also the upper bound) or the phase-encoding rate chi.
    """
    return list(zip(bounds.entropy_total_exact(grid, energy),
                    [bounds.entropy_total_asym(m, energy) for m in grid]))


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)


def _emit_csv(header, rows, out):
    lines = [",".join(header)]
    lines += [",".join(_fmt(float(v)) for v in row) for row in rows]
    _write("\n".join(lines) + "\n", out)


def _emit_json(obj, out):
    _write(json.dumps(_round_floats(obj), indent=2) + "\n", out)


def cmd_capacity(pure_deph, thermal, kappa, nb, energy, modes, out):
    """Assisted and unassisted capacity of one channel, as a JSON record."""
    if pure_deph == thermal:
        raise ValueError("choose exactly one of --pure-dephasing / --thermal-loss")
    if pure_deph:
        if kappa != 1.0 or nb != 0.0:
            raise ValueError("--kappa and --nb apply to --thermal-loss only")
        from . import dephasing_exact
        m, *grid = parse_mode_grid("1" if modes is None else modes)
        if grid:
            raise ValueError("this command takes a single mode count, not a grid")
        sol = dephasing_exact.solve_dephasing(m, energy)  # refuses m > MAX_MODES
        window = sol.window()
        report = {
            "channel": {"kind": "pure-dephasing", "modes": sol.m, "energy": energy},
            "ea_total": sol.capacity,
            "ea_per_mode": sol.capacity_per_mode,
            "hsw_total": sol.m * thermal_entropy_g(energy),
            "ratio": sol.unassisted_ratio,
            "intermediates": {
                "lambda1": sol.lambda1,
                "mean_achieved": sol.mean,
                "support": window.cutoff,
                "tail_bound": window.tail_bound,
            },
        }
    else:
        if modes is not None:
            raise ValueError("--modes applies to --pure-dephasing only")
        ch = ThermalLossChannel(kappa, nb)
        rep = thermal_loss.capacity_report(ch, energy)
        report = {
            "channel": {"kind": "thermal-loss", "kappa": kappa, "nb": nb,
                        "energy": energy},
            "ea": rep.ea,
            "hsw": rep.hsw,
            "ratio": rep.ratio,
            "intermediates": {
                "e_prime": rep.e_prime,
                "big_d": rep.big_d,
                "a_plus": rep.a_plus,
                "a_minus": rep.a_minus,
            },
        }
    _emit_json(report, out)


_FIG2_HEADER = ("m", "exact_ratio", "lower_bound_ratio", "asym_lower_ratio", "upper_ratio")


def cmd_fig2(energy, m_max, out):
    """Capacity gain of joint phase references: ratios over m*g(E) for m=1..M."""
    from . import bounds, dephasing_exact
    if m_max > MAX_SWEEP_POINTS:
        raise ValueError(f"--m-max exceeds the limit of {MAX_SWEEP_POINTS} "
                         "points per sweep")
    check_block(m_max, energy)
    if energy == 0.0:
        raise ValueError("fig2 divides by g(E), which is 0 at E = 0")
    rep = thermal_loss.capacity_report(ThermalLossChannel(1.0, 0.0), energy)
    ea, baseline_one = rep.ea, rep.hsw  # hsw is g(E) without loss
    points = _parallel_map(
        lambda ms: list(zip([dephasing_exact.solve_dephasing(m, energy) for m in ms],
                            _entropies(bounds, ms, energy))),
        range(1, m_max + 1))
    # solve_dephasing reports total bits over the block, the bounds per-mode
    # bits; every ratio is per mode over g(E)
    rows = [(float(m), sol.capacity / (m * baseline_one),
             (ea - h_exact / m) / baseline_one, (ea - h_asym / m) / baseline_one, 2.0)
            for m, (sol, (h_exact, h_asym)) in enumerate(points, start=1)]
    slack = 1e-12
    prev = 0.0
    for m, exact, lower, _, _ in rows:
        if not lower <= exact + slack:
            raise ContractViolation(
                f"lower bound {lower} exceeds exact ratio {exact} at m={m:g}")
        if not exact > prev:
            raise ContractViolation(
                f"exact ratio is not strictly increasing at m={m:g}")
        prev = exact
    _emit_csv(_FIG2_HEADER, rows, out)


_FIG3_HEADER = ("m", "upper_ratio", "lb_ratio", "lb_asym_ratio",
                "chi_lb_ratio", "chi_lb_asym_ratio")
_FIG3_NB = (10.0, 1.0, 0.1, 0.01)  # one sweep and one file each; a --nb replaces them


def cmd_fig3(kappa, energy, modes, out_dir, nb=_FIG3_NB):
    """Capacity bounds vs mode count, one file per noise level.

    All columns are normalized by the unassisted capacity of the loss
    channel alone.  Asymptotic columns are NaN where the Gaussian entropy
    approximation is out of regime (variance too small).
    """
    from . import bounds, phase_encoding
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ValueError(f"--out-dir {out_dir} is not a directory")
    paths = {}
    for n_b in nb:  # values that format alike would overwrite one file
        path = os.path.join(out_dir, f"fig3_nb{n_b:g}.csv")
        if path in paths:
            raise ValueError(f"--nb {paths[path]!r} and --nb {n_b!r} both write {path}")
        paths[path] = n_b
    grid = parse_mode_grid(modes)
    if energy == 0.0:
        raise ValueError("fig3 divides by the unassisted capacity, which is 0 at E = 0")
    curves = []
    for n_b in nb:
        ch = ThermalLossChannel(kappa, n_b)
        rep = thermal_loss.capacity_report(ch, energy)
        chi = phase_encoding.holevo_phase_encoding(energy, ch)
        curves.append((rep.hsw, rep.ea, chi))
    # the total-count entropies do not depend on the noise level: one each
    entropies = _parallel_map(lambda ms: _entropies(bounds, ms, energy), grid)
    # every curve passed its guards above, before the first file is written
    tables = [[(m, ea / hsw, (ea - h_exact / m) / hsw, (ea - h_asym / m) / hsw,
                (chi - h_exact / m) / hsw, (chi - h_asym / m) / hsw)
               for m, (h_exact, h_asym) in zip(grid, entropies)]
              for hsw, ea, chi in curves]
    os.makedirs(out_dir, exist_ok=True)
    for path, rows in zip(paths, tables):
        _emit_csv(_FIG3_HEADER, rows, path)


_BOUNDS_HEADER = ("m", "upper", "lower", "lower_asym", "entropy_exact",
                  "entropy_asym", "baseline")


def cmd_bounds(kappa, nb, energy, modes, out, fmt):
    """Sandwich of the dephased-channel capacity per mode, in bits."""
    from . import bounds
    grid = parse_mode_grid(modes)
    rep = thermal_loss.capacity_report(ThermalLossChannel(kappa, nb), energy)
    upper, baseline = rep.ea, rep.hsw
    entropies = _parallel_map(lambda ms: _entropies(bounds, ms, energy), grid)
    rows = [(m, upper, upper - h_exact / m, upper - h_asym / m, h_exact, h_asym,
             baseline) for m, (h_exact, h_asym) in zip(grid, entropies)]
    if fmt == "json":
        _emit_json([{"m": m, "kappa": kappa, "n_b": nb, "energy": energy,
                     **dict(zip(_BOUNDS_HEADER[1:], rest))} for m, *rest in rows], out)
    else:
        _emit_csv(_BOUNDS_HEADER, rows, out)


def cmd_phase_encoding(kappa, nb, energy, modes, out, fmt):
    """Holevo rate of phase-modulated entangled states on the loss channel."""
    from . import bounds, phase_encoding
    ch = ThermalLossChannel(kappa, nb)
    chi = phase_encoding.holevo_phase_encoding(energy, ch)
    ea = thermal_loss.capacity_report(ch, energy).ea
    report = {
        "kappa": kappa, "nb": nb, "energy": energy,
        "chi": chi, "ea": ea,
        "correction": ea - chi,
        "relative_correction": (ea - chi) / ea if ea > 0.0 else math.nan,
    }
    mode_rows = None
    if modes is not None:
        grid = parse_mode_grid(modes)
        entropies = _parallel_map(lambda ms: _entropies(bounds, ms, energy), grid)
        mode_rows = [(m, chi - h_exact / m, chi - h_asym / m)
                     for m, (h_exact, h_asym) in zip(grid, entropies)]
    if fmt == "json":
        if mode_rows is not None:
            report["with_dephasing"] = [
                {"m": m, "chi_lb": lb, "chi_lb_asym": lb_asym}
                for m, lb, lb_asym in mode_rows]
        _emit_json(report, out)
    elif mode_rows is not None:
        _emit_csv(("m", "chi_lb", "chi_lb_asym"), mode_rows, out)
    else:
        _emit_csv(("kappa", "nb", "energy", "chi", "ea", "relative_correction"),
                  [(kappa, nb, energy, chi, ea, report["relative_correction"])], out)


def cmd_verify():
    """Run the brute-force cross-check suite and print one line per check."""
    from . import verification
    results = verification.run_all()
    for res in results:
        print(res.line())
    n_fail = sum(1 for r in results if r.status == "fail")
    # a check that raises ends verify; "0 skipped" stays for perfbench/checks.py
    print(f"{len(results) - n_fail} passed, {n_fail} failed, 0 skipped")
    if n_fail:
        raise ContractViolation(f"{n_fail} verification check(s) failed")


class _Parser(argparse.ArgumentParser):
    """argparse that raises ValueError, which main prints as one error line."""

    def error(self, message):
        raise ValueError(message)

    def _parse_optional(self, arg_string):
        # -1e-3 and -inf are values for the photon-number checks, not options
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _file_path(path):
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    return path


_SHARED = {  # the options several commands share: dest -> (flags, help, settings)
    "kappa": (("-k", "--kappa"), "transmissivity", {"type": float}),
    "nb": (("--nb",), "added noise photons", {"type": float}),
    "energy": (("-E", "--energy"), "mean photon number per mode", {"type": float}),
    "modes": (("-m", "--modes"), "mode count, or a log grid 'START:STOP:K/dec'", {}),
    "out": (("--out",), "write to this file, not stdout", {"type": _file_path}),
    "fmt": (("--format",), "output format", {"choices": ("csv", "json")}),
}


def _build_parser():
    parser = _Parser(prog="dephcap", allow_abbrev=False, description="Capacities of "
                     "lossy bosonic channels under collective phase noise.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, required=(), **defaults):
        sub = commands.add_parser(name, allow_abbrev=False, description=run.__doc__,
                                  help=run.__doc__.splitlines()[0])
        sub.set_defaults(run=run)
        for dest in (*required, *defaults):
            flags, text, settings = _SHARED[dest]
            default = defaults.get(dest)
            sub.add_argument(*flags, dest=dest, required=dest in required, default=default,
                             help=text if default is None else f"{text} (default: {default})",
                             **settings)
        return sub

    capacity = command("capacity", cmd_capacity, ["energy"], kappa=1.0, nb=0.0, modes=None,
                       out=None)
    capacity.add_argument("--pure-dephasing", dest="pure_deph", action="store_true",
                          help="m-mode channel applying one uniformly random phase")
    capacity.add_argument("--thermal-loss", dest="thermal", action="store_true",
                          help="single-mode loss with added thermal noise")
    command("fig2", cmd_fig2, energy=1.0, out=None).add_argument(
        "--m-max", type=int, default=20, help="largest mode count (default: 20)")
    fig3 = command("fig3", cmd_fig3, kappa=0.8, energy=0.001, modes="1e1:1e7:10/dec")
    fig3.add_argument("--nb", type=float, action="append", default=argparse.SUPPRESS,
                      help=f"one CSV file each (default: {' '.join(map(_fmt, _FIG3_NB))})")
    fig3.add_argument("--out-dir", default=".", help="where the CSV files go (default: .)")
    command("bounds", cmd_bounds, ["kappa", "energy", "modes"], nb=0.0, out=None, fmt="csv")
    command("phase-encoding", cmd_phase_encoding, ["kappa", "energy"], nb=0.0, modes=None,
            out=None, fmt="json")
    command("verify", cmd_verify)
    return parser


_PARSER = _build_parser()


def main(argv=None):
    """Run the CLI without exiting the interpreter; returns the exit code."""
    try:
        args = vars(_PARSER.parse_args(argv))
        args.pop("run")(**args)
        return 0
    except SystemExit as exc:  # --help printed its text
        return exc.code
    except (ContractViolation, SolverError) as exc:
        code, message = 2, exc
    except MemoryError as exc:
        detail = " ".join(str(exc).split())
        code, message = 2, f"out of memory{': ' + detail if detail else ''}"
    except OSError as exc:
        code, message = 3, exc
    except ValueError as exc:
        code, message = 1, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
