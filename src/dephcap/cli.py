"""Command-line front end: sweeps, figure data, and machine-readable reports.

Exit codes: 0 success, 1 usage or domain error, 2 numerical failure
(contract violation, failed verification check, unconverged solve or
exhausted memory), 3 I/O failure.

Output is deterministic for a given flag set: rows are emitted in grid
order and every float is formatted at 12 significant digits.  Sweep points
are evaluated through a parallel map (capped by DEPH_NUM_THREADS) but
assembled in input order regardless of completion order.

Each command imports the numerical modules it uses in its own body, so the
closed-form thermal-loss commands and --help start without numpy.
"""

import json
import math
import os
import sys

import click

from . import thermal_loss
from .errors import ContractViolation, SolverError
from .scalar_math import thermal_entropy_g
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


def _n_workers():
    raw = os.environ.get("DEPH_NUM_THREADS")
    if raw is None:
        return min(8, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        raise click.UsageError(
            f"DEPH_NUM_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise click.UsageError(
            f"DEPH_NUM_THREADS must be a positive integer, got {raw!r}")
    return n


def _parallel_map(func, items):
    items = list(items)
    workers = min(_n_workers(), max(1, len(items)))
    if workers == 1 or len(items) == 1:
        return [func(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


# Most points one sweep evaluates, counted before any list is built
MAX_SWEEP_POINTS = 100_000
# Most modes of one pure-dephasing block: the solve holds a few floats per
# mode, and a certified law's window stops at the same 1e7 terms
MAX_MODES = 10_000_000


def parse_mode_grid(spec):
    """Parse --modes: a single number or a log grid 'START:STOP:K/dec'.

    The grid places K points per decade at exponents lo + j/K, both
    endpoints included, e.g. '1e1:1e7:10/dec' gives 61 values.  Values must
    be finite, and a grid may hold at most MAX_SWEEP_POINTS points.
    """
    spec = spec.strip()
    if ":" not in spec:
        try:
            value = float(spec)
        except ValueError:
            raise click.UsageError(f"cannot parse mode count {spec!r}")
        if not value >= 1.0:
            raise click.UsageError(f"mode count must be >= 1, got {spec!r}")
        if value == math.inf:
            raise click.UsageError(f"mode count must be finite, got {spec!r}")
        return [value]
    parts = spec.split(":")
    if len(parts) != 3 or not parts[2].endswith("/dec"):
        raise click.UsageError(
            f"mode grid must look like 'START:STOP:K/dec', got {spec!r}")
    try:
        start = float(parts[0])
        stop = float(parts[1])
        per_dec = int(parts[2][:-4])
    except ValueError:
        raise click.UsageError(f"cannot parse mode grid {spec!r}")
    if not (1.0 <= start < stop) or per_dec < 1:
        raise click.UsageError(
            f"mode grid needs 1 <= START < STOP and K >= 1, got {spec!r}")
    if stop == math.inf:
        raise click.UsageError(f"mode grid needs a finite STOP, got {spec!r}")
    lo, hi = math.log10(start), math.log10(stop)
    try:
        n_steps = math.floor((hi - lo) * per_dec + 1e-9)
    except OverflowError:  # K beyond the float range
        n_steps = math.inf
    if n_steps + 1 > MAX_SWEEP_POINTS:
        raise click.UsageError(f"mode grid {spec!r} exceeds the limit of "
                               f"{MAX_SWEEP_POINTS} points per sweep")
    return [10.0 ** (lo + j / per_dec) for j in range(n_steps + 1)]


def _single_integer_modes(spec):
    values = parse_mode_grid(spec)
    if len(values) != 1:
        raise click.UsageError("this command takes a single mode count, not a grid")
    m = values[0]
    if m > MAX_MODES:
        raise click.UsageError(f"mode count {spec!r} exceeds the limit of {MAX_MODES} modes")
    if abs(m - round(m)) > 1e-9:
        raise click.UsageError(f"mode count must be an integer, got {m}")
    return int(round(m))


def _entropies(bounds, m, energy):
    """(exact, asymptotic) entropy in bits of an m-mode block's total count.

    Every dephased lower bound per mode is R - H/m, with R the assisted
    capacity (also the upper bound) or the phase-encoding rate chi.
    """
    return bounds.entropy_total_exact(m, energy), bounds.entropy_total_asym(m, energy)


def _write(text, out):
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        click.echo(f"wrote {out}", err=True)


def _emit_csv(header, rows, out):
    lines = [",".join(header)]
    lines += [",".join(_fmt(float(v)) for v in row) for row in rows]
    _write("\n".join(lines) + "\n", out)


def _emit_json(obj, out):
    _write(json.dumps(_round_floats(obj), indent=2) + "\n", out)


@click.group()
def cli():
    """Capacities of lossy bosonic channels under collective phase noise."""


@cli.command("capacity")
@click.option("--pure-dephasing", "pure_deph", is_flag=True,
              help="m-mode channel applying one uniformly random phase.")
@click.option("--thermal-loss", "thermal", is_flag=True,
              help="single-mode loss with added thermal noise.")
@click.option("--kappa", "-k", type=float, default=1.0, show_default=True,
              help="transmissivity (thermal loss).")
@click.option("--nb", type=float, default=0.0, show_default=True,
              help="added noise photons (thermal loss).")
@click.option("--energy", "-E", type=float, required=True,
              help="mean photon number per mode at the input.")
@click.option("--modes", "-m", default=None,
              help="number of modes (pure dephasing only).")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_capacity(pure_deph, thermal, kappa, nb, energy, modes, out):
    """Assisted and unassisted capacity of one channel, as a JSON record."""
    if pure_deph == thermal:
        raise click.UsageError(
            "choose exactly one of --pure-dephasing / --thermal-loss")
    if pure_deph:
        if kappa != 1.0 or nb != 0.0:
            raise click.UsageError("--kappa and --nb apply to --thermal-loss only")
        from . import dephasing_exact
        m = 1 if modes is None else _single_integer_modes(modes)
        sol = dephasing_exact.solve_dephasing(m, energy)
        baseline = m * thermal_entropy_g(energy)
        report = {
            "channel": {"kind": "pure-dephasing", "modes": m, "energy": energy},
            "ea_total": sol.capacity,
            "ea_per_mode": sol.capacity_per_mode,
            "hsw_total": baseline,
            "ratio": sol.unassisted_ratio,
            "intermediates": {
                "lambda1": sol.lambda1,
                "mean_achieved": sol.mean_achieved,
                "support": sol.dist.cutoff,
                "tail_bound": sol.dist.tail_bound,
            },
        }
    else:
        if modes is not None:
            raise click.UsageError("--modes applies to --pure-dephasing only")
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


_FIG2_HEADER = ("m", "exact_ratio", "lower_bound_ratio", "asym_lower_ratio",
                "upper_ratio")


@cli.command("fig2")
@click.option("--energy", "-E", type=float, default=1.0, show_default=True)
@click.option("--m-max", type=int, default=20, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_fig2(energy, m_max, out):
    """Capacity gain of joint phase references: ratios over m*g(E) for m=1..M."""
    from . import bounds, dephasing_exact
    if m_max < 1:
        raise click.UsageError(f"--m-max must be >= 1, got {m_max}")
    if m_max > MAX_SWEEP_POINTS:
        raise click.UsageError(f"--m-max exceeds the limit of {MAX_SWEEP_POINTS} "
                               "points per sweep")
    if energy == 0.0:
        raise ValueError("fig2 divides by g(E), which is 0 at E = 0")
    rep = thermal_loss.capacity_report(ThermalLossChannel(1.0, 0.0), energy)
    ea, baseline_one = rep.ea, rep.hsw  # hsw is g(E) without loss
    points = _parallel_map(
        lambda m: (dephasing_exact.solve_dephasing(m, energy), _entropies(bounds, m, energy)),
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


@cli.command("fig3")
@click.option("--kappa", "-k", type=float, default=0.8, show_default=True)
@click.option("--energy", "-E", type=float, default=0.001, show_default=True)
@click.option("--nb", type=float, multiple=True,
              default=(10.0, 1.0, 0.1, 0.01), show_default=True,
              help="one sweep (and one CSV file) per value.")
@click.option("--modes", "-m", default="1e1:1e7:10/dec", show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default=".",
              show_default=True)
def cmd_fig3(kappa, energy, nb, modes, out_dir):
    """Capacity bounds vs mode count, one file per noise level.

    All columns are normalized by the unassisted capacity of the loss
    channel alone.  Asymptotic columns are NaN where the Gaussian entropy
    approximation is out of regime (variance too small).
    """
    from . import bounds, phase_encoding
    paths = {}
    for n_b in nb:  # values that format alike would overwrite one file
        path = os.path.join(out_dir, f"fig3_nb{n_b:g}.csv")
        if path in paths:
            raise click.UsageError(f"--nb {paths[path]!r} and --nb {n_b!r} "
                                   f"both write {path}")
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
    entropies = _parallel_map(lambda m: _entropies(bounds, m, energy), grid)
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


@cli.command("bounds")
@click.option("--kappa", "-k", type=float, required=True)
@click.option("--nb", type=float, default=0.0, show_default=True)
@click.option("--energy", "-E", type=float, required=True)
@click.option("--modes", "-m", required=True,
              help="single count or log grid 'START:STOP:K/dec'.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def cmd_bounds(kappa, nb, energy, modes, out, fmt):
    """Sandwich of the dephased-channel capacity per mode, in bits."""
    from . import bounds
    grid = parse_mode_grid(modes)
    rep = thermal_loss.capacity_report(ThermalLossChannel(kappa, nb), energy)
    upper, baseline = rep.ea, rep.hsw
    entropies = _parallel_map(lambda m: _entropies(bounds, m, energy), grid)
    rows = [(m, upper, upper - h_exact / m, upper - h_asym / m, h_exact, h_asym,
             baseline) for m, (h_exact, h_asym) in zip(grid, entropies)]
    if fmt == "json":
        _emit_json([{"m": m, "kappa": kappa, "n_b": nb, "energy": energy,
                     **dict(zip(_BOUNDS_HEADER[1:], rest))} for m, *rest in rows], out)
    else:
        _emit_csv(_BOUNDS_HEADER, rows, out)


@cli.command("phase-encoding")
@click.option("--kappa", "-k", type=float, required=True)
@click.option("--nb", type=float, default=0.0, show_default=True)
@click.option("--energy", "-E", type=float, required=True)
@click.option("--modes", "-m", default=None,
              help="optional grid: also report dephased lower bounds per m.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="json", show_default=True)
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
        entropies = _parallel_map(lambda m: _entropies(bounds, m, energy), grid)
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
                  [(kappa, nb, energy, chi, ea, report["relative_correction"])],
                  out)


@cli.command("verify")
def cmd_verify():
    """Run the brute-force cross-check suite and print one line per check."""
    from . import verification
    results = verification.run_all()
    for res in results:
        click.echo(res.line())
    n_fail = sum(1 for r in results if r.status == "fail")
    n_skip = sum(1 for r in results if r.status.startswith("skipped"))
    n_pass = len(results) - n_fail - n_skip
    click.echo(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped")
    if n_fail:
        raise ContractViolation(f"{n_fail} verification check(s) failed")


def main(argv=None):
    """Run the CLI without exiting the interpreter; returns the exit code."""
    try:
        rv = cli.main(args=argv, prog_name="dephcap", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except (ContractViolation, SolverError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except MemoryError as exc:
        detail = " ".join(str(exc).split())
        click.echo(f"error: out of memory{': ' + detail if detail else ''}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
