"""Correctness checks for every op's output.

Two kinds of check, both written here without calling into dephcap:

- every seed: the paper's invariants, using closed forms recomputed below
  (fig2 ratio rising, <= 2 and above its lower bound; m g(E) <= capacity
  <= 2 m g(E); lower <= upper and chi_lb <= lb; chi <= ea; verify all pass);
- ops whose argv was recorded at the seed commit (every op of seed 0, and
  the fixed ops of every seed): each numeric field against the recorded
  text at 1e-10 relative, with a 1e-12 absolute floor for values near 0.
  The fields that only say where a law was cut off are left out.

A check returns the number of output rows it accepted and raises
``CheckFailed`` otherwise.
"""

import csv
import io
import json
import math
import re

REL_TOL = 1e-10
ABS_FLOOR = 1e-12
SLACK = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def g(n):
    """Entropy in bits of a thermal state with mean photon number n."""
    if n == 0.0:
        return 0.0
    return (n + 1.0) * math.log2(n + 1.0) - n * math.log2(n)


def ea_thermal_loss(kappa, nb, energy):
    """Assisted capacity of the thermal-loss channel (closed form)."""
    e_out = kappa * energy + nb
    d = math.sqrt((energy + e_out + 1.0) ** 2 - 4.0 * kappa * energy * (energy + 1.0))
    a_plus = max(0.5 * (d - 1.0 + e_out - energy), 0.0)
    a_minus = max(0.5 * (d - 1.0 - e_out + energy), 0.0)
    return g(energy) + g(e_out) - g(a_plus) - g(a_minus)


def hsw_thermal_loss(kappa, nb, energy):
    return g(kappa * energy + nb) - g(nb)


def _close(a, b, rel=REL_TOL, floor=ABS_FLOOR):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _log_grid(lo_exp, hi_exp, per_dec):
    return [10.0 ** (lo_exp + j / per_dec)
            for j in range((hi_exp - lo_exp) * per_dec + 1)]


def _csv_rows(text, header):
    lines = list(csv.reader(io.StringIO(text)))
    _require(lines and tuple(lines[0]) == header,
             f"header {lines[0] if lines else None} is not {header}")
    try:
        return [[float(x) for x in row] for row in lines[1:]]
    except ValueError as exc:
        raise CheckFailed(f"non-numeric field: {exc}") from None


def _json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _same_grid(ms, grid):
    expect = _log_grid(*grid)
    _require(len(ms) == len(expect), f"{len(ms)} rows, expected {len(expect)}")
    _require(all(_close(a, b) for a, b in zip(ms, expect)), "mode grid differs")


def check_fig2(text, p):
    rows = _csv_rows(text, ("m", "exact_ratio", "lower_bound_ratio",
                            "asym_lower_ratio", "upper_ratio"))
    _require([r[0] for r in rows] == [float(m) for m in range(1, p["m_max"] + 1)],
             "m column is not 1..m_max")
    _require(abs(rows[0][1] - 1.0) <= 1e-9, f"ratio at m=1 is {rows[0][1]}, not 1")
    prev = 0.0
    for m, exact, lower, _, upper in rows:
        _require(exact > prev, f"ratio does not rise at m={m:g}")
        _require(exact <= 2.0 + SLACK and upper == 2.0, f"ratio above 2 at m={m:g}")
        _require(lower <= exact + SLACK, f"ratio below its lower bound at m={m:g}")
        prev = exact
    return len(rows)


def check_capacity_dephasing(text, p):
    rep = _json(text)
    m, energy = p["m"], p["energy"]
    base = m * g(energy)
    _require(rep["channel"] == {"kind": "pure-dephasing", "modes": m, "energy": energy},
             f"channel echoed as {rep['channel']}")
    _require(base * (1 - 1e-9) <= rep["ea_total"] <= 2 * base * (1 + 1e-9),
             f"capacity {rep['ea_total']} outside [m g(E), 2 m g(E)] = [{base}, {2 * base}]")
    _require(_close(rep["hsw_total"], base), f"hsw_total {rep['hsw_total']} != m g(E) {base}")
    _require(_close(rep["ea_per_mode"] * m, rep["ea_total"]), "ea_per_mode != ea_total / m")
    _require(_close(rep["ratio"], rep["ea_total"] / base), "ratio != ea_total / (m g(E))")
    _require(abs(rep["intermediates"]["mean_achieved"] - m * energy) <= 1e-9 * m * energy,
             "achieved mean photon number misses m E")
    # the law builder promises to omit less than 1e-12 of the mass
    _require(0.0 <= rep["intermediates"]["tail_bound"] <= 1e-12,
             f"tail bound {rep['intermediates']['tail_bound']} above 1e-12")
    return 1


def check_capacity_thermal(text, p):
    rep = _json(text)
    ea = ea_thermal_loss(p["kappa"], p["nb"], p["energy"])
    hsw = hsw_thermal_loss(p["kappa"], p["nb"], p["energy"])
    # g(E') - g(n_b) cancels in its last digits at small E; 1e-8 is the
    # closed form's own accuracy there, the recorded reference is tighter
    _require(_close(rep["ea"], ea, rel=1e-8), f"ea {rep['ea']} != closed form {ea}")
    _require(_close(rep["hsw"], hsw, rel=1e-8), f"hsw {rep['hsw']} != closed form {hsw}")
    _require(rep["hsw"] <= rep["ea"], "unassisted capacity exceeds assisted")
    return 1


def check_bounds(text, p):
    rows = _csv_rows(text, ("m", "upper", "lower", "lower_asym", "entropy_exact",
                            "entropy_asym", "baseline"))
    _same_grid([r[0] for r in rows], p["grid"])
    ea = ea_thermal_loss(p["kappa"], p["nb"], p["energy"])
    hsw = hsw_thermal_loss(p["kappa"], p["nb"], p["energy"])
    for m, upper, lower, lower_asym, h_exact, h_asym, baseline in rows:
        _require(_close(upper, ea, rel=1e-9), f"upper {upper} != ea {ea} at m={m:g}")
        _require(_close(baseline, hsw, rel=1e-9), f"baseline {baseline} != hsw {hsw}")
        _require(lower <= upper + SLACK, f"lower above upper at m={m:g}")
        _require(lower_asym <= upper + SLACK, f"asymptotic lower above upper at m={m:g}")
        # upper and lower are printed at 12 digits, so their gap is good to ~1e-12
        _require(_close(upper - lower, h_exact / m, rel=1e-9, floor=1e-11),
                 f"lower != upper - H/m at m={m:g}")
        # the Gaussian approximation is off by O(1/variance), variance >= 2e3 here
        _require(0.0 < h_exact and abs(h_exact - h_asym) <= 1e-3,
                 f"exact entropy {h_exact} far from its Gaussian limit {h_asym}")
    return len(rows)


def check_phase_encoding(text, p):
    rep = _json(text)
    chi, ea = rep["chi"], rep["ea"]
    _require(_close(ea, ea_thermal_loss(p["kappa"], p["nb"], p["energy"]), rel=1e-9),
             f"ea {ea} != closed form")
    _require(0.0 <= chi <= ea * (1 + SLACK), f"chi {chi} outside [0, ea={ea}]")
    _require(_close(rep["correction"], ea - chi, floor=1e-11), "correction != ea - chi")
    rows = rep["with_dephasing"]
    _same_grid([r["m"] for r in rows], p["grid"])
    prev = -math.inf
    for r in rows:
        _require(r["chi_lb"] <= chi + SLACK, f"chi_lb above chi at m={r['m']:g}")
        _require(r["chi_lb"] > prev, f"chi_lb does not rise at m={r['m']:g}")
        prev = r["chi_lb"]
    return len(rows) + 1


def check_fig3(files, p):
    total = 0
    for nb in p["nbs"]:
        name = f"fig3_nb{nb:g}.csv"
        _require(name in files, f"{name} was not written")
        rows = _csv_rows(files[name], ("m", "upper_ratio", "lb_ratio", "lb_asym_ratio",
                                       "chi_lb_ratio", "chi_lb_asym_ratio"))
        _same_grid([r[0] for r in rows], p["grid"])
        ratio = (ea_thermal_loss(p["kappa"], nb, p["energy"])
                 / hsw_thermal_loss(p["kappa"], nb, p["energy"]))
        prev = -math.inf
        for m, upper, lb, lb_asym, chi_lb, chi_lb_asym in rows:
            _require(_close(upper, ratio, rel=1e-8), f"upper ratio {upper} != {ratio}")
            _require(lb <= upper + SLACK and chi_lb <= lb + SLACK,
                     f"bound ordering violated at m={m:g}, nb={nb:g}")
            if not math.isnan(lb_asym):
                _require(lb_asym <= upper + SLACK, f"asymptotic lb above upper at m={m:g}")
                if not math.isnan(chi_lb_asym):
                    _require(chi_lb_asym <= lb_asym + SLACK,
                             f"asymptotic chi_lb above lb at m={m:g}")
            _require(lb > prev, f"lb does not rise at m={m:g}, nb={nb:g}")
            prev = lb
        total += len(rows)
    return total


_VERIFY_LINE = re.compile(
    r"(?P<status>PASS|FAIL)\s+(?P<name>.+?)\s+value=(?P<value>\S+) ref=(?P<ref>\S+) "
    r"delta=(?P<delta>\S+) tol=(?P<tol>\S+)$")


def _verify_lines(text):
    lines = text.strip().splitlines()
    _require(bool(lines), "verify printed nothing")
    parsed = []
    for line in lines[:-1]:
        match = _VERIFY_LINE.match(line)
        _require(match is not None, f"unparsed verify line {line!r}")
        parsed.append(match.groupdict())
    return parsed, lines[-1]


def check_verify(text, p):
    parsed, summary = _verify_lines(text)
    n = p["checks"]
    _require(summary == f"{n} passed, 0 failed, 0 skipped", f"verify reported {summary!r}")
    _require(len(parsed) == n and all(r["status"] == "PASS" for r in parsed),
             "not every verify check passed")
    return n


CHECKS = {
    "fig2": check_fig2,
    "capacity-dephasing": check_capacity_dephasing,
    "capacity-thermal": check_capacity_thermal,
    "bounds": check_bounds,
    "phase-encoding": check_phase_encoding,
    "fig3": check_fig3,
    "verify": check_verify,
}


def fig3_text(files):
    """One text holding every fig3 file, for the reference comparison."""
    return "".join(f"== {name} ==\n{files[name]}" for name in sorted(files))


def compare_numbers(text, ref):
    """Same text outside the numbers; each number within the tolerance."""
    got_parts = _NUMBER.split(text)
    ref_parts = _NUMBER.split(ref)
    _require(got_parts == ref_parts, "output layout differs from the reference")
    for a, b in zip(_NUMBER.findall(text), _NUMBER.findall(ref)):
        _require(_close(float(a), float(b)), f"{a} differs from the reference {b}")


def _fields(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _fields(value, f"{path}{key}.")
    else:
        yield path[:-1], obj


# where the optimal law was cut off, not what the answer is: a narrower
# support (ROADMAP item 2) changes both by design; check_capacity_dephasing
# bounds the tail instead
LAW_CUTOFF = {"intermediates.support", "intermediates.tail_bound"}


def compare_capacity(text, ref):
    """Every field as recorded, numbers within the tolerance, except LAW_CUTOFF."""
    got = {k: v for k, v in _fields(_json(text)) if k not in LAW_CUTOFF}
    want = {k: v for k, v in _fields(_json(ref)) if k not in LAW_CUTOFF}
    _require(got.keys() == want.keys(), "output fields differ from the reference")
    for key, b in want.items():
        a = got[key]
        if isinstance(b, str):
            _require(a == b, f"{key}: {a!r} differs from the reference {b!r}")
        else:
            _require(isinstance(a, (int, float)) and _close(float(a), float(b)),
                     f"{key}: {a} differs from the reference {b}")


def compare_verify(text, ref):
    """Names, statuses, tolerances and refs as recorded; computed values too.

    A check whose recorded ``ref`` is 0 prints a rounding-level residual as
    its ``value``; the program's own tolerance holds that.  A check with a
    non-zero ``ref`` prints a computed quantity (the oracle's mutual
    information or Holevo information), which must match the recorded one.
    """
    got, got_summary = _verify_lines(text)
    want, want_summary = _verify_lines(ref)
    _require(got_summary == want_summary, f"verify summary {got_summary!r}")
    _require([(r["status"], r["name"], r["tol"]) for r in got]
             == [(r["status"], r["name"], r["tol"]) for r in want],
             "verify checks differ from the reference")
    for a, b in zip(got, want):
        _require(_close(float(a["ref"]), float(b["ref"])),
                 f"{a['name']}: ref {a['ref']} differs from the recorded {b['ref']}")
        if float(b["ref"]) != 0.0:
            _require(_close(float(a["value"]), float(b["value"])),
                     f"{a['name']}: value {a['value']} differs from the recorded {b['value']}")


COMPARE = {"verify": compare_verify, "capacity-dephasing": compare_capacity}


def check(op, output, reference=None):
    """Rows accepted in ``output`` (text, or {file name: text} for fig3)."""
    rows = CHECKS[op.kind](output, op.params)
    if reference is not None:
        text = fig3_text(output) if op.kind == "fig3" else output
        COMPARE.get(op.kind, compare_numbers)(text, reference)
    return rows
