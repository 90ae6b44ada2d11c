"""End-to-end checks of the command line interface via its entry function."""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dephcap import bounds, cli, dephasing_exact, phase_encoding, verification
from dephcap.scalar_math import MAX_MODES, check_block, thermal_entropy_g
from dephcap.verification import CheckResult


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


class TestModeGrid:
    def test_single_value(self):
        assert cli.parse_mode_grid("5") == [5.0]
        assert cli.parse_mode_grid("37.5") == [37.5]

    def test_log_spaced_grid(self):
        grid = cli.parse_mode_grid("1e1:1e7:10/dec")
        assert len(grid) == 61
        assert grid[0] == pytest.approx(10.0, rel=1e-12)
        assert grid[-1] == pytest.approx(1e7, rel=1e-12)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("spec", [
        "abc", "1e7:1e1:10/dec", "1e1:1e7:0/dec", "1e1:1e7:10", "0.5",
        "1e1:1e7:10/oct", "", "inf", "1e400", "1:inf:1/dec", "1:1e400:1/dec",
        "1:10:100000/dec", "1:1e300:100000000/dec", f"1:10:{10**400}/dec",
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            cli.parse_mode_grid(spec)

    def test_largest_block_accepted(self):
        m, = cli.parse_mode_grid("1e7")
        assert check_block(m, 1.0) == (MAX_MODES, 1.0)

    @pytest.mark.parametrize("bad", ["0.5", "0", "-1", "nan", "inf", "1e400"])
    @pytest.mark.parametrize("spec", ["{}", "{}:10:1/dec", "1:{}:1/dec"],
                             ids=["count", "start", "stop"])
    def test_bad_mode_counts_get_the_library_message(self, spec, bad):
        # check_block is the one owner of the rules on a mode count
        with pytest.raises(ValueError) as expected:
            check_block(float(bad), 0.0, integer=False)
        with pytest.raises(ValueError) as got:
            cli.parse_mode_grid(spec.format(bad))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("m_max", [0, -1])
    def test_fig2_mode_count_gets_the_library_message(self, m_max, capsys):
        with pytest.raises(ValueError) as expected:
            check_block(m_max, 1.0)
        assert cli.main(["fig2", "--m-max", str(m_max)]) == 1
        assert capsys.readouterr() == ("", f"error: {expected.value}\n")

    def test_longest_sweep_accepted(self):
        grid = cli.parse_mode_grid("1:10:99999/dec")
        assert len(grid) == cli.MAX_SWEEP_POINTS
        assert grid[-1] == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("argv, message", [
        ("bounds -k 0.8 -E 1 -m 1:inf:1/dec", "mode count must be >= 1 and finite"),
        ("bounds -k 0.8 -E 1 -m 1:1e400:1/dec", "mode count must be >= 1 and finite"),
        ("fig3 -m 1:inf:1/dec", "mode count must be >= 1 and finite"),
        ("phase-encoding -k 0.8 -E 0.001 -m 1:1e400:1/dec",
         "mode count must be >= 1 and finite"),
        ("capacity --pure-dephasing -m inf -E 1", "mode count must be >= 1 and finite"),
        ("bounds -k 0.8 -E 1 -m 1:1e300:100000000/dec",
         "exceeds the limit of 100000 points per sweep"),
        ("fig2 --m-max 1000000000", "exceeds the limit of 100000 points per sweep"),
        ("capacity --pure-dephasing -m 10000001 -E 1",
         "exceeds the limit of 10000000 modes"),
        ("capacity --pure-dephasing -m 1e8 -E 1", "exceeds the limit of 10000000 modes"),
        ("capacity --pure-dephasing -m 1e300 -E 1", "exceeds the limit of 10000000 modes"),
        ("capacity --pure-dephasing -m 2.0000000001 -E 1", "must be a positive integer"),
        ("capacity --pure-dephasing -m 2.5 -E 1", "must be a positive integer"),
        ("capacity --pure-dephasing -m 1:10:1/dec -E 1", "single mode count, not a grid"),
    ])
    def test_unbounded_sweeps_exit_one_before_allocating(self, argv, message,
                                                         tmp_path, capsys):
        tracemalloc.start()
        try:
            rc = cli.main(argv.split() + (["--out-dir", str(tmp_path)]
                                          if argv.startswith("fig3") else []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0], err
        assert "Traceback" not in err
        assert peak < 1_000_000


class TestCapacityCommand:
    def test_pure_dephasing_single_mode(self, capsys):
        rc = cli.main(["capacity", "--pure-dephasing", "-m", "1", "-E", "1"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["channel"]["kind"] == "pure-dephasing"
        assert rep["ea_total"] == pytest.approx(2.0, abs=1e-9)
        assert rep["hsw_total"] == pytest.approx(2.0, abs=1e-12)
        assert rep["ratio"] == pytest.approx(1.0, abs=1e-9)
        assert rep["intermediates"]["lambda1"] == pytest.approx(0.5, abs=1e-9)

    def test_pure_dephasing_twenty_modes(self, capsys):
        rc = cli.main(["capacity", "--pure-dephasing", "-m", "20", "-E", "1"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert 1.86 <= rep["ratio"] <= 1.94

    def test_pure_dephasing_prints_one_window_and_the_solved_mean(self, monkeypatch,
                                                                  capsys):
        # the window is built once; the mean is the lambda solve's last step
        windows = []

        def built(law, build=dephasing_exact.build_from_log_pmf):
            windows.append(build(law))
            return windows[-1]
        monkeypatch.setattr(dephasing_exact, "build_from_log_pmf", built)
        assert cli.main(["capacity", "--pure-dephasing", "-m", "20", "-E", "1"]) == 0
        inter = json.loads(capsys.readouterr().out)["intermediates"]
        [window] = windows
        assert inter["support"] == window.cutoff
        assert inter["tail_bound"] == pytest.approx(window.tail_bound, rel=1e-11)
        mean = dephasing_exact.solve_dephasing(20, 1.0).mean
        assert inter["mean_achieved"] == pytest.approx(mean, rel=1e-11)

    def test_thermal_loss_identity_channel(self, capsys):
        rc = cli.main(["capacity", "--thermal-loss", "-k", "1", "--nb", "0",
                       "-E", "1"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["ea"] == pytest.approx(4.0, abs=1e-9)
        assert rep["hsw"] == pytest.approx(2.0, abs=1e-9)
        assert rep["intermediates"]["e_prime"] == pytest.approx(1.0, abs=1e-12)

    def test_writes_file_when_asked(self, tmp_path, capsys):
        out = tmp_path / "cap.json"
        rc = cli.main(["capacity", "--thermal-loss", "-k", "0.8", "--nb", "10",
                       "-E", "0.001", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["ratio"] == pytest.approx(6.7221057961, rel=1e-9)
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["capacity", "-E", "1"],
        ["capacity", "--pure-dephasing", "--thermal-loss", "-E", "1"],
        ["capacity", "--thermal-loss", "-k", "1.5", "-E", "1"],
        ["capacity", "--thermal-loss", "-m", "4", "-E", "1"],
        ["capacity", "--pure-dephasing", "-k", "0.5", "-E", "1"],
        ["capacity", "--pure-dephasing", "--nb", "3", "-E", "1"],
        ["capacity", "--pure-dephasing", "-m", "0", "-E", "1"],
        ["capacity", "--pure-dephasing", "-m", "2", "-E", "-1"],
        ["capacity", "--pure-dephasing", "-m", "2.0000000001", "-E", "1"],
    ])
    def test_usage_and_domain_errors_exit_one(self, argv, capsys):
        assert cli.main(argv) == 1
        capsys.readouterr()

    def test_unwritable_output_exits_three(self, capsys):
        rc = cli.main(["capacity", "--pure-dephasing", "-m", "1", "-E", "1",
                       "--out", "/nonexistent-dir-zz/cap.json"])
        assert rc == 3
        capsys.readouterr()


class TestBadPhotonNumbers:
    """Negative, NaN and infinite photon numbers are domain errors everywhere."""

    COMMANDS = {
        "capacity-thermal": ["capacity", "--thermal-loss", "-k", "0.8"],
        "capacity-dephasing": ["capacity", "--pure-dephasing", "-m", "2"],
        "bounds": ["bounds", "-k", "0.8", "-m", "10"],
        "fig2": ["fig2", "--m-max", "3"],
        "fig3": ["fig3", "-m", "10"],
        "phase-encoding": ["phase-encoding", "-k", "0.8"],
    }

    @staticmethod
    def _assert_one_error_line(rc, captured):
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    # argparse by itself reads -1e-3 and -inf as unknown options, not values
    @pytest.mark.parametrize("energy", ["-1", "nan", "inf", "-1e-3", "-inf"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_energy_exits_one(self, command, energy, tmp_path, capsys):
        argv = self.COMMANDS[command] + ["-E", energy]
        if command == "fig3":
            argv += ["--out-dir", str(tmp_path)]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        self._assert_one_error_line(rc, captured)
        assert "energy must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf", "-1e300"])
    @pytest.mark.parametrize("command", ["capacity-thermal", "phase-encoding"])
    def test_bad_added_noise_exits_one(self, command, noise, capsys):
        argv = self.COMMANDS[command] + ["--nb", noise, "-E", "1"]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        self._assert_one_error_line(rc, captured)
        assert "added noise must be finite and nonnegative" in captured.err


def _fields(text):
    """(name, value) of every number in a JSON report or a CSV table."""
    if text.startswith("{"):
        def walk(obj, name):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    yield from walk(value, key)
            elif isinstance(obj, (int, float)):
                yield name, float(obj)
        return list(walk(json.loads(text), ""))
    header, *rows = [line.split(",") for line in text.strip().splitlines()]
    return [(name, float(cell)) for row in rows for name, cell in zip(header, row)]


class TestSubnormalPhotonNumbers:
    """The smallest positive photon numbers give numbers or one error line."""

    @pytest.mark.parametrize("argv, rc_want", [
        ("capacity --thermal-loss -k 0.5 --nb 5e-324 -E 1", 0),
        ("bounds -k 0.8 -E 5e-324 -m 10", 0),
        ("fig2 -E 5e-324", 2),
        ("fig2 -E 5e-324 --m-max 3", 2),
        ("capacity --pure-dephasing -m 3 -E 5e-324", 2)])
    def test_finite_numbers_or_one_error_line(self, argv, rc_want, capsys):
        rc = cli.main(argv.split())
        captured = capsys.readouterr()
        assert rc == rc_want
        assert "Traceback" not in captured.err
        if rc == 2:
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith(
                "error: lambda solve underflowed to 0: E is too close to the "
                "smallest float")
            return
        assert captured.err == ""
        for name, value in _fields(captured.out):
            # the asymptotic columns are documented as NaN out of regime
            assert math.isfinite(value) or (
                name.endswith("_asym") and math.isnan(value)), name


class TestZeroEnergy:
    """E = 0 gives zero rates, or exit 1 where a ratio would divide by 0."""

    @pytest.mark.parametrize("argv", [
        "capacity --pure-dephasing -E 0",
        "capacity --pure-dephasing -m 7 -E 0",
        "phase-encoding -k 0.8 --nb 1 -E 0",
        "phase-encoding -k 0.8 --nb 1 -E 0 -m 1e1:1e3:1/dec",
        "bounds -k 0.8 --nb 1 -E 0 -m 1e1:1e3:1/dec"])
    def test_zero_rates(self, argv, capsys):
        assert cli.main(argv.split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        for name, value in _fields(captured.out):
            if name in ("ratio", "relative_correction") or name.endswith("_asym"):
                assert math.isnan(value), name  # 0/0, or out of regime
            elif name not in ("kappa", "nb", "modes", "m"):
                assert value == 0.0, name

    @pytest.mark.parametrize("argv", ["fig2 -E 0", "fig2 -E 0 --m-max 3",
                                      "fig3 -E 0", "fig3 -E 0 -m 10"])
    def test_ratio_commands_exit_one(self, argv, tmp_path, capsys):
        rc = cli.main(argv.split() + (["--out-dir", str(tmp_path)]
                                      if argv.startswith("fig3") else []))
        captured = capsys.readouterr()
        TestBadPhotonNumbers._assert_one_error_line(rc, captured)
        assert "0 at E = 0" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        "capacity --thermal-loss", "bounds -m 10", "phase-encoding"])
    def test_zero_rates_where_the_noise_squared_overflows(self, command, capsys):
        assert cli.main(command.split() + ["-k", "0.8", "--nb", "1e300", "-E", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rates = [value for name, value in _fields(captured.out)
                 if name in ("ea", "hsw", "chi", "upper", "lower", "entropy_exact")]
        assert rates and all(value == 0.0 for value in rates)


class TestPreviouslyFailingPoints:
    """Points where the law built from gammaln differences missed unit mass."""

    @staticmethod
    def _report(capsys, m, energy):
        rc = cli.main(["capacity", "--pure-dephasing", "-m", str(m),
                       "-E", str(energy)])
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("m, energy", [(2000, 10), (10000, 10), (20000, 1),
                                           (20000, 10)])
    def test_solves_with_a_certified_law(self, capsys, m, energy):
        rep = self._report(capsys, m, energy)
        assert 1.99 < rep["ratio"] < 2.0
        inter = rep["intermediates"]
        assert abs(inter["mean_achieved"] - m * energy) <= 1e-9 * m * energy
        assert 0.0 <= inter["tail_bound"] <= 1e-12

    def test_ratio_still_rises_at_twenty_thousand_modes(self, capsys):
        below = self._report(capsys, 19999, 1)["ratio"]
        assert self._report(capsys, 20000, 1)["ratio"] > below


class TestOptimalLawBuilds:
    """The solve is closed form, and capacity walks the law without storing it."""

    @pytest.mark.parametrize("argv", [
        "fig2 -E 1 --m-max 20", "verify", "capacity --pure-dephasing -m 20 -E 1"])
    def test_no_command_builds_the_law(self, argv, monkeypatch, capsys):
        built = []

        def counted(m, lam, build=dephasing_exact.optimal_total_distribution):
            built.append(m)
            return build(m, lam)
        monkeypatch.setattr(dephasing_exact, "optimal_total_distribution", counted)
        assert cli.main(argv.split()) == 0
        assert capsys.readouterr().err == ""
        assert built == []

    def test_wide_window_is_found_in_little_memory(self, capsys):
        # the window at E = 1e5 spans 2.8e6 terms, found from a few scalars
        tracemalloc.start()
        try:
            rc = cli.main(["capacity", "--pure-dephasing", "-m", "1", "-E", "1e5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        capsys.readouterr()
        assert peak < 100_000


class TestSolveLayer:
    """Each solve crosses the module-level solve_lambda, where a tracer wraps it."""

    @pytest.mark.parametrize("argv, n_solves", [
        ("fig2 -E 1 --m-max 20", 20),
        ("capacity --pure-dephasing -m 20 -E 1", 1),
    ])
    def test_solves_per_command(self, argv, n_solves, monkeypatch, capsys):
        solved = []

        def counted(m, energy, solve=dephasing_exact.solve_lambda):
            solved.append(m)
            return solve(m, energy)
        monkeypatch.setattr(dephasing_exact, "solve_lambda", counted)
        assert cli.main(argv.split()) == 0
        assert capsys.readouterr().err == ""
        assert len(solved) == n_solves


class TestNumericalFailures:
    def test_out_of_memory_exits_two_with_one_line(self, capsys, monkeypatch):
        def exhausted(m, energy):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")
        monkeypatch.setattr(dephasing_exact, "solve_dephasing", exhausted)
        assert cli.main(["capacity", "--pure-dephasing", "-m", "3", "-E", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: out of memory: Unable to allocate 74.5 GiB for an array"]

    def test_geometric_law_at_a_million_photons_exits_zero(self, capsys):
        # at m = 1 the law is geometric, (1 - lambda) lambda^n, whose mass beyond
        # n is lambda^(n+1): the rule's bound on it, raised by the edge's allowance
        rc = cli.main(["capacity", "--pure-dephasing", "-m", "1", "-E", "1e6"])
        assert rc == 0
        inter = json.loads(capsys.readouterr().out)["intermediates"]
        # (ln lambda = -1e-6, so the allowance of 3.3e-6 adds 3 terms)
        sol = dephasing_exact.solve_dephasing(1, 1e6)
        lam, support = sol.lambda1, inter["support"]
        allowance = dephasing_exact._optimal_law(1, lam, sol.log_s0).log_pmf(support)[1]
        assert 0.0 < allowance < 1e-5
        first = math.ceil((math.log(5e-13) - allowance) / math.log(lam)) - 1
        assert abs(support - first) <= 1
        assert inter["tail_bound"] == pytest.approx(
            lam ** (support + 1) * math.exp(allowance), rel=1e-11)


class TestLargeEnergies:
    def test_phase_encoding_at_a_hundred_photons(self, capsys):
        rc = cli.main(["phase-encoding", "-k", "0.8", "--nb", "1", "-E", "100"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert 0.0 < rep["chi"] <= rep["ea"]

    @pytest.mark.parametrize("argv, message", [
        ("-k 0.8 --nb 1 -E 1000", "cutoffs (10419, 13006) needs 3.04e+09 bytes"),
        # 12 sigma overflows to inf, which cannot be rounded to an int
        ("-k 0.8 --nb 1 -E 1e300", "cutoffs (inf, inf) needs inf bytes"),
        ("-k 0.5 --nb 1e300 -E 0.1", "cutoffs (inf, 16) needs inf bytes"),
        # the default cutoffs fit; the certificate's search grows past the budget
        ("-k 0.8 --nb 1 -E 130", "cutoffs (2708, 3345) needs 2.04e+08 bytes")],
        ids=["E=1000", "E=1e300", "nb=1e300", "E=130"])
    def test_phase_encoding_beyond_the_kernel_budget_exits_two(
            self, capsys, argv, message):
        tracemalloc.start()
        try:
            rc = cli.main(["phase-encoding", *argv.split()])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: Fock kernel at {message}")
        assert peak < 10_000_000  # refused before any kernel array exists

    @pytest.mark.parametrize("argv, m", [
        ("capacity --pure-dephasing -m 3 -E 1e300", 3),
        ("fig2 -E 1e300 --m-max 3", 1)], ids=["capacity", "fig2"])
    def test_energy_beyond_double_precision_exits_two(self, capsys, argv, m):
        # T/(T + 2m - 1) rounds to 1, the pole of the series lambda solves on
        rc = cli.main(argv.split())
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: lambda bracket top rounded to 1 (m={m}, E=1e+300)"]

    @pytest.mark.parametrize("argv, message", [
        ("capacity --thermal-loss -k 0.8 --nb 1 -E 1e300",
         "thermal-loss occupations overflow double precision at kappa=0.8, "
         "n_b=1.0, E=1e+300"),
        ("bounds -k 0.8 --nb 1 -E 1e300 -m 10",
         "thermal-loss occupations overflow double precision at kappa=0.8, "
         "n_b=1.0, E=1e+300"),
        # kappa E = 0.5 is lost to rounding beside n_b: hsw rounds to 0
        ("capacity --thermal-loss -k 0.5 --nb 1e100 -E 1",
         "unassisted capacity rounds to 0 at n_b=1e+100, E=1.0"),
        ("capacity --thermal-loss -k 0.5 --nb 1e300 -E 1",
         "thermal-loss occupations overflow double precision at kappa=0.5, "
         "n_b=1e+300, E=1.0"),
        # m (E+1) above e^662 puts the entropy's left end below t = e^-700
        ("bounds -k 1 -E 1 -m 1e300",
         "total-count integral needs nodes below t = e^-700 (m = 1e+300, E = 1)")],
        ids=["capacity-E", "bounds-E", "capacity-nb1e100", "capacity-nb1e300",
             "bounds-nodes-underflow"])
    def test_overflow_exits_two_with_one_line(self, capsys, argv, message):
        rc = cli.main(argv.split())
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {message}")

    def test_lossless_capacity_near_the_largest_float(self, capsys):
        # 2E overflows above E ~ 9e307; ea is still 2 g(E) and hsw g(E)
        assert cli.main("capacity --thermal-loss -k 1 --nb 0 -E 1e308".split()) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["ea"], rep["hsw"], rep["ratio"]) == (2049.19309653, 1024.59654827, 2.0)

    @pytest.mark.parametrize("energy, m", [("1e14", "1e7"), ("1e100", "1e7"),
                                           ("1e100", "1e3")])
    def test_wide_law_tails_certified_where_the_ratio_rounds_to_1(self, capsys, energy, m):
        # the term ratio at the trapezoid's right edge rounds to 1, so each
        # tail's gap 1 - ratio is formed from the edge's offset to mE
        rc = cli.main(["bounds", "-k", "0.8", "-E", energy, "-m", m])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert len(captured.out.strip().splitlines()) == 2

    def test_bounds_at_large_energy(self, capsys):
        # A+ = 0 exactly here; formed as a difference of two numbers near 1e4
        # it rounds to about -1.8e-12
        rc = cli.main(["bounds", "-k", "0.8", "-E", "1e5", "-m", "1"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_thermal_loss_capacity_at_a_million_photons(self, capsys):
        rc = cli.main(["capacity", "--thermal-loss", "-k", "0.8", "-E", "1e6"])
        assert rc == 0
        inter = json.loads(capsys.readouterr().out)["intermediates"]
        assert inter["a_plus"] == 0.0
        assert inter["a_minus"] == pytest.approx(2e5, rel=1e-12)


class TestFig2Command:
    def test_default_table(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert cli.main(["fig2", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["m", "exact_ratio", "lower_bound_ratio",
                          "asym_lower_ratio", "upper_ratio"]
        assert len(rows) == 20
        assert [r[0] for r in rows] == list(range(1, 21))
        exact = [r[1] for r in rows]
        assert exact[0] == pytest.approx(1.0, abs=1e-9)
        assert all(b > a for a, b in zip(exact, exact[1:]))
        assert 1.86 <= exact[-1] <= 1.94
        for row in rows:
            assert row[2] <= row[1] + 1e-12  # lower bound below exact
            assert row[1] <= row[4] + 1e-12  # exact below upper bound
            assert row[4] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ["fig2"],
        ["bounds", "-k", "0.8", "-E", "1", "-m", "1e1:1e7:50/dec"],
        ["fig3", "-m", "1e1:1e7:20/dec"],
    ], ids=["fig2", "bounds", "fig3"])
    def test_deterministic_across_worker_counts(self, argv, tmp_path, monkeypatch,
                                                capsys):
        # each worker count cuts the grid, and so its runs of wide laws, apart
        # at other points
        outputs = []
        for workers in ("1", "2", "7"):
            monkeypatch.setenv("DEPH_NUM_THREADS", workers)
            out_dir = tmp_path / workers
            assert cli.main(argv + ["--out-dir", str(out_dir)] * (argv[0] == "fig3")) == 0
            files = sorted(out_dir.iterdir()) if out_dir.exists() else []
            outputs.append((capsys.readouterr().out, [f.read_bytes() for f in files]))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_bad_worker_count_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DEPH_NUM_THREADS", "notanumber")
        assert cli.main(["fig2", "--out", str(tmp_path / "x.csv")]) == 1
        monkeypatch.setenv("DEPH_NUM_THREADS", "0")
        assert cli.main(["fig2", "--out", str(tmp_path / "y.csv")]) == 1
        capsys.readouterr()

    def test_worker_count_above_the_cap_exits_one_before_any_pool(self, monkeypatch,
                                                                   capsys):
        # 1e6 workers on a 1e5-point grid would start 1e5 threads; none may start
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was constructed")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setenv("DEPH_NUM_THREADS", "1000000")
        assert cli.main(["fig2", "--m-max", "100000"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and err.endswith("\n") and err.count("\n") == 1
        assert f"from 1 to {cli.MAX_WORKERS}" in err


def _exact_ratio_two_modes(energy):
    """fig2's exact ratio at m = 2 from 50-digit mpmath.

    At m = 2 the normalizer is S0 = (1 + l)/(1 - l)^3, whose mean
    l (1/(1 + l) + 3/(1 - l)) is solved for 2E; the capacity is
    ln S0 - 2E ln l nats, over 2 g(E).
    """
    with mp.workdps(50):
        e = mp.mpf(energy)
        lam = mp.findroot(lambda l: l * (1 / (1 + l) + 3 / (1 - l)) - 2 * e, e / 2)
        cap = mp.log((1 + lam) / (1 - lam) ** 3) - 2 * e * mp.log(lam)
        return float(cap / (2 * ((e + 1) * mp.log1p(e) - e * mp.log(e))))


class TestTinyEnergies:
    @pytest.mark.parametrize("energy", ["1e-5", "1e-8", "1e-9", "1e-12", "1e-14",
                                        "1e-16"])
    def test_fig2_matches_mpmath(self, energy, capsys):
        # the lower bound's entropy and the exact capacity both sit within
        # E of a mass or a normalizer of 1
        assert cli.main(["fig2", "-E", energy, "--m-max", "3"]) == 0
        header, *rows = capsys.readouterr().out.strip().splitlines()
        rows = [[float(cell) for cell in row.split(",")] for row in rows]
        exact = [row[1] for row in rows]
        assert len(exact) == 3 and 1.0 <= exact[0] < exact[1] < exact[2] <= 2.0
        assert rows[0][2] == pytest.approx(1.0, rel=1e-11)  # H = g(E) at m = 1
        assert exact[1] == pytest.approx(_exact_ratio_two_modes(energy), rel=1e-11)


class TestFig3Command:
    def test_one_file_per_noise_level(self, tmp_path):
        rc = cli.main(["fig3", "--out-dir", str(tmp_path),
                       "--modes", "1e1:1e7:1/dec"])
        assert rc == 0
        names = ["fig3_nb10.csv", "fig3_nb1.csv", "fig3_nb0.1.csv",
                 "fig3_nb0.01.csv"]
        for name in names:
            assert (tmp_path / name).exists(), name
        header, rows = _read_csv(tmp_path / "fig3_nb10.csv")
        assert header == ["m", "upper_ratio", "lb_ratio", "lb_asym_ratio",
                          "chi_lb_ratio", "chi_lb_asym_ratio"]
        assert len(rows) == 7
        upper = rows[0][1]
        for row in rows:
            assert row[1] == pytest.approx(upper, rel=1e-9)  # m-independent
            assert row[2] <= row[1] + 1e-12
            assert row[4] <= row[2] + 1e-12
        assert math.isnan(rows[0][3])  # asym entropy undefined at m=10
        assert not math.isnan(rows[-1][3])
        # The sandwich closes at the top of the grid.
        assert (upper - rows[-1][2]) / upper < 0.005

    @pytest.mark.parametrize("argv, grid", [
        (["fig3", "--modes", "1e1:1e7:1/dec"], "1e1:1e7:1/dec"),
        (["fig2", "--m-max", "5"], [1, 2, 3, 4, 5]),
        (["bounds", "-k", "0.8", "-E", "1", "-m", "1e1:1e7:1/dec"], "1e1:1e7:1/dec"),
        (["phase-encoding", "-k", "0.8", "-E", "0.001", "-m", "1e1:1e7:2/dec"],
         "1e1:1e7:2/dec"),
    ], ids=["fig3", "fig2", "bounds", "phase-encoding"])
    def test_one_entropy_per_grid_point(self, argv, grid, tmp_path, monkeypatch,
                                        capsys):
        if isinstance(grid, str):
            grid = cli.parse_mode_grid(grid)
        calls = {"entropy_total_exact": [], "entropy_total_asym": []}
        for name, seen in calls.items():
            def counted(m, energy, entropy=getattr(bounds, name), seen=seen,
                        chunked=name == "entropy_total_exact"):
                # the exact entropy takes one chunk of the grid per call
                seen.extend(m if chunked else [m])
                return entropy(m, energy)
            monkeypatch.setattr(bounds, name, counted)
        if argv[0] == "fig3":
            argv = argv + ["--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        for seen in calls.values():
            assert sorted(seen) == grid

    def test_malformed_grid_exits_one(self, tmp_path, capsys):
        rc = cli.main(["fig3", "--out-dir", str(tmp_path), "--modes", "oops"])
        assert rc == 1
        capsys.readouterr()

    def test_noise_levels_sharing_a_file_name_exit_one(self, tmp_path, monkeypatch,
                                                      capsys):
        # both format as nb0.1, so the second curve would overwrite the first
        monkeypatch.setattr(cli.thermal_loss, "capacity_report", None)  # no work done
        rc = cli.main(["fig3", "--nb", "0.1", "--nb", "0.1000001", "-m", "10",
                       "--out-dir", str(tmp_path)])
        assert rc == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "--nb 0.1 and --nb 0.1000001" in errors[0]
        assert "fig3_nb0.1.csv" in errors[0]
        assert list(tmp_path.iterdir()) == []


class TestBoundsCommand:
    def test_csv_table(self, capsys):
        rc = cli.main(["bounds", "-k", "0.8", "--nb", "10", "-E", "0.001",
                       "-m", "1e2:1e4:1/dec"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("m,upper,lower,lower_asym,entropy_exact,"
                            "entropy_asym,baseline")
        assert len(lines) == 4
        first = [float(c) for c in lines[1].split(",")]
        assert first[0] == 100.0
        assert first[2] <= first[1]

    def test_json_records(self, capsys):
        rc = cli.main(["bounds", "-k", "0.8", "--nb", "10", "-E", "0.001",
                       "-m", "1000", "--format", "json"])
        assert rc == 0
        recs = json.loads(capsys.readouterr().out)
        assert len(recs) == 1
        assert recs[0]["m"] == 1000.0
        assert recs[0]["lower"] <= recs[0]["upper"]
        assert set(recs[0]) >= {"upper", "lower", "lower_asym",
                                "entropy_exact", "entropy_asym", "baseline"}

    @pytest.mark.xfail(strict=True, reason="g(E') - g(A+) cancels when E is far "
                       "below ulp(n_b); ea needs the stable difference of g")
    def test_upper_bound_at_a_tiny_energy_is_not_negative(self, capsys):
        # upper rounds to -9.25538780942e-298, below baseline = 0, and the
        # command refuses it with exit 2
        rc = cli.main(["bounds", "-k", "0.8", "--nb", "10", "-E", "1e-300",
                       "-m", "10", "--format", "json"])
        assert rc == 0
        (rec,) = json.loads(capsys.readouterr().out)
        assert rec["upper"] >= rec["baseline"] >= 0.0


    @pytest.mark.parametrize("argv, want", [
        # H(NB(m, E)) at 40 digits, from 60-digit mpmath of the entropy's integral
        ("-k 0.8 -E 3e5 -m 1", "19.63730042053599449007389887003262078128"),
        ("-k 0.8 -E 1e6 -m 1", "21.37426433156041749001028793333945336271"),
        ("-k 0.8 -E 1e9 -m 3", "32.56284520926134295208929323598851382121"),
        # E/(E+1) rounds to 1, where the law has no mode to scan from; g(E)
        ("-k 1 -E 1e17 -m 1", "57.91547265397412332836883018676634859863")],
        ids=["E3e5", "E1e6", "E1e9-m3", "E1e17"])
    def test_total_count_laws_beyond_the_scan_cap(self, argv, want, capsys):
        # their windows would exceed the scan's 1e7 terms
        rc = cli.main(["bounds", *argv.split(), "--format", "json"])
        assert rc == 0
        (rec,) = json.loads(capsys.readouterr().out)
        m, energy = rec["m"], rec["energy"]
        assert rec["entropy_exact"] == float(f"{float(want):.12g}")
        got = bounds.entropy_total_exact(m, energy)
        assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)
        if m == 1:
            assert got == pytest.approx(thermal_entropy_g(energy), rel=1e-15, abs=0.0)


class TestPhaseEncodingCommand:
    def test_json_record(self, capsys):
        rc = cli.main(["phase-encoding", "-k", "0.8", "--nb", "10",
                       "-E", "0.001"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["chi"] <= rep["ea"]
        assert rep["correction"] == pytest.approx(
            rep["ea"] - rep["chi"], rel=1e-12)
        assert 0.0 < rep["relative_correction"] < 0.01

    def test_mode_grid_rows(self, capsys):
        rc = cli.main(["phase-encoding", "-k", "0.8", "--nb", "10",
                       "-E", "0.001", "-m", "1e2:1e4:1/dec",
                       "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,chi_lb,chi_lb_asym"
        assert len(lines) == 4

    @pytest.mark.xfail(strict=True, reason="g(E') - g(A+) cancels when E is far "
                       "below ulp(n_b); ea needs the stable difference of g")
    def test_assisted_capacity_at_a_tiny_energy_is_not_negative(self, capsys):
        # ea rounds to -9.26e-298, and the command refuses it with exit 2
        rc = cli.main(["phase-encoding", "-k", "0.8", "--nb", "10", "-E", "1e-300"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["ea"] >= 0.0
        assert math.isfinite(rep["relative_correction"])


_EDGE_FLOATS = hst.one_of(
    hst.sampled_from([0.0, 5e-324, 1e-300, 1e300, math.nan, math.inf, -1.0]),
    hst.floats(1e-3, 10.0))
_EDGE_MODES = hst.sampled_from(["1", "2", "3", "1000", "1.5", "0", "nan", "inf", "1e300"])


def _documented_ending(argv):
    """(exit code, stdout) of one run, after checking that it ended as documented.

    Exit 0 writes nothing to stderr but fig3's ``wrote`` line per file; exit 1
    and exit 2 print one ``error:`` line and no output.  Runs write files only
    into a fresh directory, so exit 3 (I/O failure) is not expected.
    """
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    lines = err.getvalue().splitlines()
    if rc == 0 and argv[0] == "fig3":
        assert lines and all(line.startswith("wrote ") for line in lines), lines
    elif rc == 0:
        assert lines == []
    else:
        assert rc in (1, 2)
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return rc, out.getvalue()


def _assert_finite(text, energy):
    for name, value in _fields(text):
        # documented NaNs: asymptotic columns out of regime, 0/0 ratios at E = 0
        assert math.isfinite(value) or name.endswith("_asym") or (
            name == "ratio" and energy == 0.0), name


def _finite_ratio_rows(text):
    """Cells of a fig2 or fig3 table, each finite but in the asymptotic columns."""
    header, *rows = [line.split(",") for line in text.strip().splitlines()]
    cells = [dict(zip(header, map(float, row))) for row in rows]
    for name, value in ((n, v) for cell in cells for n, v in cell.items()):
        assert math.isfinite(value) or "asym" in name, name
    return cells


# points whose closed forms round to an impossible rate: ea < hsw at
# kappa = 1e-16 and 5e-324, hsw = 0 beside n_b = 1e17, chi > ea at n_b = 1e-12
_IMPOSSIBLE_RATES = [(1e-16, 1e-3, 10.0), (5e-324, 0.0, 3.7), (0.8, 1e17, 1.0),
                     (0.8, 1e-12, 1e-16)]


def _at_impossible_rates(harness):
    for kappa, nb, energy in reversed(_IMPOSSIBLE_RATES):
        harness = example(kappa=kappa, nb=nb, energy=energy)(harness)
    return harness


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa=_EDGE_FLOATS, nb=_EDGE_FLOATS, energy=_EDGE_FLOATS)
@_at_impossible_rates
def test_phase_encoding_ends_in_a_documented_way(kappa, nb, energy):
    tracemalloc.start()
    try:
        rc, out = _documented_ending(["phase-encoding", "-k", repr(kappa),
                                      "--nb", repr(nb), "-E", repr(energy)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if rc == 2:
        assert peak < 10_000_000
    elif rc == 0:
        rep = json.loads(out)
        assert math.isfinite(rep["chi"])
        assert 0.0 <= rep["chi"] <= rep["ea"] * (1.0 + 1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa=_EDGE_FLOATS, nb=_EDGE_FLOATS, energy=_EDGE_FLOATS)
@_at_impossible_rates
def test_thermal_loss_capacity_ends_in_a_documented_way(kappa, nb, energy):
    rc, out = _documented_ending(["capacity", "--thermal-loss", "-k", repr(kappa),
                                  "--nb", repr(nb), "-E", repr(energy)])
    if rc == 0:
        _assert_finite(out, energy)
        rep = json.loads(out)
        if energy > 0.0:
            assert rep["hsw"] > 0.0
            assert rep["ea"] >= rep["hsw"] * (1.0 - 1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(modes=_EDGE_MODES, energy=_EDGE_FLOATS)
def test_pure_dephasing_capacity_ends_in_a_documented_way(modes, energy):
    rc, out = _documented_ending(["capacity", "--pure-dephasing", "-m", modes,
                                  "-E", repr(energy)])
    if rc == 0:
        _assert_finite(out, energy)
        rep = json.loads(out)
        assert rep["hsw_total"] <= rep["ea_total"] + 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa=_EDGE_FLOATS, nb=_EDGE_FLOATS, energy=_EDGE_FLOATS)
@_at_impossible_rates
def test_bounds_end_in_a_documented_way(kappa, nb, energy):
    rc, out = _documented_ending(["bounds", "-k", repr(kappa), "--nb", repr(nb),
                                  "-E", repr(energy), "-m", "1e1:1e2:1/dec"])
    if rc == 0:
        _assert_finite(out, energy)
        header, *rows = [line.split(",") for line in out.strip().splitlines()]
        for row in rows:
            cell = dict(zip(header, map(float, row)))
            assert cell["lower"] <= cell["upper"] + 1e-12
            if energy > 0.0:
                assert cell["baseline"] > 0.0
                assert cell["upper"] >= cell["baseline"] * (1.0 - 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(energy=_EDGE_FLOATS)
def test_fig2_ends_in_a_documented_way(energy):
    rc, out = _documented_ending(["fig2", "-E", repr(energy), "--m-max", "3"])
    if rc == 0:
        cells = _finite_ratio_rows(out)
        exact = [cell["exact_ratio"] for cell in cells]
        assert all(b > a for a, b in zip(exact, exact[1:]))
        for cell in cells:
            assert cell["lower_bound_ratio"] <= cell["exact_ratio"] + 1e-12
            assert cell["exact_ratio"] <= 2.0 + 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kappa=_EDGE_FLOATS, nb=_EDGE_FLOATS, energy=_EDGE_FLOATS)
@example(kappa=5e-324, nb=0.0, energy=3.7)
@example(kappa=5e-324, nb=0.0, energy=10.0)
@example(kappa=5e-324, nb=5e-324, energy=3.7)
@example(kappa=5e-324, nb=5e-324, energy=10.0)
def test_fig3_ends_in_a_documented_way(kappa, nb, energy):
    with tempfile.TemporaryDirectory() as out_dir:
        rc, _ = _documented_ending(["fig3", "-k", repr(kappa), "--nb", repr(nb),
                                    "-E", repr(energy), "-m", "1e1:1e2:1/dec",
                                    "--out-dir", out_dir])
        tables = [path.read_text() for path in Path(out_dir).iterdir()]
    if rc != 0:
        assert tables == []
        return
    (text,) = tables
    for cell in _finite_ratio_rows(text):
        slack = 1e-12 * max(1.0, abs(cell["upper_ratio"]))
        assert 1.0 - slack <= cell["upper_ratio"]
        assert cell["lb_ratio"] <= cell["upper_ratio"] + slack
        assert cell["chi_lb_ratio"] <= cell["lb_ratio"] + slack


class TestImpossibleCapacities:
    """Closed forms that round to an impossible capacity exit 2 before any output."""

    @pytest.mark.parametrize("argv, message", [
        ("bounds -k 5e-324 --nb 0 -E 3.7 -m 10", "is below the unassisted"),
        ("bounds -k 0.8 --nb 10 -E 1e-300 -m 10", "is below the unassisted"),
        ("bounds -k 1e-16 --nb 0 -E 1 -m 10", "is below the unassisted"),
        # ea rounds to -9.26e-298, below chi = 0
        ("phase-encoding -k 0.8 --nb 10 -E 1e-300", "exceeds the assisted capacity"),
        ("phase-encoding -k 5e-324 --nb 0 -E 3.7", "is below the unassisted"),
        # chi's own guard refuses this point before ea is formed
        ("phase-encoding -k 1e-16 --nb 0 -E 1", "negative Holevo information"),
        ("fig3 -k 5e-324 --nb 0 -E 3.7 -m 1e1:1e2:1/dec", "is below the unassisted"),
        ("capacity --thermal-loss -k 1e-16 --nb 1e-3 -E 10", "is below the unassisted"),
        ("capacity --thermal-loss -k 5e-324 --nb 0 -E 3.7", "is below the unassisted"),
        ("bounds -k 0.8 --nb 1e17 -E 1 -m 10", "unassisted capacity rounds to 0"),
        ("phase-encoding -k 0.8 --nb 1e-12 -E 1e-16", "exceeds the assisted capacity"),
        # the second curve's baseline rounds to 0 after the first one passed
        ("fig3 --nb 10 --nb 1e17 -E 1 -m 10", "unassisted capacity rounds to 0"),
    ])
    def test_exit_two_with_one_line(self, argv, message, tmp_path, capsys):
        rc = cli.main(argv.split() + (["--out-dir", str(tmp_path)]
                                      if argv.startswith("fig3") else []))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    def test_fig3_checks_every_curve_before_writing(self, tmp_path, monkeypatch, capsys):
        ea_of = phase_encoding.ea_capacity
        monkeypatch.setattr(  # chi's guard sees ea one bit low at the second noise level
            phase_encoding, "ea_capacity",
            lambda ch, energy: ea_of(ch, energy) - (ch.n_b == 1.0))
        rc = cli.main(["fig3", "--nb", "10", "--nb", "1", "-m", "10",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "exceeds the assisted capacity" in err and "n_b=1.0," in err
        assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_failing_check_exits_two(self, capsys, monkeypatch):
        bad = CheckResult("forced failure", value=1.0, reference=0.0,
                          tolerance=1e-9)
        monkeypatch.setattr(verification, "run_all", lambda: [bad])
        assert cli.main(["verify"]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "0 passed, 1 failed, 0 skipped" in out

    def test_raising_check_ends_verify(self, capsys, monkeypatch):
        def exhausted():
            raise MemoryError("cannot allocate the dense state")
        checks = list(verification._ALL_CHECKS)
        checks[2] = exhausted
        monkeypatch.setattr(verification, "_ALL_CHECKS", tuple(checks))
        assert cli.main(["verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: out of memory: cannot allocate the dense state"]


# stdout of `capacity --thermal-loss -k 0.8 --nb 10 -E 0.001`, the closed forms
_THERMAL_LOSS_REPORT = """\
{
  "channel": {
    "kind": "thermal-loss",
    "kappa": 0.8,
    "nb": 10.0,
    "energy": 0.001
  },
  "ea": 0.000739422376409,
  "hsw": 0.000109998622282,
  "ratio": 6.72210579614,
  "intermediates": {
    "e_prime": 10.0008,
    "big_d": 11.0016544229,
    "a_plus": 10.0007272114,
    "a_minus": 0.000927211429205
  }
}
"""


class TestArgumentParsing:
    """Command lines the parser refuses, or reads, before any command runs."""

    @pytest.mark.parametrize("argv", [
        "capacity --pure -E 1", "capacity --thermal -k 0.8 -E 1", "fig2 --m 3",
        "bounds -k 0.8 --ener 1 -m 10", "phase-encoding -k 0.8 -E 1 --form csv"])
    def test_abbreviated_options_exit_one(self, argv, capsys):
        assert cli.main(argv.split()) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        "capacity --thermal-loss -E 1 --out", "fig2 --out",
        "bounds -k 0.8 -E 1 -m 10 --out", "phase-encoding -k 0.8 -E 1 --out",
        "fig3 -m 10 --out-dir"])
    def test_bad_paths_exit_one_before_any_work(self, argv, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setattr(cli, "ThermalLossChannel", None)  # every command's first step
        path = tmp_path  # a directory for --out
        if argv.endswith("--out-dir"):
            path = tmp_path / "a-file"
            path.write_text("")
        before = sorted(tmp_path.iterdir())
        assert cli.main(argv.split() + [str(path)]) == 1
        assert str(path) in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_repeated_noise_levels_replace_the_defaults(self, tmp_path, capsys):
        assert cli.main(["fig3", "--nb", "1", "-m", "10", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir()] == ["fig3_nb1.csv"]


class TestEntryPoint:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "capacity" in capsys.readouterr().out

    @pytest.mark.parametrize("command, defaults", [
        ("capacity", ["transmissivity (default: 1.0)", "(default: 0.0)"]),
        ("fig2", ["per mode (default: 1.0)", "(default: 20)"]),
        ("fig3", ["(default: 0.8)", "(default: 0.001)", "(default: 1e1:1e7:10/dec)",
                  "(default: 10 1 0.1 0.01)", "(default: .)"]),
        ("bounds", ["(default: 0.0)", "(default: csv)"]),
        ("phase-encoding", ["(default: 0.0)", "(default: json)"])])
    def test_help_lists_the_commands_and_the_defaults(self, command, defaults, capsys):
        assert cli.main(["--help"]) == 0
        words = capsys.readouterr().out.split()
        assert {"capacity", "fig2", "fig3", "bounds", "phase-encoding", "verify"} <= set(words)
        assert cli.main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert all(default in text for default in defaults), text

    @staticmethod
    def _fresh_python(*args):
        """A new interpreter that imports dephcap from this checkout."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=120)

    def test_import_leaves_scipy_unloaded(self):
        # scipy is a test dependency only: importing the CLI does not load
        # it, and neither does verify, whose dilation is plain numpy
        code = "\n".join([
            "import contextlib, io, sys, dephcap.cli",
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "print(loaded())",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    rc = dephcap.cli.main(['verify'])",
            "print(rc, loaded())"])
        proc = self._fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n0 []\n"

    @pytest.mark.parametrize("argv", [
        ["capacity", "--thermal-loss", "-k", "0.8", "--nb", "10", "-E", "0.001"],
        ["--help"]], ids=["capacity-thermal", "help"])
    def test_closed_forms_and_help_leave_numpy_unloaded(self, argv):
        code = "\n".join([
            "import contextlib, io, sys, dephcap",
            "def loaded(): return sorted(m for m in sys.modules",
            "                            if m.split('.')[0] in ('numpy', 'concurrent'))",
            "print(loaded())",
            "import dephcap.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    rc = dephcap.cli.main({argv!r})",
            "print(rc, loaded())"])
        proc = self._fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n0 []\n"

    def test_lazy_names_and_submodules_resolve(self):
        # perfbench/spans.py reads the submodules as attributes of the
        # package right after importing the CLI
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        code = "\n".join([
            f"import sys; sys.path.insert(0, {str(perfbench)!r})",
            "import dephcap, dephcap.cli, spans",
            "print([n for n in dephcap.__all__ if getattr(dephcap, n, None) is None])",
            "print(all(hasattr(module, attr) for module, attr, *_ in spans.layer_points(dephcap)),",
            "      hasattr(dephcap.verification, '_ALL_CHECKS'))",
            "namespace = {}",
            "exec('from dephcap import *', namespace)",
            "print(sorted(set(dephcap.__all__) - set(namespace)),",
            "      hasattr(dephcap, 'no_such_name'), 'no_such_name' in dir(dephcap))"])
        proc = self._fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nTrue True\n[] False False\n"

    def test_benchmark_ops_run_under_its_tracer(self, monkeypatch, tmp_path):
        # perfbench/spans.py wraps the layers it names, and reads .probs from
        # what two of them return; every seed-0 op must still run and be right
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        import checks
        import spans
        import workloads

        import dephcap
        reference = json.loads((perfbench / "reference.json").read_text())
        for name in workloads.WORKLOADS:
            for op in workloads.passes(name, 0)[0]:
                argv = list(op.argv)
                if op.kind == "fig3":
                    argv += ["--out-dir", str(tmp_path)]
                tracer, out = spans.Tracer(), StringIO()
                with tracer.installed(dephcap), tracer.op(op.key), \
                        redirect_stdout(out), redirect_stderr(StringIO()):
                    rc = cli.main(argv)
                assert rc == 0, op.key
                output = out.getvalue()
                if op.kind == "fig3":
                    output = {p.name: p.read_text() for p in tmp_path.glob("*.csv")}
                assert checks.check(op, output, reference[op.key]) > 0, op.key
                assert len(tracer.spans) > 1, op.key  # layers below the op's own span

    def test_traced_verify_counts_each_map_and_check(self, monkeypatch):
        # the loss checks share one dilation per run, yet every map and every
        # check stays one span of its own layer, as the per-layer metrics read them
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans

        import dephcap
        tables, corners = [], dephcap.fock_oracle.beamsplitter_corners
        monkeypatch.setattr(dephcap.fock_oracle, "beamsplitter_corners",
                            lambda *args: tables.append(args) or corners(*args))
        tracer = spans.Tracer()
        with tracer.installed(dephcap), tracer.op("verify"), redirect_stdout(StringIO()):
            assert cli.main(["verify"]) == 0
        assert len(tables) == 3  # the wrapped checks still get the shared dilation
        totals = spans.layer_totals(tracer.spans)
        assert totals["fock_oracle.apply_thermal_loss"]["calls"] == 9
        checks = {name: t["calls"] for name, t in totals.items()
                  if name.startswith("verification.")}
        assert checks == {"verification." + fn.__name__.removeprefix("check_"): 1
                          for fn in verification._ALL_CHECKS}

    def test_oracle_imports_no_closed_form_module(self):
        code = "\n".join([
            "import sys, dephcap.fock_oracle",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dephcap'))"])
        proc = self._fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['dephcap', 'dephcap.fock_oracle']\n"

    def test_runs_as_a_module(self):
        proc = self._fresh_python("-m", "dephcap", "verify")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 12 and all(line.startswith("PASS ") for line in lines[:11])
        assert lines[11] == "11 passed, 0 failed, 0 skipped"
        proc = self._fresh_python("-m", "dephcap", "capacity", "-E", "1", "--bogus")
        assert proc.returncode == 1
        assert proc.stdout == "" and "--bogus" in proc.stderr

    def test_runs_without_click(self):
        def run(*argv):
            code = ("import runpy, sys; sys.modules['click'] = None; "
                    "runpy.run_module('dephcap', run_name='__main__')")
            return self._fresh_python("-c", code, *argv)

        proc = run("--help")
        assert proc.returncode == 0 and "phase-encoding" in proc.stdout, proc.stderr
        proc = run("capacity", "--thermal-loss", "-k", "0.8", "--nb", "10", "-E", "0.001")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == _THERMAL_LOSS_REPORT
        proc = run("capacity", "-E", "1", "--bogus")
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--bogus" in lines[0]

    def test_console_script_is_installed(self):
        script = shutil.which("dephcap")
        assert script is not None, "console script not on PATH"
        proc = subprocess.run([script, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "fig2" in proc.stdout
