"""The benchmark's recorded outputs, replayed through the CLI.

Every seed-0 op of ``perfbench/workloads.py`` runs through ``cli.main`` and
must pass the benchmark's own check in ``perfbench/checks.py``: the paper's
invariants and a 1e-10-relative match against ``perfbench/reference.json``.
For ``verify`` that match covers each check's name, status, tolerance and
reference, and the two computed values (the two-mode mutual information and
the discrete-phase Holevo information).  A change that moves an output past
that tolerance fails here, not only in the benchmark.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from dephcap import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
OPS = [workloads.SETUP_OP] + [
    op for name in workloads.WORKLOADS for op in workloads.passes(name, 0)[0]]


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.key)
def test_output_matches_the_recorded_reference(op, tmp_path):
    argv = list(op.argv)
    if op.kind == "fig3":
        argv += ["--out-dir", str(tmp_path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    output = out.getvalue()
    if op.kind == "fig3":
        output = {p.name: p.read_text() for p in tmp_path.glob("*.csv")}
    assert checks.check(op, output, REFERENCE[op.key]) > 0
