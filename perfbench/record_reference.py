"""Record the outputs that checks.py compares ops against.

    python3 perfbench/record_reference.py

Records every timed op of seed 0 and the set-up op from the program in
this checkout into reference.json, after each output has passed its
invariant checks.  The file in the repository was recorded at the commit
that added the benchmark; later changes are held to it at 1e-10 relative,
so re-record only for an op whose argv changed.
"""

import json

import checks
import run
import workloads


def main():
    dephcap = run.load_program()
    ops = [workloads.SETUP_OP]
    for name in workloads.WORKLOADS:
        ops += workloads.passes(name, 0)[0]
    reference = {}
    for op in ops:
        _, output, error = run.call(op, dephcap.cli.main)
        if error is not None:
            raise SystemExit(f"{op.key}: {error}")
        checks.check(op, output)
        reference[op.key] = checks.fig3_text(output) if op.kind == "fig3" else output
        print(f"recorded {op.key}")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
