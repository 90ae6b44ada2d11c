"""The benchmark's workloads: which CLI calls make up one pass, per seed.

Each op is one ``dephcap.cli.main(argv)`` call.  Seed 0 uses the paper's
values exactly; any other seed draws each non-fixed energy and noise level
uniformly from a narrow band around that value (``JITTER``).  The paper's
default figures, the passing large-m capacity point and the known-failing
points are fixed for every seed.
"""

import random
from dataclasses import dataclass, field

# relative half-width of the band each drawn parameter is taken from
JITTER = 0.01

WORKLOADS = ("dephasing-blocks", "large-m-sweeps", "verify-oracle")

# DEPH_NUM_THREADS for the timed passes; None keeps the program's default
# pool.  dephasing-blocks runs on one worker: its cheap points hold the GIL,
# and on a shared 2-vCPU host its wall time with two workers followed the
# host's scheduling of them more than the program (pass times spread 0.16
# of their mean and drifted 35% within three minutes, against 0.09 and 4%
# on one worker in the same minutes).  cli.pool_speedup still measures the
# pool on every workload.
POOL = {"dephasing-blocks": "1", "large-m-sweeps": None, "verify-oracle": None}

# (m, E) points where solve_dephasing raises at the seed commit although the
# inputs are valid (ROADMAP item 2).  They run after the timed passes as a
# probe, so the defect shows on every run while the timed ops all succeed.
KNOWN_FAILING = ((2000, 10.0), (10000, 10.0), (20000, 1.0), (20000, 10.0))


@dataclass(frozen=True)
class Op:
    """One CLI call: ``kind`` selects the output check, ``params`` feed it."""

    kind: str
    argv: tuple
    params: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self):
        return " ".join(self.argv)


def _fmt(x):
    return f"{x:g}"


def capacity_dephasing(m, energy):
    return Op("capacity-dephasing",
              ("capacity", "--pure-dephasing", "-m", str(m), "-E", _fmt(energy)),
              {"m": m, "energy": energy})


# the set-up op: closed forms only, so it times import and CLI start-up
SETUP_OP = Op("capacity-thermal",
              ("capacity", "--thermal-loss", "-k", "0.8", "--nb", "10", "-E", "0.001"),
              {"kappa": 0.8, "nb": 10.0, "energy": 0.001})


def _draw(seed):
    """Parameter values for one seed, each rounded to 6 significant digits."""
    nominal = {"fig2_e_low": 1.0, "fig2_e_high": 10.0, "bounds_e": 1.0,
               "bounds_nb": 1.0, "pe_e": 10.0, "pe_nb": 10.0}
    if seed == 0:
        return nominal
    rng = random.Random(seed)
    return {name: float(f"{v * (1.0 + JITTER * rng.uniform(-1.0, 1.0)):.6g}")
            for name, v in nominal.items()}


def passes(workload, seed):
    """(timed ops of one pass, probe ops run once after timing)."""
    p = _draw(seed)
    if workload == "dephasing-blocks":
        ops = [
            Op("fig2", ("fig2", "-E", _fmt(p["fig2_e_low"]), "--m-max", "200"),
               {"energy": p["fig2_e_low"], "m_max": 200}),
            Op("fig2", ("fig2", "-E", _fmt(p["fig2_e_high"]), "--m-max", "100"),
               {"energy": p["fig2_e_high"], "m_max": 100}),
            capacity_dephasing(5000, 10.0),
        ]
        return ops, [capacity_dephasing(m, e) for m, e in KNOWN_FAILING]
    if workload == "large-m-sweeps":
        return [
            Op("bounds", ("bounds", "-k", "0.8", "--nb", _fmt(p["bounds_nb"]),
                          "-E", _fmt(p["bounds_e"]), "-m", "1e3:1e7:4/dec"),
               {"kappa": 0.8, "nb": p["bounds_nb"], "energy": p["bounds_e"],
                "grid": (3, 7, 4)}),
            Op("phase-encoding",
               ("phase-encoding", "-k", "0.8", "--nb", _fmt(p["pe_nb"]),
                "-E", _fmt(p["pe_e"]), "-m", "1e2:1e6:4/dec"),
               {"kappa": 0.8, "nb": p["pe_nb"], "energy": p["pe_e"],
                "grid": (2, 6, 4)}),
            Op("fig3", ("fig3",),
               {"kappa": 0.8, "energy": 0.001, "nbs": (10.0, 1.0, 0.1, 0.01),
                "grid": (1, 7, 10)}),
        ], []
    if workload == "verify-oracle":
        return [Op("verify", ("verify",), {"checks": 11})], []
    raise ValueError(f"unknown workload {workload!r}")
