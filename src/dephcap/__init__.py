"""Capacities of bosonic channels under collective phase noise.

Closed-form assisted/unassisted capacities for thermal-loss channels, exact
optimal inputs for the multimode dephasing channel, the total-count entropies
that bound their composition, Holevo rates of phase-modulated entangled
encodings, and a dense truncated-Fock simulator that cross-checks all of it.

Names and submodules are imported on first use (PEP 562), so a program that
needs only the closed-form capacities never loads numpy.
"""

import importlib

_EXPORTS = {
    "CapacityReport": "thermal_loss",
    "ContractViolation": "errors",
    "DephasingSolution": "dephasing_exact",
    "JointFockDiagonal": "phase_encoding",
    "SolverError": "errors",
    "ThermalLossChannel": "thermal_loss",
    "Window": "photon_dist",
    "capacity_report": "thermal_loss",
    "ea_capacity": "thermal_loss",
    "entropy_total_asym": "bounds",
    "entropy_total_exact": "bounds",
    "fock_diagonal": "phase_encoding",
    "holevo_phase_encoding": "phase_encoding",
    "hsw_capacity": "thermal_loss",
    "shannon_entropy": "special_math",
    "solve_dephasing": "dephasing_exact",
    "symplectic_eigenvalues": "phase_encoding",
    "thermal_entropy_g": "scalar_math",
    "tmsv_through_loss": "phase_encoding",
}
_SUBMODULES = {*_EXPORTS.values(), "cli", "fock_oracle", "verification"}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__})
