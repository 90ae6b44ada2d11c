"""Capacities of bosonic channels under collective phase noise.

Closed-form assisted/unassisted capacities for thermal-loss channels, exact
optimal inputs for the multimode dephasing channel, the total-count entropies
that bound their composition, Holevo rates of phase-modulated entangled
encodings, and a dense truncated-Fock simulator that cross-checks all of it.
"""

from .bounds import entropy_total_asym, entropy_total_exact
from .dephasing_exact import DephasingSolution, solve_dephasing
from .errors import ContractViolation, SolverError
from .phase_encoding import (
    JointFockDiagonal,
    fock_diagonal,
    holevo_phase_encoding,
    symplectic_eigenvalues,
    tmsv_through_loss,
)
from .photon_dist import PhotonDistribution
from .special_math import shannon_entropy, thermal_entropy_g
from .thermal_loss import (
    CapacityReport,
    ThermalLossChannel,
    capacity_report,
    ea_capacity,
    hsw_capacity,
)

__all__ = [
    "CapacityReport",
    "ContractViolation",
    "DephasingSolution",
    "JointFockDiagonal",
    "PhotonDistribution",
    "SolverError",
    "ThermalLossChannel",
    "capacity_report",
    "ea_capacity",
    "entropy_total_asym",
    "entropy_total_exact",
    "fock_diagonal",
    "holevo_phase_encoding",
    "hsw_capacity",
    "shannon_entropy",
    "solve_dephasing",
    "symplectic_eigenvalues",
    "thermal_entropy_g",
    "tmsv_through_loss",
]

__version__ = "0.1.0"
