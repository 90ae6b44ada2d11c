"""Capacities of bosonic channels under collective phase noise.

Closed-form assisted/unassisted capacities for thermal-loss channels, exact
optimal inputs for the multimode dephasing channel, the total-count entropies
that bound their composition, Holevo rates of phase-modulated entangled
encodings, and a dense truncated-Fock simulator that cross-checks all of it.
"""

from .bounds import (
    entropy_total_asym,
    entropy_total_exact,
    thermal_total_photon_dist,
)
from .dephasing_exact import (
    DephasingSolution,
    ea_capacity_pure_dephasing,
    hsw_capacity_pure_dephasing,
    optimal_total_distribution,
    solve_dephasing,
    solve_lambda,
)
from .errors import ContractViolation, SolverError
from .phase_encoding import (
    JointFockDiagonal,
    fock_diagonal,
    holevo_phase_encoding,
    symplectic_eigenvalues,
    tmsv_through_loss,
)
from .photon_dist import PhotonDistribution
from .special_math import (
    log_binomial,
    shannon_entropy,
    squared_binomial_law,
    thermal_entropy_g,
)
from .thermal_loss import (
    CapacityReport,
    ThermalLossChannel,
    advantage_ratio,
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
    "advantage_ratio",
    "capacity_report",
    "ea_capacity",
    "ea_capacity_pure_dephasing",
    "entropy_total_asym",
    "entropy_total_exact",
    "fock_diagonal",
    "holevo_phase_encoding",
    "hsw_capacity",
    "hsw_capacity_pure_dephasing",
    "log_binomial",
    "optimal_total_distribution",
    "shannon_entropy",
    "solve_dephasing",
    "solve_lambda",
    "squared_binomial_law",
    "symplectic_eigenvalues",
    "thermal_entropy_g",
    "thermal_total_photon_dist",
    "tmsv_through_loss",
]

__version__ = "0.1.0"
