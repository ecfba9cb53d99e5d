"""Joint-outcome tables for the Hardy state, a measurement-as-reveal sampler,
and brute-force Bell-locality checks."""
from __future__ import annotations

from .qstate import (
    Behavior,
    BasisChange,
    JointOutcome,
    Mixture,
    Outcome,
    ProductState,
    SettingPair,
    TwoQubitState,
    born_table,
    hardy_basis_change,
    hardy_behavior,
    hardy_state,
    make_state,
    mixture_behavior,
    phi_minus,
    phi_plus,
    quantum_behavior,
    zx_change,
)

__all__ = [
    "Behavior",
    "BasisChange",
    "JointOutcome",
    "Mixture",
    "Outcome",
    "ProductState",
    "SettingPair",
    "TwoQubitState",
    "born_table",
    "hardy_basis_change",
    "hardy_behavior",
    "hardy_state",
    "make_state",
    "mixture_behavior",
    "phi_minus",
    "phi_plus",
    "quantum_behavior",
    "zx_change",
]

__version__ = "0.1.0"
