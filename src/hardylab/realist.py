"""Measurement-as-reveal reading of a two-qubit state.

Every setting pair carries a definite pre-existing joint outcome; measuring
a pair only uncovers the outcome already assigned to it. Assignments are
drawn independently per setting with Born weights, so single-run statistics
reproduce the quantum rows by construction. They come in batches from
experiment.sample_assignments, and a realist-mode trial of the experiment
reveals one entry of such an assignment. Rows are renormalized to sum to
exactly 1 before drawing, so the slack of a row that sums to 1 within 1e-9
is shared among its cells in proportion to their weight. Whether one
assignment can be explained by per-side response functions is a separate,
checkable question.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .qstate import (
    JOINT_OUTCOMES,
    JointOutcome,
    Outcome,
    SettingPair,
    TwoQubitState,
    born_table,
    setting_rows,
)

CANDIDATE_TOL = 1e-9  # probability match tolerance when comparing candidate sets


# ===========================================================================
# pre-existing outcome candidates
# ===========================================================================

def enumerate_preexisting(state: TwoQubitState) -> dict[JointOutcome, float]:
    """Candidate pre-existing outcomes in the state's own basis pair, each
    with its Born weight, in canonical cell order.

    Cells whose Born probability is a structural zero are excluded: those
    outcomes can never be revealed, so nothing pre-exists there.
    """
    return {cell: p for cell, p in born_table(state).items() if p > 0.0}


def same_candidates(first: Mapping[JointOutcome, float],
                    second: Mapping[JointOutcome, float]) -> bool:
    """True when both maps hold the same cells, probabilities within CANDIDATE_TOL."""
    return (first.keys() == second.keys()
            and all(abs(p - second[cell]) <= CANDIDATE_TOL for cell, p in first.items()))


# ===========================================================================
# context assignments
# ===========================================================================

@dataclass(frozen=True, eq=False)
class ContextAssignment:
    """One definite joint outcome per setting pair, fixed before measurement."""

    per_setting: Mapping[SettingPair, JointOutcome]

    def __post_init__(self) -> None:
        if not self.per_setting:
            raise ValueError("assignment needs at least one setting")
        unknown = [o for o in self.per_setting.values() if o not in JOINT_OUTCOMES]
        if unknown:
            raise ValueError(f"assignment has unknown outcomes {unknown}")
        object.__setattr__(self, "per_setting", dict(setting_rows(self.per_setting)))


def reveal(assignment: ContextAssignment, chosen: SettingPair) -> JointOutcome:
    """Uncover the outcome already assigned to the chosen setting."""
    try:
        return assignment.per_setting[chosen]
    except KeyError:
        raise ValueError(f"assignment has no setting {chosen}") from None


def is_noncontextual(assignment: ContextAssignment) -> bool:
    """True when the assignment factors through per-side response functions.

    Equivalently: the left letter depends only on the left label and the
    right letter only on the right label, across the assignment's settings.
    """
    left_fn: dict[str, Outcome] = {}
    right_fn: dict[str, Outcome] = {}
    for setting, outcome in assignment.per_setting.items():
        if left_fn.setdefault(setting.left, outcome.left) != outcome.left:
            return False
        if right_fn.setdefault(setting.right, outcome.right) != outcome.right:
            return False
    return True
