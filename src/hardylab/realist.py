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
from typing import Iterable, Mapping, Sequence

from .qstate import (
    JOINT_OUTCOMES,
    BasisChange,
    JointOutcome,
    Outcome,
    ProductState,
    SettingPair,
    TwoQubitState,
    born_table,
    rebase_state_to,
)

CANDIDATE_TOL = 1e-9  # probability match tolerance when comparing candidate sets


# ===========================================================================
# pre-existing outcome candidates
# ===========================================================================

@dataclass(frozen=True)
class PreexistingCandidate:
    """A joint outcome the state could be carrying, with its Born weight."""

    state: ProductState
    probability: float


def enumerate_preexisting(state: TwoQubitState) -> list[PreexistingCandidate]:
    """Candidate pre-existing outcomes in the state's own basis pair.

    Cells whose Born probability is a structural zero are excluded: those
    outcomes can never be revealed, so nothing pre-exists there.
    """
    table = born_table(state)
    out = []
    for cell in JOINT_OUTCOMES:
        p = table[cell]
        if p > 0.0:
            out.append(PreexistingCandidate(
                ProductState(state.left_basis, state.right_basis, cell.left, cell.right),
                p,
            ))
    return out


def same_candidates(first: Sequence[PreexistingCandidate],
                    second: Sequence[PreexistingCandidate]) -> bool:
    """True when both lists hold the same cells, probabilities within CANDIDATE_TOL."""
    a = {c.state.joint: c.probability for c in first}
    b = {c.state.joint: c.probability for c in second}
    return a.keys() == b.keys() and all(abs(a[k] - b[k]) <= CANDIDATE_TOL for k in a)


def distinguish_states(first: TwoQubitState, second: TwoQubitState,
                       settings: Sequence[SettingPair],
                       changes: Iterable[BasisChange]) -> dict[SettingPair, bool]:
    """Per setting pair: do the two states offer identical candidate sets?

    The returned map holds True where same_candidates holds for the two
    states rebased to that pair, i.e. where the states are indistinguishable
    by revealed outcomes.
    """
    pool = list(changes)
    report: dict[SettingPair, bool] = {}
    for setting in settings:
        setting = SettingPair(*setting)
        report[setting] = same_candidates(
            enumerate_preexisting(rebase_state_to(first, setting, pool)),
            enumerate_preexisting(rebase_state_to(second, setting, pool)))
    return report


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
        clean = {}
        for setting in sorted(self.per_setting, key=lambda s: (s.left, s.right)):
            clean[SettingPair(*setting)] = self.per_setting[setting]
        object.__setattr__(self, "per_setting", clean)


def reveal(assignment: ContextAssignment, chosen: SettingPair) -> JointOutcome:
    """Uncover the outcome already assigned to the chosen setting."""
    chosen = SettingPair(*chosen)
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
