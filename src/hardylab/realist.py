"""Measurement-as-reveal reading of a two-qubit state.

Every setting pair carries a definite pre-existing joint outcome; measuring
a pair only uncovers the outcome already assigned to it. Assignments are
drawn independently per setting with Born weights, so single-run statistics
reproduce the quantum rows by construction. experiment.sample_assignments
draws them as rows of outcome indices, one column per setting, and a
realist-mode trial reveals one entry of such a row. Each row of weights is
renormalized to exactly 1 first, so a slack within 1e-9 is shared among its
cells in proportion to their weight. is_noncontextual answers the separate
question whether an assignment factors through per-side response functions.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .qstate import Behavior, JointOutcome, TwoQubitState, born_table

CANDIDATE_TOL = 1e-9  # probability match tolerance when comparing candidate sets


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


def is_noncontextual(behavior: Behavior, rows: np.ndarray) -> np.ndarray:
    """One bool per assignment row: True where it factors through per-side
    response functions.

    Entry [i, k] is the outcome index 2 l + r that row i assigns to
    behavior.settings[k], as experiment.sample_assignments returns them. A
    row factors when all settings that share a left label agree on its left
    letter (index >> 1), and all that share a right label on its right
    letter (index & 1).
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != len(behavior.settings):
        raise ValueError(f"assignment rows of shape {rows.shape} need one column per setting")
    bad = np.unique(rows[~np.isin(rows, range(4))]).tolist()
    if bad:
        raise ValueError(f"assignment rows hold entries that are not outcome indices 0-3: {bad}")
    rows = rows.astype(np.uint8, copy=False)
    ok = np.ones(len(rows), dtype=bool)
    for side, letters in ((0, rows >> 1), (1, rows & 1)):
        first: dict[str, int] = {}  # label -> column of its first setting
        for k, setting in enumerate(behavior.settings):
            ok &= letters[:, k] == letters[:, first.setdefault(setting[side], k)]
    return ok
