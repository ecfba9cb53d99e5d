"""Real-amplitude two-qubit states over labeled local bases.

Each detector side carries its own basis label (detector modes "1"/"2", or
spin axes "z"/"x"). Joint outcomes are named by a letter per side, R or G,
with R doubling as spin "+" and G as spin "-". Amplitude vectors and
probability rows always use the canonical cell order (RR, RG, GR, GG).

Tolerances: norms and weight or row sums may be off by at most 1e-9; states
and mixtures renormalize, a Behavior only clamps cells to [0, 1]. Equality
checks use 1e-12; born_table and mixture_behavior zero probabilities below it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

NORM_TOL = 1e-9   # constructor acceptance for norms / weight and row sums
EQ_TOL = 1e-12    # internal equality; also the structural-zero threshold

BasisLabel = str


# ===========================================================================
# outcomes and settings
# ===========================================================================

class Outcome(enum.Enum):
    """Single-side outcome; R is spin "+", G is spin "-"."""

    R = "R"
    G = "G"

    @property
    def index(self) -> int:
        return 0 if self is Outcome.R else 1


class JointOutcome(enum.Enum):
    """Two-side outcome, left letter first, in canonical declaration order."""

    RR = "RR"
    RG = "RG"
    GR = "GR"
    GG = "GG"

    left: Outcome
    right: Outcome
    index: int  # position in the canonical cell order (RR, RG, GR, GG)

    def __init__(self, value: str) -> None:
        # Computed once per member, when the enum class is built.
        self.left = Outcome(value[0])
        self.right = Outcome(value[1])
        self.index = 2 * self.left.index + self.right.index

    @classmethod
    def from_outcomes(cls, left: Outcome, right: Outcome) -> JointOutcome:
        return cls(left.value + right.value)


OUTCOMES: tuple[Outcome, ...] = tuple(Outcome)
JOINT_OUTCOMES: tuple[JointOutcome, ...] = tuple(JointOutcome)


class SettingPair(NamedTuple):
    """One measurement choice per side, identified by basis label."""

    left: BasisLabel
    right: BasisLabel

    @property
    def key(self) -> str:
        """Compact name used in JSON and reports, e.g. "12"."""
        return self.left + self.right

    def __str__(self) -> str:
        return f"({self.left},{self.right})"


def setting_rows(table: Mapping[Any, Any]) -> list[tuple[SettingPair, Any]]:
    """A table's (setting, row) pairs, settings in canonical order.

    Every key must be a pair of string basis labels (a SettingPair or a
    plain 2-tuple); any other key is a ValueError naming it. This is the one
    check of a setting key: lookups take the key as given.
    """
    for key in table:
        if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(x, str) for x in key)):
            raise ValueError(f"setting key {key!r} is not a pair of basis labels")
    return [(SettingPair(*key), table[key]) for key in sorted(table)]


# ===========================================================================
# states and basis changes
# ===========================================================================

@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Unit-norm real amplitudes over the four joint cells of a basis pair.

    amps follows the canonical cell order. Construction renormalizes after
    checking the norm is within NORM_TOL of 1.
    """

    left_basis: BasisLabel
    right_basis: BasisLabel
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=float).reshape(-1)
        if amps.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {np.shape(self.amps)}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitude norm is {norm:.12g}, expected 1 within {NORM_TOL}")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def amplitude(self, cell: JointOutcome) -> float:
        return float(self.amps[cell.index])


def make_state(left_basis: BasisLabel, right_basis: BasisLabel,
               amps: Sequence[float]) -> TwoQubitState:
    """Build a state from amplitudes in canonical cell order."""
    return TwoQubitState(left_basis, right_basis, np.asarray(amps, dtype=float))


@dataclass(frozen=True, eq=False)
class BasisChange:
    """Orthogonal single-side change of basis.

    Column k of matrix expresses from-basis vector k in the to basis, rows
    and columns both in R=0, G=1 order. Orthogonality is checked to EQ_TOL.
    """

    from_basis: BasisLabel
    to_basis: BasisLabel
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"basis change matrix must be 2x2, got {m.shape}")
        gram = m.T @ m
        if not np.allclose(gram, np.eye(2), rtol=0.0, atol=100 * EQ_TOL):
            raise ValueError(
                f"matrix for {self.from_basis!r}->{self.to_basis!r} is not orthogonal")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def rebasis(state: TwoQubitState, left: BasisChange | None = None,
            right: BasisChange | None = None) -> TwoQubitState:
    """Rewrite a state under per-side basis changes (None leaves a side alone)."""
    if left is not None and left.from_basis != state.left_basis:
        raise ValueError(
            f"left side is in basis {state.left_basis!r} but the change maps "
            f"{left.from_basis!r} to {left.to_basis!r}")
    if right is not None and right.from_basis != state.right_basis:
        raise ValueError(
            f"right side is in basis {state.right_basis!r} but the change maps "
            f"{right.from_basis!r} to {right.to_basis!r}")
    a = state.amps.reshape(2, 2)
    if left is not None:
        a = left.matrix @ a
    if right is not None:
        a = a @ right.matrix.T
    return TwoQubitState(
        state.left_basis if left is None else left.to_basis,
        state.right_basis if right is None else right.to_basis,
        a.reshape(-1),
    )


def born_table(state: TwoQubitState) -> dict[JointOutcome, float]:
    """Squared amplitudes per cell; values below EQ_TOL become exact zeros."""
    probs = state.amps ** 2
    return {cell: (0.0 if probs[cell.index] < EQ_TOL else float(probs[cell.index]))
            for cell in JOINT_OUTCOMES}


# ===========================================================================
# product states and mixtures
# ===========================================================================

@dataclass(frozen=True)
class ProductState:
    """Definite single-side outcomes in a definite basis pair."""

    left_basis: BasisLabel
    right_basis: BasisLabel
    left: Outcome
    right: Outcome

    @property
    def joint(self) -> JointOutcome:
        return JointOutcome.from_outcomes(self.left, self.right)

    def to_state(self) -> TwoQubitState:
        amps = np.zeros(4)
        amps[self.joint.index] = 1.0
        return TwoQubitState(self.left_basis, self.right_basis, amps)


@dataclass(frozen=True, eq=False)
class Mixture:
    """Classical mixture of product states with nonnegative weights summing to 1."""

    components: tuple[tuple[float, ProductState], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(w), ps) for w, ps in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for w, _ in comps:
            if not math.isfinite(w) or w < -EQ_TOL:
                raise ValueError(f"mixture weight {w!r} is negative or not finite")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"mixture weights sum to {total:.12g}, expected 1")
        comps = tuple((max(w, 0.0) / total, ps) for w, ps in comps)
        object.__setattr__(self, "components", comps)


# ===========================================================================
# behaviors
# ===========================================================================

@dataclass(frozen=True, eq=False)
class Behavior:
    """Joint-outcome probability row per setting pair.

    Rows are stored in canonical order: settings sorted by label pair, cells
    in (RR, RG, GR, GG) order. Each row must sum to 1 within NORM_TOL.
    """

    table: Mapping[SettingPair, Mapping[JointOutcome, float]]

    def __post_init__(self) -> None:
        if not self.table:
            raise ValueError("behavior needs at least one setting")
        clean: dict[SettingPair, dict[JointOutcome, float]] = {}
        for setting, row in setting_rows(self.table):
            missing = [c.value for c in JOINT_OUTCOMES if c not in row]
            if missing:
                raise ValueError(f"setting {setting} is missing cells {missing}")
            unknown = [c for c in row if c not in JOINT_OUTCOMES]
            if unknown:
                raise ValueError(f"setting {setting} has unknown cells {unknown}")
            out_row: dict[JointOutcome, float] = {}
            for cell in JOINT_OUTCOMES:
                p = float(row[cell])
                if not math.isfinite(p) or p < -EQ_TOL or p > 1.0 + EQ_TOL:
                    raise ValueError(
                        f"cell {setting.key}:{cell.value} has invalid probability {p!r}")
                out_row[cell] = min(max(p, 0.0), 1.0)
            total = sum(out_row.values())
            if abs(total - 1.0) > NORM_TOL:
                raise ValueError(
                    f"setting {setting} probabilities sum to {total:.12g}, expected 1")
            clean[setting] = out_row
        object.__setattr__(self, "table", clean)

    @property
    def settings(self) -> tuple[SettingPair, ...]:
        return tuple(self.table)

    def row(self, setting: SettingPair) -> dict[JointOutcome, float]:
        return {cell: self.prob(setting, cell) for cell in JOINT_OUTCOMES}

    def prob(self, setting: SettingPair, cell: JointOutcome) -> float:
        if setting not in self.table:
            raise ValueError(f"behavior has no setting {setting}")
        return self.table[setting][cell]

    def cells(self) -> Iterable[tuple[SettingPair, JointOutcome, float]]:
        """All (setting, cell, probability) triples in the canonical flat order.

        Settings come in canonical order, each with its cells in (RR, RG, GR,
        GG) order. This is the one flat cell order: the LP's cell vector and
        the sampler's outcome codes (code k is the k-th triple) both use it.
        """
        for setting, row in self.table.items():
            for cell, p in row.items():
                yield setting, cell, p

    def is_full_grid(self) -> bool:
        """True when two left labels each pair with both of two right labels."""
        return (len({s.left for s in self.table}) == len({s.right for s in self.table}) == 2
                and len(self.table) == 4)

    def no_signaling_residual(self) -> float:
        """Largest shift of a one-side marginal when the far setting changes."""
        worst = 0.0
        for side in ("left", "right"):
            # each label's marginals over all the settings that hold it
            margs: dict[BasisLabel, list[list[float]]] = {}
            for setting, row in self.table.items():
                margs.setdefault(getattr(setting, side), []).append(
                    [sum(p for cell, p in row.items() if getattr(cell, side) is o)
                     for o in OUTCOMES])
            for per_setting in margs.values():
                for column in zip(*per_setting):
                    worst = max(worst, max(column) - min(column))
        return worst


# ===========================================================================
# behavior construction
# ===========================================================================

def resolve_change(from_basis: BasisLabel, to_basis: BasisLabel,
                   changes: Iterable[BasisChange]) -> BasisChange | None:
    """Find a change mapping from_basis to to_basis; None means identity.

    A change is used only in the direction it was given, never inverted.
    """
    if from_basis == to_basis:
        return None
    for c in changes:
        if c.from_basis == from_basis and c.to_basis == to_basis:
            return c
    raise ValueError(f"no basis change available from {from_basis!r} to {to_basis!r}")


def rebase_state_to(state: TwoQubitState, setting: SettingPair,
                    changes: Iterable[BasisChange]) -> TwoQubitState:
    """Rewrite a state into the basis pair named by a setting."""
    pool = list(changes)
    return rebasis(
        state,
        left=resolve_change(state.left_basis, setting.left, pool),
        right=resolve_change(state.right_basis, setting.right, pool),
    )


def quantum_behavior(state: TwoQubitState, change: BasisChange) -> Behavior:
    """Probability rows for all four setting pairs reachable with one change.

    The state must be given with both sides in the change's from basis, and
    the change must lead to another label. The result covers {from,to} x
    {from,to} and is checked for no-signaling.
    """
    if state.left_basis != change.from_basis or state.right_basis != change.from_basis:
        raise ValueError(
            f"state bases ({state.left_basis!r},{state.right_basis!r}) must both match "
            f"the change's from basis {change.from_basis!r}")
    if change.to_basis == change.from_basis:
        raise ValueError(f"basis change maps {change.from_basis!r} to itself")
    labels = (change.from_basis, change.to_basis)
    settings = [SettingPair(lab_l, lab_r) for lab_l in labels for lab_r in labels]
    behavior = Behavior({s: born_table(rebase_state_to(state, s, [change])) for s in settings})
    residual = behavior.no_signaling_residual()
    if residual > 100 * EQ_TOL:
        raise ValueError(f"no-signaling violated with residual {residual:.3e}")
    return behavior


def mixture_behavior(mixture: Mixture, settings: Sequence[SettingPair],
                     changes: Iterable[BasisChange]) -> Behavior:
    """Weighted-average probability rows of a product-state mixture."""
    if not settings:
        raise ValueError("at least one setting pair is required")
    pool = list(changes)
    table: dict[SettingPair, dict[JointOutcome, float]] = {}
    for setting, _ in setting_rows(dict.fromkeys(settings)):
        row = {cell: 0.0 for cell in JOINT_OUTCOMES}
        for weight, comp in mixture.components:
            t = born_table(rebase_state_to(comp.to_state(), setting, pool))
            for cell in JOINT_OUTCOMES:
                row[cell] += weight * t[cell]
        table[setting] = {cell: (0.0 if p < EQ_TOL else p) for cell, p in row.items()}
    return Behavior(table)


# ===========================================================================
# named states and changes
# ===========================================================================

# The four detector setting pairs of the Hardy state, in canonical order.
HARDY_SETTINGS = tuple(SettingPair(left, right) for left in "12" for right in "12")


def hardy_state() -> TwoQubitState:
    """The two-detector state with one forbidden cell per mixed setting pair."""
    r = math.sqrt(0.375)
    return make_state("1", "1", [0.0, r, r, -0.5])


def phi_plus() -> TwoQubitState:
    h = 1.0 / math.sqrt(2.0)
    return make_state("z", "z", [h, 0.0, 0.0, h])


def phi_minus() -> TwoQubitState:
    h = 1.0 / math.sqrt(2.0)
    return make_state("z", "z", [h, 0.0, 0.0, -h])


def hardy_basis_change() -> BasisChange:
    """Detector-mode change 1 -> 2 shared by both sides."""
    return BasisChange("1", "2", np.array([
        [math.sqrt(0.6), -math.sqrt(0.4)],
        [math.sqrt(0.4), math.sqrt(0.6)],
    ]))


def zx_change() -> BasisChange:
    """Spin-axis change z -> x."""
    h = 1.0 / math.sqrt(2.0)
    return BasisChange("z", "x", np.array([[h, h], [h, -h]]))


def hardy_behavior() -> Behavior:
    """Joint-outcome rows of the Hardy state over all four detector settings."""
    return quantum_behavior(hardy_state(), hardy_basis_change())
