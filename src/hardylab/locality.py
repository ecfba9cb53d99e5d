"""Brute-force locality checks for 2-setting, 2-outcome joint behaviors.

A behavior is Bell-local when it is a convex mixture of the 16 deterministic
per-side strategies. Membership is decided by linear programming; a negative
verdict always comes with a separating witness certificate whose value on
the input exceeds its maximum over all deterministic strategies.

scipy is imported by the two LP calls, not here, so that the tables, the
sampler and the closed-form checks never load it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .qstate import (
    JOINT_OUTCOMES,
    OUTCOMES,
    Behavior,
    JointOutcome,
    Outcome,
    SettingPair,
)

FEAS_TOL = 1e-9     # max reconstruction mismatch still counted as membership
WITNESS_TOL = 1e-9  # minimum violation margin for an infeasibility certificate

HARDY_SETTINGS = (
    SettingPair("1", "1"),
    SettingPair("1", "2"),
    SettingPair("2", "1"),
    SettingPair("2", "2"),
)


# ===========================================================================
# deterministic strategies
# ===========================================================================

@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed per-side responses: one outcome per local setting choice."""

    left: tuple[Outcome, Outcome]
    right: tuple[Outcome, Outcome]

    @property
    def index(self) -> int:
        """Canonical position: left bits major, R before G."""
        l1, l2 = self.left
        r1, r2 = self.right
        return 8 * l1.index + 4 * l2.index + 2 * r1.index + r2.index

    def joint(self, left_choice: int, right_choice: int) -> JointOutcome:
        """Joint outcome when each side picks its first (0) or second (1) label."""
        return JointOutcome.from_outcomes(self.left[left_choice], self.right[right_choice])


def deterministic_strategies() -> tuple[DeterministicStrategy, ...]:
    """All 16 strategies in canonical order."""
    return tuple(
        DeterministicStrategy((l1, l2), (r1, r2))
        for l1, l2, r1, r2 in product(OUTCOMES, repeat=4)
    )


def strategy_behavior(strategy: DeterministicStrategy,
                      left_labels: tuple[str, str] = ("1", "2"),
                      right_labels: tuple[str, str] = ("1", "2")) -> Behavior:
    """The 0/1 behavior a strategy produces over a 2x2 setting grid."""
    return Behavior({
        SettingPair(lab_l, lab_r): {c: float(c is strategy.joint(i, j)) for c in JOINT_OUTCOMES}
        for i, lab_l in enumerate(left_labels) for j, lab_r in enumerate(right_labels)})


# Column s holds strategy s's behavior in the canonical flat cell order.
_VERTICES = np.array([[p for _, _, p in strategy_behavior(strat).cells()]
                      for strat in deterministic_strategies()]).T.copy()
# Per strategy, the four cells it picks, one per setting in canonical order.
_STRATEGY_CELLS = np.nonzero(_VERTICES.T)[1].reshape(16, 4).tolist()
_TIGHT_FIT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


# ===========================================================================
# witness functional
# ===========================================================================

def hardy_witness(behavior: Behavior) -> float:
    """P(GG|2,2) - P(GG|1,2) - P(GG|2,1) - P(RR|1,1).

    At most 0 on every Bell-local behavior; positive values certify
    nonlocality. Requires the four detector settings to be present.
    """
    s11, s12, s21, s22 = HARDY_SETTINGS
    return (behavior.prob(s22, JointOutcome.GG)
            - behavior.prob(s12, JointOutcome.GG)
            - behavior.prob(s21, JointOutcome.GG)
            - behavior.prob(s11, JointOutcome.RR))


# ===========================================================================
# polytope membership
# ===========================================================================

@dataclass(frozen=True, eq=False)
class WitnessCertificate:
    """Linear functional separating a behavior from the local polytope."""

    coefficients: dict[tuple[SettingPair, JointOutcome], float]
    value: float
    deterministic_max: float

    @property
    def margin(self) -> float:
        return self.value - self.deterministic_max

    def to_jsonable(self) -> dict:
        return {
            "coefficients": {f"{s.key}:{c.value}": v
                             for (s, c), v in self.coefficients.items()},
            "value": self.value,
            "deterministic_max": self.deterministic_max,
            "margin": self.margin,
        }


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """LP verdict: either mixing weights or a separating witness."""

    verdict: str  # "feasible" | "infeasible"
    residual: float
    weights: tuple[float, ...] | None = None
    witness: WitnessCertificate | None = None

    def to_jsonable(self) -> dict:
        return {
            "verdict": self.verdict,
            "residual": self.residual,
            "weights": list(self.weights) if self.weights is not None else None,
            "witness": self.witness.to_jsonable() if self.witness is not None else None,
        }


def _grid_cells(behavior: Behavior) -> list[tuple[SettingPair, JointOutcome, float]]:
    if not behavior.is_full_grid():
        raise ValueError("locality checks need a behavior over a full 2x2 setting grid")
    return list(behavior.cells())


def _fit_weights(b: np.ndarray, options: dict | None = None) -> tuple[np.ndarray, float]:
    """Mixing weights minimizing the largest cell mismatch, and that mismatch."""
    from scipy.optimize import linprog

    # min eps  s.t.  |V w - b| <= eps per cell,  w >= 0,  sum w = 1
    c = np.zeros(17)
    c[16] = 1.0
    neg = -np.ones((16, 1))
    a_ub = np.block([[_VERTICES, neg], [-_VERTICES, neg]])
    b_ub = np.concatenate([b, -b])
    a_eq = np.concatenate([np.ones(16), [0.0]]).reshape(1, -1)
    fit = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * 17, method="highs", options=options)
    if not fit.success:
        raise RuntimeError(f"membership LP did not solve: {fit.message}")
    weights = np.clip(fit.x[:16], 0.0, None)
    weights /= weights.sum()
    return weights, float(np.max(np.abs(_VERTICES @ weights - b)))


def local_membership(behavior: Behavior) -> MembershipResult:
    """Decide whether a behavior mixes from deterministic strategies.

    First LP: minimize the largest cell mismatch over weight vectors on the
    16 strategies. A residual within FEAS_TOL means membership, and the
    weights are returned. Otherwise a second LP finds the maximum-margin
    separating functional with coefficients in [-1, 1]. When that misses
    the WITNESS_TOL margin, the first LP is solved again with tighter solver
    tolerances: HiGHS can stop a local behavior's fit just above FEAS_TOL.
    Raises RuntimeError when an LP fails to solve, or when the refit still
    misses FEAS_TOL.
    """
    cells = _grid_cells(behavior)
    b = np.array([p for _, _, p in cells])
    weights, residual = _fit_weights(b)
    if residual > FEAS_TOL:
        from scipy.optimize import linprog

        # max  f.b - t  s.t.  f.V_s <= t per strategy,  -1 <= f <= 1
        c2 = np.concatenate([-b, [1.0]])
        a_ub2 = np.hstack([_VERTICES.T, -np.ones((16, 1))])
        sep = linprog(c2, A_ub=a_ub2, b_ub=np.zeros(16),
                      bounds=[(-1, 1)] * 16 + [(None, None)], method="highs")
        if sep.success:
            f = sep.x[:16]
            value = float(f @ b)
            det_max = float(np.max(_VERTICES.T @ f))
            if value - det_max >= WITNESS_TOL:
                witness = WitnessCertificate(
                    {(s, c): float(coef) for (s, c, _), coef in zip(cells, f)
                     if abs(coef) > 1e-12},
                    value, det_max)
                return MembershipResult("infeasible", residual, witness=witness)
        weights, residual = _fit_weights(b, _TIGHT_FIT)
        if residual > FEAS_TOL:
            raise RuntimeError(
                f"behavior sits {residual:.3e} outside the local polytope but no "
                f"certificate reached the {WITNESS_TOL} margin")
    return MembershipResult("feasible", residual, weights=tuple(weights))


# ===========================================================================
# noncontextual mass
# ===========================================================================

def noncontextual_fraction(behavior: Behavior) -> float:
    """Probability that independent per-setting sampling lands factorizable.

    The assignments that admit per-side response functions are exactly the
    16 strategies, so this sums the product of the four cells each picks;
    it is the chance that one measurement-as-reveal run is factorizable.
    """
    # plain floats: on 16 numbers numpy's per-call cost outweighs the work
    b = [p for _, _, p in _grid_cells(behavior)]
    return sum(b[i] * b[j] * b[k] * b[m] for i, j, k, m in _STRATEGY_CELLS)
