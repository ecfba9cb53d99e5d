"""Brute-force locality checks for 2-setting, 2-outcome joint behaviors.

A behavior is Bell-local when it is a convex mixture of the 16 deterministic
per-side strategies. Membership is decided by linear programming; a negative
verdict always comes with a separating witness certificate whose value on
the input exceeds its maximum over all deterministic strategies.

The two LPs call the HiGHS bindings that scipy ships
(`scipy.optimize._highspy._core`, where `linprog(method="highs")` ends up),
with the options `linprog` passes. Each LP's model (constraint matrix and
bounds) and one HiGHS solver for it are built once; every solve passes that
solver the options and the whole model again, so no basis or solution
carries over from one behavior to the next. The bindings are loaded on the
first solve, not here, so that the tables, the sampler and the closed-form
checks never load scipy. They are loaded from their file inside the scipy
package and registered under their real module name, without running the
`scipy.optimize` package (or importing `scipy.sparse`), which would cost most
of `check-local`'s start-up time and memory.
"""
from __future__ import annotations

import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from functools import cache
from importlib.machinery import PathFinder
from typing import Any

import numpy as np

from .qstate import (
    EQ_TOL,
    HARDY_SETTINGS,
    Behavior,
    JointOutcome,
    SettingPair,
)

FEAS_TOL = 1e-9     # max reconstruction mismatch still counted as membership
WITNESS_TOL = 1e-9  # minimum violation margin for an infeasibility certificate


# ===========================================================================
# deterministic strategies
# ===========================================================================

# The 16 strategies exist only as these two tables. Strategy s = 8 l1 + 4 l2
# + 2 r1 + r2 (outcome indices: left bits major, R before G) picks, in setting
# (i, j), the flat cell 4 (2 i + j) + 2 l_i + r_j; row s lists its four cells,
# one per setting in canonical order.
_STRATEGY_CELLS = [[4 * (2 * i + j) + 2 * (s >> (3 - i) & 1) + (s >> (1 - j) & 1)
                    for i in (0, 1) for j in (0, 1)] for s in range(16)]
# Column s holds strategy s's behavior in the canonical flat cell order.
_VERTICES = np.zeros((16, 16))
_VERTICES[_STRATEGY_CELLS, np.arange(16)[:, None]] = 1.0


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


class _Program:
    """One LP of fixed shape for HiGHS: min c.x s.t. row_lower <= A x <= row_upper
    and col_lower <= x <= col_upper, held as a HighsLp with the vectors that
    are the same for every behavior, and the one solver that solves it."""

    def __init__(self, core, a: np.ndarray, **fixed: np.ndarray) -> None:
        self.core = core  # scipy.optimize._highspy._core
        lp = core.HighsLp()
        lp.num_row_, lp.num_col_ = a.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = a.shape
        # A column-wise, as scipy.sparse.csc_array(a) holds it
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        cols, rows = np.nonzero(a.T)
        lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(a.shape[1] + 1)).astype(np.int32)
        lp.a_matrix_.index_ = rows.astype(np.int32)
        lp.a_matrix_.value_ = a.T[cols, rows]
        for name, value in fixed.items():
            setattr(lp, name, value)
        self.lp = lp
        self.solver = core._Highs()
        self.lock = threading.Lock()  # HiGHS holds the GIL, so threads lose nothing

    def solve(self, options, **vectors: np.ndarray) -> tuple[np.ndarray | None, str]:
        """x if optimal, and the model status. The solver is given the options
        and the whole model on every solve: passModel drops the last basis and
        solution, so each result is the one a fresh solver gives."""
        core, lp, solver = self.core, self.lp, self.solver
        with self.lock:
            for name, value in vectors.items():
                setattr(lp, name, value)
            solver.passOptions(options)
            solver.passModel(lp)
            solver.run()
            status = solver.getModelStatus()
            optimal = status == core.HighsModelStatus.kOptimal
            x = np.array(solver.getSolution().col_value) if optimal else None
            return x, solver.modelStatusToString(status)


@dataclass(frozen=True)
class _HighsLPs:
    fit: _Program       # min eps  s.t.  |V w - b| <= eps per cell,  w >= 0,  sum w = 1
    separate: _Program  # max f.b - t  s.t.  f.V_s <= t per strategy,  -1 <= f <= 1
    options: Any        # HighsOptions as linprog(method="highs") sets them
    tight: Any          # the same with 1e-10 primal and dual feasibility tolerances


_CORE = "scipy.optimize._highspy._core"


@cache
def _highs() -> _HighsLPs:
    """scipy's HiGHS bindings and both LPs' fixed parts, built on the first solve."""
    core = sys.modules.get(_CORE)
    if core is None:
        import scipy  # the top-level package only; its subpackages load lazily
        spec = PathFinder.find_spec(
            _CORE, [os.path.join(scipy.__path__[0], "optimize", "_highspy")])
        if spec is None:
            raise ModuleNotFoundError(f"No module named {_CORE!r}", name=_CORE)
        # registered before it runs and dropped if it fails to load, as the
        # import system does: a later `import scipy.optimize` finds it here and
        # does not load it again, and a later solve does not read half a module
        try:
            core = sys.modules[_CORE] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(core)
        except ImportError as exc:
            sys.modules.pop(_CORE, None)
            raise ImportError(str(exc), name=_CORE) from exc

    def options(**extra: float):
        # linprog(method="highs")'s settings; simplex strategy 1 is the dual simplex
        opts = core.HighsOptions()
        for name, value in {"presolve": "on", "highs_debug_level": 0,
                            "log_to_console": False, "output_flag": False,
                            "simplex_strategy": 1, **extra}.items():
            setattr(opts, name, value)
        return opts

    inf = core.kHighsInf
    neg = -np.ones((16, 1))
    fit = _Program(core, np.block([[_VERTICES, neg], [-_VERTICES, neg],
                                   [np.ones((1, 16)), np.zeros((1, 1))]]),
                   col_cost_=np.concatenate([np.zeros(16), [1.0]]),
                   col_lower_=np.zeros(17), col_upper_=np.full(17, inf),
                   row_lower_=np.concatenate([np.full(32, -inf), [1.0]]))
    separate = _Program(core, np.hstack([_VERTICES.T, neg]),
                        col_lower_=np.concatenate([-np.ones(16), [-inf]]),
                        col_upper_=np.concatenate([np.ones(16), [inf]]),
                        row_lower_=np.full(16, -inf), row_upper_=np.zeros(16))
    return _HighsLPs(fit, separate, options(),
                     options(primal_feasibility_tolerance=1e-10,
                             dual_feasibility_tolerance=1e-10))


def local_membership(behavior: Behavior) -> MembershipResult:
    """Decide whether a behavior mixes from deterministic strategies.

    Two LPs, solved first under linprog's options and then, if neither
    decides, both again with 1e-10 feasibility tolerances: HiGHS can stop a
    local behavior's fit just above FEAS_TOL, or a nonlocal behavior's
    separating LP at margin 0. The fit minimizes the largest cell mismatch
    over weight vectors on the 16 strategies; a residual within FEAS_TOL
    means membership, and the weights are returned. The separating LP finds
    the maximum-margin functional with coefficients in [-1, 1]; a margin of
    at least WITNESS_TOL means nonmembership, with that certificate.
    Raises RuntimeError when a fit fails to solve, or when the tight pass
    still decides nothing.
    """
    cells = behavior.grid_cells()
    b = np.array([p for _, _, p in cells])
    lps = _highs()
    for options in (lps.options, lps.tight):
        x, status = lps.fit.solve(options, row_upper_=np.concatenate([b, -b, [1.0]]))
        if x is None:
            raise RuntimeError(f"membership LP did not solve: {status}")
        weights = np.clip(x[:16], 0.0, None)
        weights /= weights.sum()
        residual = float(np.max(np.abs(_VERTICES @ weights - b)))
        if residual <= FEAS_TOL:
            return MembershipResult("feasible", residual, weights=tuple(weights))
        x, _ = lps.separate.solve(options, col_cost_=np.concatenate([-b, [1.0]]))
        if x is not None:
            f = x[:16]
            value = float(f @ b)
            det_max = float(np.max(_VERTICES.T @ f))
            if value - det_max >= WITNESS_TOL:
                witness = WitnessCertificate(
                    {(s, c): float(coef) for (s, c, _), coef in zip(cells, f)
                     if abs(coef) > EQ_TOL},
                    value, det_max)
                return MembershipResult("infeasible", residual, witness=witness)
    raise RuntimeError(
        f"behavior sits {residual:.3e} outside the local polytope but no "
        f"certificate reached the {WITNESS_TOL} margin")


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
    b = [p for _, _, p in behavior.grid_cells()]
    return sum(b[i] * b[j] * b[k] * b[m] for i, j, k, m in _STRATEGY_CELLS)
