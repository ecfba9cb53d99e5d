"""Reference computations the benchmark checks hardylab's outputs against.

Everything here is derived independently of the package, in plain Python:
the Hardy rows as exact fractions, Born-rule rows from 2x2 matrices, the 16
deterministic strategies, Fine's eight CHSH inequalities and the closed-form
noncontextual fraction. Behaviors are flat lists of 16 probabilities in the
order settings 11, 12, 21, 22 and, within a setting, cells RR, RG, GR, GG.
"""
from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist

SETTINGS = ("11", "12", "21", "22")
CELLS = ("RR", "RG", "GR", "GG")

HARDY_ROWS = {
    "11": (Fraction(0), Fraction(3, 8), Fraction(3, 8), Fraction(1, 4)),
    "12": (Fraction(3, 20), Fraction(9, 40), Fraction(5, 8), Fraction(0)),
    "21": (Fraction(3, 20), Fraction(5, 8), Fraction(9, 40), Fraction(0)),
    "22": (Fraction(16, 25), Fraction(27, 200), Fraction(27, 200), Fraction(9, 100)),
}
HARDY_VECTOR = [float(p) for s in SETTINGS for p in HARDY_ROWS[s]]
STRUCTURAL_ZEROS = (("11", "RR"), ("12", "GG"), ("21", "GG"))
HARDY_FRACTION = Fraction(6233, 51200)  # noncontextual fraction of the Hardy rows
HARDY_WITNESS = Fraction(9, 100)

# Two-sided bound on a cell's z-score such that one sampled table of 17
# cells (13 regular cells and 4 setting totals) raises a false alarm with
# probability below 1e-8.
Z_BOUND = NormalDist().inv_cdf(1.0 - 1e-8 / (2 * 17))

CHSH_BOUNDARY_SKIP = 1e-6  # Fine's verdict is not checked this close to 2


class CheckFailed(AssertionError):
    """A program output disagreed with the reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# sampled tables
# ---------------------------------------------------------------------------

def check_sampled_counts(counts: dict[str, dict[str, int]], trials: int) -> None:
    """Counts of one Hardy run: totals, structural zeros and z-bounds."""
    totals = {s: sum(counts[s][c] for c in CELLS) for s in SETTINGS}
    require(sum(totals.values()) == trials,
            f"setting totals sum to {sum(totals.values())}, expected {trials}")
    for s, c in STRUCTURAL_ZEROS:
        require(counts[s][c] == 0, f"structural zero {s}:{c} counted {counts[s][c]}")
    for s in SETTINGS:
        z = (totals[s] - trials / 4) / math.sqrt(trials * 3 / 16)
        require(abs(z) <= Z_BOUND, f"setting {s} chosen {totals[s]} of {trials} (z={z:.2f})")
        for c, p in zip(CELLS, HARDY_ROWS[s]):
            if p == 0:
                continue
            p = float(p)
            z = (counts[s][c] - totals[s] * p) / math.sqrt(totals[s] * p * (1 - p))
            require(abs(z) <= Z_BOUND, f"cell {s}:{c} z={z:.2f} beyond {Z_BOUND:.2f}")


def check_comparison_report(report: dict, counts: dict[str, dict[str, int]],
                            rel_tol: float) -> None:
    """A compare_tables report (JSON form) against statistics recomputed here."""
    chi2 = 0.0
    max_z = 0.0
    dof = 0
    for s in SETTINGS:
        total = sum(counts[s].values())
        dof += sum(1 for p in HARDY_ROWS[s] if p > 0) - 1
        for c, p in zip(CELLS, HARDY_ROWS[s]):
            if p == 0:
                continue
            p = float(p)
            n = counts[s][c]
            chi2 += (n - total * p) ** 2 / (total * p)
            max_z = max(max_z, abs(n / total - p) * math.sqrt(total) / math.sqrt(p * (1 - p)))
    require(report["dof"] == dof, f"report dof {report['dof']}, expected {dof}")
    require(math.isclose(report["chi_square"], chi2, rel_tol=rel_tol, abs_tol=1e-9),
            f"report chi-square {report['chi_square']}, recomputed {chi2}")
    require(math.isclose(report["max_abs_z"], max_z, rel_tol=rel_tol, abs_tol=1e-9),
            f"report max |z| {report['max_abs_z']}, recomputed {max_z}")
    passed = max_z <= report["z_limit"] and chi2 <= report["chi_square_limit"]
    require(report["passed"] == passed, f"report passed={report['passed']}, expected {passed}")
    for cell in report["cells"]:
        require(cell["count"] == counts[cell["setting"]][cell["outcome"]],
                f"report cell {cell['setting']}:{cell['outcome']} count {cell['count']}")


# ---------------------------------------------------------------------------
# states and Born-rule rows
# ---------------------------------------------------------------------------

def _matmul(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _transpose(a: list[list[float]]) -> list[list[float]]:
    return [[a[j][i] for j in range(2)] for i in range(2)]


def rotation(theta: float) -> list[list[float]]:
    return [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]


def born_rows(amps: list[float], change: list[list[float]]) -> list[float]:
    """Rows over settings 11, 12, 21, 22 for a state given in basis pair (1, 1).

    Setting label 2 on a side applies `change` (column k is from-basis
    vector k written in the new basis) to that side's index.
    """
    base = [[amps[0], amps[1]], [amps[2], amps[3]]]
    out = []
    for s in SETTINGS:
        a = base
        if s[0] == "2":
            a = _matmul(change, a)
        if s[1] == "2":
            a = _matmul(a, _transpose(change))
        out.extend(a[i][j] ** 2 for i in range(2) for j in range(2))
    return out


HARDY_AMPS = [0.0, math.sqrt(3 / 8), math.sqrt(3 / 8), -0.5]
HARDY_CHANGE = [[math.sqrt(0.6), -math.sqrt(0.4)], [math.sqrt(0.4), math.sqrt(0.6)]]
HALF = 1 / math.sqrt(2)
ZX_CHANGE = [[HALF, HALF], [HALF, -HALF]]
# Named states of the interpret subcommand: (from basis, to basis, amplitudes, change).
NAMED_STATES = {
    "hardy": ("1", "2", HARDY_AMPS, HARDY_CHANGE),
    "phi-plus": ("z", "x", [HALF, 0.0, 0.0, HALF], ZX_CHANGE),
    "phi-minus": ("z", "x", [HALF, 0.0, 0.0, -HALF], ZX_CHANGE),
}


def candidates(state: str, basis: str) -> dict[str, float]:
    """Cells with nonzero Born probability for a named state in a basis pair."""
    first, second, amps, change = NAMED_STATES[state]
    rows = born_rows(amps, change)
    key = "".join("1" if b == first else "2" for b in basis)
    row = rows[4 * SETTINGS.index(key): 4 * SETTINGS.index(key) + 4]
    return {c: p for c, p in zip(CELLS, row) if p >= 1e-12}


# ---------------------------------------------------------------------------
# the local polytope
# ---------------------------------------------------------------------------

def _strategy_vector(s: int) -> list[float]:
    """Behavior of strategy s = 8*a1 + 4*a2 + 2*b1 + b2, with R=0 and G=1."""
    a = ((s >> 3) & 1, (s >> 2) & 1)
    b = ((s >> 1) & 1, s & 1)
    v = []
    for x in range(2):
        for y in range(2):
            hit = 2 * a[x] + b[y]
            v.extend(1.0 if c == hit else 0.0 for c in range(4))
    return v


STRATEGIES = [_strategy_vector(s) for s in range(16)]


def mix_strategies(weights: list[float]) -> list[float]:
    return [sum(w * v[k] for w, v in zip(weights, STRATEGIES)) for k in range(16)]


def signaling_residual(b: list[float]) -> float:
    """Largest shift of a one-side marginal when the far setting changes."""
    def left(s, o):
        i = 4 * SETTINGS.index(s)
        return b[i + 2 * o] + b[i + 2 * o + 1]

    def right(s, o):
        i = 4 * SETTINGS.index(s)
        return b[i + o] + b[i + 2 + o]

    return max(
        max(abs(left(x + "1", o) - left(x + "2", o)) for x in "12" for o in (0, 1)),
        max(abs(right("1" + y, o) - right("2" + y, o)) for y in "12" for o in (0, 1)))


def chsh_values(b: list[float]) -> list[float]:
    """Fine's eight CHSH expressions; a no-signaling behavior is local iff all <= 2."""
    e = [b[i] - b[i + 1] - b[i + 2] + b[i + 3] for i in range(0, 16, 4)]
    out = []
    for neg in range(4):
        total = sum(-x if k == neg else x for k, x in enumerate(e))
        out.extend((total, -total))
    return out


def noncontextual_fraction(b: list[float]) -> float:
    """Sum over the 16 strategies of the product of the four cells each picks."""
    total = 0.0
    for v in STRATEGIES:
        p = 1.0
        for i in range(0, 16, 4):
            p *= b[i + v[i:i + 4].index(1.0)]
        total += p
    return total


def hardy_witness(b: list[float]) -> float:
    """P(GG|2,2) - P(GG|1,2) - P(GG|2,1) - P(RR|1,1)."""
    return b[15] - b[7] - b[11] - b[0]


def check_weights(weights: list[float], b: list[float], feas_tol: float) -> None:
    require(len(weights) == 16 and min(weights) >= 0.0, "weights are not 16 nonnegative numbers")
    require(abs(sum(weights) - 1.0) <= 1e-9, f"weights sum to {sum(weights)}")
    mismatch = max(abs(x - y) for x, y in zip(mix_strategies(weights), b))
    require(mismatch <= feas_tol, f"weights reconstruct the input to {mismatch:.3e}")


def check_certificate(coefficients: dict[str, float], value: float,
                      b: list[float], witness_tol: float) -> None:
    """A separating functional, keyed "11:RR", rechecked over the 16 vertices."""
    index = {f"{s}:{c}": 4 * i + j for i, s in enumerate(SETTINGS) for j, c in enumerate(CELLS)}
    f = [0.0] * 16
    for key, coef in coefficients.items():
        f[index[key]] = coef
    recomputed = sum(x * y for x, y in zip(f, b))
    require(abs(recomputed - value) <= 1e-9, f"certificate value {value}, recomputed {recomputed}")
    det_max = max(sum(x * y for x, y in zip(f, v)) for v in STRATEGIES)
    require(recomputed - det_max >= witness_tol,
            f"certificate margin {recomputed - det_max:.3e} below {witness_tol}")


def expected_local(b: list[float]) -> bool | None:
    """Locality by Fine's theorem; None when too close to a CHSH facet to call."""
    if signaling_residual(b) > 1e-9:
        return False
    top = max(chsh_values(b))
    if abs(top - 2.0) <= CHSH_BOUNDARY_SKIP:
        return None
    return top < 2.0
