"""Exact-arithmetic oracle used to freeze expected values for the test suite.

Everything here is derived with sympy radicals and rationals, independently of
the package under test: no hardylab imports, no floating point until the final
printout. The Fine's-theorem locality decision also takes float tables, for
property tests that compare it with the LP. Run as a script to regenerate the
frozen values quoted in the tests.
"""
from __future__ import annotations

from itertools import product

import sympy as sp

R, G = "R", "G"
OUTCOMES = (R, G)
JOINT = ("RR", "RG", "GR", "GG")  # canonical cell order, left letter first
SETTINGS = ("11", "12", "21", "22")  # canonical setting order
CELL_INDEX = {"RR": (0, 0), "RG": (0, 1), "GR": (1, 0), "GG": (1, 1)}


# ---------------------------------------------------------------------------
# states and basis changes
# ---------------------------------------------------------------------------

def hardy_amps() -> sp.Matrix:
    """Hardy-state amplitude matrix A[i, j] in the (1, 1) bases; row = left."""
    a = sp.sqrt(sp.Rational(3, 8))
    return sp.Matrix([[0, a], [a, -sp.Rational(1, 2)]])


def phi_plus() -> sp.Matrix:
    return sp.Matrix([[1, 0], [0, 1]]) / sp.sqrt(2)


def phi_minus() -> sp.Matrix:
    return sp.Matrix([[1, 0], [0, -1]]) / sp.sqrt(2)


def change_1_to_2() -> sp.Matrix:
    """Columns express basis-1 vectors in basis 2 (row 0 = R, row 1 = G)."""
    return sp.Matrix([
        [sp.sqrt(sp.Rational(3, 5)), -sp.sqrt(sp.Rational(2, 5))],
        [sp.sqrt(sp.Rational(2, 5)), sp.sqrt(sp.Rational(3, 5))],
    ])


def change_z_to_x() -> sp.Matrix:
    """Columns express z-basis vectors in the x basis (row 0 = +, row 1 = -)."""
    h = 1 / sp.sqrt(2)
    return sp.Matrix([[h, h], [h, -h]])


def rebase(amps: sp.Matrix, left: sp.Matrix | None = None,
           right: sp.Matrix | None = None) -> sp.Matrix:
    """Apply per-side basis changes to an amplitude matrix."""
    out = amps
    if left is not None:
        out = left * out
    if right is not None:
        out = out * right.T
    return sp.expand(out)


def born(amps: sp.Matrix) -> dict[str, sp.Expr]:
    """Exact squared-amplitude table keyed by cell name."""
    table = {}
    for cell, (i, j) in CELL_INDEX.items():
        table[cell] = sp.nsimplify(sp.expand(amps[i, j] ** 2))
    return table


def amp_vector(amps: sp.Matrix) -> tuple[sp.Expr, ...]:
    """Amplitudes in canonical cell order (RR, RG, GR, GG)."""
    return tuple(sp.radsimp(sp.expand(amps[CELL_INDEX[c]])) for c in JOINT)


def hardy_behavior() -> dict[str, dict[str, sp.Expr]]:
    """Exact joint-probability tables for all four setting pairs."""
    a = hardy_amps()
    m = change_1_to_2()
    return {
        "11": born(a),
        "12": born(rebase(a, right=m)),
        "21": born(rebase(a, left=m)),
        "22": born(rebase(a, left=m, right=m)),
    }


def product_amps(left_col: int, right_col: int) -> sp.Matrix:
    """One-hot amplitude matrix for a product state (0 = R, 1 = G)."""
    out = sp.zeros(2, 2)
    out[left_col, right_col] = 1
    return out


def zz_mixture_tables() -> dict[str, dict[str, sp.Expr]]:
    """50/50 mixture of matching z-product states, in zz and xx bases."""
    m = change_z_to_x()
    half = sp.Rational(1, 2)
    tables: dict[str, dict[str, sp.Expr]] = {}
    for key, chg in (("zz", None), ("xx", m)):
        acc = {c: sp.Integer(0) for c in JOINT}
        for idx in (0, 1):  # |RR> and |GG> components
            comp = product_amps(idx, idx)
            t = born(rebase(comp, left=chg, right=chg) if chg is not None else comp)
            for c in JOINT:
                acc[c] += half * t[c]
        tables[key] = {c: sp.nsimplify(acc[c]) for c in JOINT}
    return tables


# ---------------------------------------------------------------------------
# deterministic strategies and locality quantities
# ---------------------------------------------------------------------------

def strategies() -> list[dict[str, str]]:
    """All 16 factorizable assignments, left bits major, R before G."""
    out = []
    for l1, l2, r1, r2 in product(OUTCOMES, repeat=4):
        out.append({"11": l1 + r1, "12": l1 + r2, "21": l2 + r1, "22": l2 + r2})
    return out


def hardy_witness(behavior: dict[str, dict[str, sp.Expr]]) -> sp.Expr:
    return sp.nsimplify(behavior["22"]["GG"] - behavior["12"]["GG"]
                        - behavior["21"]["GG"] - behavior["11"]["RR"])


def strategy_behavior(assignment: dict[str, str]) -> dict[str, dict[str, sp.Expr]]:
    return {s: {c: sp.Integer(1 if c == assignment[s] else 0) for c in JOINT}
            for s in SETTINGS}


def max_deterministic_witness() -> sp.Expr:
    return max(hardy_witness(strategy_behavior(s)) for s in strategies())


def noncontextual_fraction(behavior: dict[str, dict[str, sp.Expr]]) -> sp.Expr:
    """Exact mass of the 16 factorizable assignments under row-product sampling."""
    total = sp.Integer(0)
    for s in strategies():
        term = sp.Integer(1)
        for setting in SETTINGS:
            term *= behavior[setting][s[setting]]
        total += term
    return sp.nsimplify(sp.expand(total))


def signaling_residual(behavior: dict[str, dict]) -> sp.Expr:
    """Largest shift of a one-side marginal when the far setting changes."""
    def left(s: str, o: str):
        return sum(behavior[s][o + r] for r in OUTCOMES)

    def right(s: str, o: str):
        return sum(behavior[s][l + o] for l in OUTCOMES)

    return max([abs(left(x + "1", o) - left(x + "2", o)) for x in "12" for o in OUTCOMES]
               + [abs(right("1" + y, o) - right("2" + y, o)) for y in "12" for o in OUTCOMES])


def chsh_values(behavior: dict[str, dict]) -> list:
    """The eight CHSH expressions: +-(E11 + E12 + E21 + E22 - 2 E_xy) per setting xy."""
    e = {s: behavior[s]["RR"] - behavior[s]["RG"] - behavior[s]["GR"] + behavior[s]["GG"]
         for s in SETTINGS}
    total = sum(e.values())
    return [sign * (total - 2 * e[s]) for s in SETTINGS for sign in (1, -1)]


def fine_local(behavior: dict[str, dict], margin: float) -> bool | None:
    """Locality by Fine's theorem (A. Fine, PRL 48, 291, 1982), with no LP.

    A no-signaling 2-setting, 2-outcome behavior is local exactly when all
    eight CHSH expressions are at most 2; a signaling one is never local.
    Returns None when the behavior is within margin of a CHSH facet, or
    signals by less than margin but more than float rounding, where a
    tolerance-based decision may go either way.
    """
    signaling = signaling_residual(behavior)
    if signaling > margin:
        return False
    top = max(chsh_values(behavior))
    if signaling > 1e-12 or abs(top - 2) <= margin:
        return None
    return bool(top < 2)


def uniform_behavior() -> dict[str, dict[str, sp.Expr]]:
    q = sp.Rational(1, 4)
    return {s: {c: q for c in JOINT} for s in SETTINGS}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _fmt_table(tab: dict[str, sp.Expr]) -> str:
    return "  ".join(f"{c}={sp.nsimplify(v)}={float(v):.6f}" for c, v in tab.items())


def main() -> None:
    a = hardy_amps()
    m = change_1_to_2()
    beh = hardy_behavior()

    print("== Hardy amplitude vectors (RR, RG, GR, GG) ==")
    print("  (1,1):", amp_vector(a))
    print("  (1,2):", amp_vector(rebase(a, right=m)))
    print("  (2,1):", amp_vector(rebase(a, left=m)))
    print("  (2,2):", amp_vector(rebase(a, left=m, right=m)))

    print("== Hardy joint-probability tables ==")
    for s in SETTINGS:
        print(f"  ({s[0]},{s[1]}): {_fmt_table(beh[s])}")

    print("== named coefficient squares ==")
    print("  (1,2) RG,GR,RR:", [sp.nsimplify(beh['12'][c]) for c in ('RG', 'GR', 'RR')])
    print("  (2,1) RG,GR,RR:", [sp.nsimplify(beh['21'][c]) for c in ('RG', 'GR', 'RR')])
    print("  (2,2) RG,GR,RR,GG:", [sp.nsimplify(beh['22'][c]) for c in JOINT[1:3] + ('RR', 'GG')])

    print("== spin states ==")
    zx = change_z_to_x()
    print("  phi+ in (x,x):", amp_vector(rebase(phi_plus(), left=zx, right=zx)))
    print("  phi- in (x,x):", amp_vector(rebase(phi_minus(), left=zx, right=zx)))
    print("  phi+ born (x,x):", _fmt_table(born(rebase(phi_plus(), left=zx, right=zx))))
    print("  phi- born (x,x):", _fmt_table(born(rebase(phi_minus(), left=zx, right=zx))))

    print("== 50/50 z-product mixture ==")
    for key, tab in zz_mixture_tables().items():
        print(f"  ({key[0]},{key[1]}): {_fmt_table(tab)}")

    print("== locality ==")
    print("  strategies:", len(strategies()), "distinct:",
          len({tuple(sorted(s.items())) for s in strategies()}))
    print("  max deterministic Hardy witness:", max_deterministic_witness())
    print("  quantum Hardy witness:", hardy_witness(beh), "=", float(hardy_witness(beh)))
    ncf = noncontextual_fraction(beh)
    print("  Hardy noncontextual fraction:", ncf, "=", float(ncf))
    print("  uniform noncontextual fraction:", noncontextual_fraction(uniform_behavior()))
    print("  Hardy max CHSH:", sp.nsimplify(max(chsh_values(beh))),
          "Fine local:", fine_local(beh, 0))


if __name__ == "__main__":
    main()
