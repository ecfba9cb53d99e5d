"""Local-polytope membership, witness values, and noncontextual mass."""
from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

import oracles
from hardylab import locality
from hardylab.cli import main
from hardylab.locality import (
    FEAS_TOL,
    HARDY_SETTINGS,
    WITNESS_TOL,
    hardy_witness,
    local_membership,
    noncontextual_fraction,
)
from hardylab.experiment import ExperimentConfig, run_experiment, sample_assignments
from hardylab.qstate import (
    JOINT_OUTCOMES,
    BasisChange,
    Behavior,
    JointOutcome,
    Outcome,
    SettingPair,
    hardy_behavior,
    make_state,
    quantum_behavior,
)
from hardylab.realist import ContextAssignment, is_noncontextual

EXACT_FRACTION = 6233 / 51200  # closed form of the Hardy noncontextual mass

# The second Dirichlet(0.05) draw of random.Random(1), mixed over the 16
# strategies in canonical cell order: a local behavior whose first fit HiGHS
# stops about 7e-9 outside FEAS_TOL, where no certificate can exist.
NEAR_VERTEX_ROWS = [
    0.0035009537794949853, 0.7718467741873203, 0.2225637170465029, 0.002088554986681953,
    0.7137504452768577, 0.06159728268995752, 0.027983688419287524, 0.1966685836138973,
    0.19666857662536694, 0.06955243136909005, 0.02939609420063093, 0.7043828978049121,
    0.06921019240426657, 0.1970108155901904, 0.6725239412918786, 0.06125505071366442,
]

# The PR box whose (2,2) row is anti-correlated, mixed with white noise at
# weight 1/2 + 2.5e-8: valid, no-signaling, CHSH value 2 + 1e-7. Its fit
# residual is 1e-7 / 16 = 6.25e-9, above FEAS_TOL, and only the separating
# LP under the tight options reaches the WITNESS_TOL margin.
NEAR_FACET_ROWS = [0.37500000625, 0.12499999375, 0.12499999375, 0.37500000625] * 3 + [
    0.12499999375, 0.37500000625, 0.37500000625, 0.12499999375]


def uniform_behavior() -> Behavior:
    return Behavior({s: {c: 0.25 for c in JOINT_OUTCOMES} for s in HARDY_SETTINGS})


def mix_behaviors(pairs: list[tuple[float, Behavior]]) -> Behavior:
    settings = pairs[0][1].settings
    table = {
        s: {c: sum(w * b.table[s][c] for w, b in pairs) for c in JOINT_OUTCOMES}
        for s in settings
    }
    return Behavior(table)


def behavior_from_rows(rows: list[float],
                       left_labels: tuple[str, str] = ("1", "2"),
                       right_labels: tuple[str, str] = ("1", "2")) -> Behavior:
    grid = product(left_labels, right_labels)
    return Behavior({SettingPair(l, r): dict(zip(JOINT_OUTCOMES, rows[4 * k:4 * k + 4]))
                     for k, (l, r) in enumerate(grid)})


def mixture_of_strategies(weights: np.ndarray) -> Behavior:
    return mix_behaviors([(float(w), b) for w, b in zip(weights, strategy_behaviors())])


# ===========================================================================
# deterministic strategies
# ===========================================================================

class TestDeterministicStrategies:
    def test_behavior_rows_are_indicator_rows(self):
        for behavior in strategy_behaviors():
            for s in behavior.settings:
                row = behavior.table[s]
                assert sorted(row.values()) == [0.0, 0.0, 0.0, 1.0]

    def test_strategy_behaviors_never_signal(self):
        for behavior in strategy_behaviors():
            assert behavior.no_signaling_residual() == 0.0

    def test_strategy_tables_match_strategy_behaviors(self):
        """The LP's vertex matrix and each strategy's picked cells, built by
        index arithmetic, equal the oracle's 16 assignments in its order."""
        vertices = np.array([[float(c == a[s]) for s in oracles.SETTINGS for c in oracles.JOINT]
                             for a in oracles.strategies()]).T
        assert np.unique(vertices, axis=1).shape == (16, 16)
        np.testing.assert_array_equal(locality._VERTICES, vertices)
        assert locality._STRATEGY_CELLS == np.nonzero(vertices.T)[1].reshape(16, 4).tolist()


# ===========================================================================
# witness functional
# ===========================================================================

class TestHardyWitness:
    def test_quantum_value(self):
        assert hardy_witness(hardy_behavior()) == pytest.approx(0.09, abs=1e-12)

    def test_deterministic_maximum_is_zero(self):
        """Independent sweep: score each response quadruple from scratch."""
        best = -np.inf
        for l1, l2, r1, r2 in product((Outcome.R, Outcome.G), repeat=4):
            score = ((1.0 if (l2, r2) == (Outcome.G, Outcome.G) else 0.0)
                     - (1.0 if (l1, r2) == (Outcome.G, Outcome.G) else 0.0)
                     - (1.0 if (l2, r1) == (Outcome.G, Outcome.G) else 0.0)
                     - (1.0 if (l1, r1) == (Outcome.R, Outcome.R) else 0.0))
            best = max(best, score)
        assert best == 0.0
        assert max(hardy_witness(b) for b in strategy_behaviors()) == 0.0

    def test_linear_under_mixing(self):
        rng = np.random.default_rng(7)
        strategies = strategy_behaviors()
        for _ in range(25):
            w = rng.dirichlet(np.ones(3))
            picks = rng.choice(16, size=3, replace=False)
            parts = [(float(w[k]), strategies[picks[k]]) for k in range(3)]
            mixed = hardy_witness(mix_behaviors(parts))
            expected = sum(wk * hardy_witness(bk) for wk, bk in parts)
            assert mixed == pytest.approx(expected, abs=1e-12)

    def test_requires_detector_settings(self):
        partial = Behavior({SettingPair("1", "1"): {c: 0.25 for c in JOINT_OUTCOMES}})
        with pytest.raises(ValueError, match="no setting"):
            hardy_witness(partial)


# ===========================================================================
# polytope membership
# ===========================================================================

class TestLocalMembership:
    def test_every_vertex_is_feasible_with_unit_weight(self):
        for k, behavior in enumerate(strategy_behaviors()):
            result = local_membership(behavior)
            assert result.verdict == "feasible"
            assert result.residual <= 1e-12
            assert result.weights[k] == pytest.approx(1.0, abs=1e-9)
            assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)

    def test_random_mixtures_are_feasible(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            result = local_membership(mixture_of_strategies(rng.dirichlet(np.ones(16))))
            assert result.verdict == "feasible"
            assert result.residual <= FEAS_TOL

    def test_uniform_behavior_is_feasible(self):
        result = local_membership(uniform_behavior())
        assert result.verdict == "feasible"
        assert result.residual <= FEAS_TOL

    def test_hardy_rows_are_infeasible_with_certificate(self):
        result = local_membership(hardy_behavior())
        assert result.verdict == "infeasible"
        assert result.weights is None
        assert result.residual > FEAS_TOL
        witness = result.witness
        assert witness is not None
        assert witness.margin >= 0.09 - 1e-6

    def test_certificate_is_self_checking(self):
        """Recompute the witness value and the strategy bound from scratch."""
        result = local_membership(hardy_behavior())
        witness = result.witness
        value = sum(coef * hardy_behavior().prob(s, c)
                    for (s, c), coef in witness.coefficients.items())
        assert value == pytest.approx(witness.value, abs=1e-9)
        det_max = max(
            sum(coef * strat.prob(s, c) for (s, c), coef in witness.coefficients.items())
            for strat in strategy_behaviors())
        assert det_max == pytest.approx(witness.deterministic_max, abs=1e-9)
        assert value - det_max >= 0.09 - 1e-6

    def test_near_boundary_point_stays_feasible(self):
        """A mix sitting on the polytope surface should not be rejected."""
        strategies = strategy_behaviors()
        half = mix_behaviors([(0.5, strategies[0]), (0.5, strategies[15])])
        result = local_membership(half)
        assert result.verdict == "feasible"
        assert result.residual <= FEAS_TOL

    def test_requires_full_grid(self):
        partial = Behavior({SettingPair("1", "1"): {c: 0.25 for c in JOINT_OUTCOMES},
                            SettingPair("1", "2"): {c: 0.25 for c in JOINT_OUTCOMES}})
        with pytest.raises(ValueError, match="2x2"):
            local_membership(partial)
        with pytest.raises(ValueError, match="2x2"):
            noncontextual_fraction(partial)

    def test_near_vertex_mixture_refits_to_feasible(self):
        behavior = behavior_from_rows(NEAR_VERTEX_ROWS)
        result = local_membership(behavior)
        assert result.verdict == "feasible"
        assert result.residual <= FEAS_TOL
        assert_weights_rebuild(result.weights, oracle_table(behavior))

    def test_near_vertex_mixture_check_local_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "near_vertex.json"
        path.write_text(json.dumps(oracle_table(behavior_from_rows(NEAR_VERTEX_ROWS))))
        code = main(["check-local", "--behavior", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("verdict: feasible\n")
        assert captured.err == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_near_facet_box_check_local_exits_two(self, fmt, capsys, tmp_path):
        path = tmp_path / "near_facet.json"
        path.write_text(json.dumps(oracle_table(behavior_from_rows(NEAR_FACET_ROWS))))
        code = main(["check-local", "--behavior", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        if fmt == "json":
            data = json.loads(captured.out)
            assert data["verdict"] == "infeasible"
            margin = data["witness"]["margin"]
        else:
            assert captured.out.startswith("verdict: infeasible\n")
            margin = float(captured.out.split("witness margin: ")[1].split()[0])
        assert margin >= WITNESS_TOL

    def test_result_serializes(self):
        feasible = local_membership(uniform_behavior()).to_jsonable()
        assert feasible["verdict"] == "feasible"
        assert len(feasible["weights"]) == 16
        assert feasible["witness"] is None

        infeasible = local_membership(hardy_behavior()).to_jsonable()
        assert infeasible["verdict"] == "infeasible"
        assert infeasible["weights"] is None
        cert = infeasible["witness"]
        assert set(cert) == {"coefficients", "value", "deterministic_max", "margin"}
        for key in cert["coefficients"]:
            setting, _, cell = key.partition(":")
            assert setting in {"11", "12", "21", "22"}
            assert cell in {"RR", "RG", "GR", "GG"}

    def test_solves_are_independent(self):
        """Each solve passes its LP's one solver the whole model again: no basis
        carries over between calls."""
        a = mixture_of_strategies(np.random.default_rng(8).dirichlet(np.ones(16)))
        first = local_membership(a).to_jsonable()
        assert local_membership(hardy_behavior()).verdict == "infeasible"
        assert local_membership(behavior_from_rows(NEAR_VERTEX_ROWS)).verdict == "feasible"
        assert local_membership(a).to_jsonable() == first


class TestSolverFailure:
    """An LP that HiGHS stops before optimality: a time limit of zero."""

    @pytest.fixture
    def status(self, monkeypatch) -> str:
        monkeypatch.setattr(locality._highs().options, "time_limit", 0.0)
        return highs._Highs().modelStatusToString(highs.HighsModelStatus.kTimeLimit)

    def test_raises_with_the_model_status(self, status):
        with pytest.raises(RuntimeError) as excinfo:
            local_membership(hardy_behavior())
        assert str(excinfo.value) == f"membership LP did not solve: {status}"

    def test_check_local_exits_one(self, status, capsys, tmp_path):
        path = tmp_path / "hardy.json"
        path.write_text(json.dumps(oracle_table(hardy_behavior())))
        code = main(["check-local", "--behavior", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: membership LP did not solve: {status}\n"


class TestTightPassFailure:
    """The tight options are used only when the first pass decides nothing."""

    @pytest.fixture
    def status(self, monkeypatch) -> str:
        monkeypatch.setattr(locality._highs().tight, "time_limit", 0.0)
        return highs._Highs().modelStatusToString(highs.HighsModelStatus.kTimeLimit)

    def check_local(self, capsys, tmp_path, behavior: Behavior) -> tuple[int, str, str]:
        path = tmp_path / "behavior.json"
        path.write_text(json.dumps(oracle_table(behavior)))
        code = main(["check-local", "--behavior", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_undecided_first_pass_exits_one(self, status, capsys, tmp_path):
        code, out, err = self.check_local(capsys, tmp_path,
                                          behavior_from_rows(NEAR_FACET_ROWS))
        assert code == 1
        assert out == ""
        assert err == f"error: membership LP did not solve: {status}\n"

    def test_decided_first_pass_never_reaches_it(self, status, capsys, tmp_path):
        code, out, err = self.check_local(capsys, tmp_path, hardy_behavior())
        assert code == 2
        assert out.startswith("verdict: infeasible\n")
        assert err == ""


# ===========================================================================
# the direct HiGHS calls against scipy's linprog
# ===========================================================================

TIGHT_FIT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def linprog_fit(b: np.ndarray, options: dict | None = None) -> np.ndarray:
    """min eps  s.t.  |V w - b| <= eps per cell,  w >= 0,  sum w = 1."""
    vertices, neg = locality._VERTICES, -np.ones((16, 1))
    fit = linprog(np.concatenate([np.zeros(16), [1.0]]),
                  A_ub=np.block([[vertices, neg], [-vertices, neg]]),
                  b_ub=np.concatenate([b, -b]),
                  A_eq=np.concatenate([np.ones(16), [0.0]]).reshape(1, -1), b_eq=[1.0],
                  bounds=[(0, None)] * 17, method="highs", options=options)
    assert fit.success
    return fit.x


def linprog_separation(b: np.ndarray, options: dict | None = None) -> np.ndarray:
    """max f.b - t  s.t.  f.V_s <= t per strategy,  -1 <= f <= 1."""
    sep = linprog(np.concatenate([-b, [1.0]]),
                  A_ub=np.hstack([locality._VERTICES.T, -np.ones((16, 1))]),
                  b_ub=np.zeros(16), bounds=[(-1, 1)] * 16 + [(None, None)], method="highs",
                  options=options)
    assert sep.success
    return sep.x


def seeded_rows(kind: str, rng: np.random.Generator) -> np.ndarray:
    """One behavior's 16 cells in canonical order."""
    if kind == "dirichlet":
        return locality._VERTICES @ rng.dirichlet(np.ones(16))
    if kind == "near-vertex":
        return locality._VERTICES @ rng.dirichlet(0.05 * np.ones(16))
    if kind == "signaling":
        return np.concatenate([rng.dirichlet(np.ones(4)) for _ in range(4)])
    if kind == "quantum":
        t = rng.uniform(0.0, 2.0 * math.pi)
        change = BasisChange("1", "2", np.array([[math.cos(t), -math.sin(t)],
                                                 [math.sin(t), math.cos(t)]]))
        amps = rng.normal(size=4)
        behavior = quantum_behavior(make_state("1", "1", amps / np.linalg.norm(amps)), change)
        return np.array([p for _, _, p in behavior.cells()])
    noise = rng.uniform(0.0, 0.3)
    hardy = np.array([p for _, _, p in hardy_behavior().cells()])
    return (1.0 - noise) * hardy + noise * (locality._VERTICES @ rng.dirichlet(np.ones(16)))


def assert_solves_match_linprog(b: np.ndarray) -> None:
    lps = locality._highs()
    row_upper = np.concatenate([b, -b, [1.0]])
    col_cost = np.concatenate([-b, [1.0]])
    for options, reference in ((lps.options, None), (lps.tight, TIGHT_FIT)):
        x, _ = lps.fit.solve(options, row_upper_=row_upper)
        assert np.array_equal(x, linprog_fit(b, reference))
        x, _ = lps.separate.solve(options, col_cost_=col_cost)
        assert np.array_equal(x, linprog_separation(b, reference))


class TestAgreesWithLinprog:
    """Both LPs, solved with the options linprog(method="highs") passes, give
    linprog's solution vectors bit for bit."""

    @pytest.mark.parametrize("kind", ["dirichlet", "near-vertex", "signaling",
                                      "quantum", "hardy-noise"])
    def test_seeded_behaviors(self, kind):
        rng = np.random.default_rng(2026)
        for _ in range(20):
            assert_solves_match_linprog(seeded_rows(kind, rng))

    def test_near_vertex_rows(self):
        assert_solves_match_linprog(np.array(NEAR_VERTEX_ROWS))


def mixed_behaviors(n: int, seed: int) -> list[Behavior]:
    """n seeded behaviors, cycling through the five classes of seeded_rows."""
    rng = np.random.default_rng(seed)
    kinds = ["dirichlet", "near-vertex", "signaling", "quantum", "hardy-noise"]
    return [behavior_from_rows(list(seeded_rows(kinds[i % 5], rng))) for i in range(n)]


class TestSharedSolver:
    """Each LP keeps one model and one solver; no order, options or failure
    from an earlier solve reaches a later one."""

    def test_order_does_not_matter(self):
        behaviors = mixed_behaviors(200, 31)
        results = {}
        for seed in (1, 2):
            order = np.random.default_rng(seed).permutation(len(behaviors))
            results[seed] = {int(i): local_membership(behaviors[i]).to_jsonable()
                             for i in order}
        assert results[1] == results[2]

    def test_options_are_passed_on_every_solve(self):
        lps = locality._highs()
        b = np.array(NEAR_VERTEX_ROWS)
        row_upper = np.concatenate([b, -b, [1.0]])
        col_cost = np.concatenate([-b, [1.0]])
        for options, reference in ((lps.options, None), (lps.tight, TIGHT_FIT),
                                   (lps.options, None)):
            x, _ = lps.fit.solve(options, row_upper_=row_upper)
            assert np.array_equal(x, linprog_fit(b, reference))
            x, _ = lps.separate.solve(options, col_cost_=col_cost)
            assert np.array_equal(x, linprog_separation(b, reference))

    def test_solve_after_a_failure(self, monkeypatch):
        lps = locality._highs()
        b = np.array([p for _, _, p in hardy_behavior().cells()])
        row_upper = np.concatenate([b, -b, [1.0]])
        monkeypatch.setattr(lps.options, "time_limit", 0.0)
        x, status = lps.fit.solve(lps.options, row_upper_=row_upper)
        assert x is None
        assert status == highs._Highs().modelStatusToString(highs.HighsModelStatus.kTimeLimit)
        monkeypatch.undo()
        x, _ = lps.fit.solve(lps.options, row_upper_=row_upper)
        assert np.array_equal(x, linprog_fit(b))

    def test_threads_get_the_sequential_results(self):
        behaviors = mixed_behaviors(60, 47)
        expected = [local_membership(b).to_jsonable() for b in behaviors]

        def solve_all() -> list[dict]:
            return [local_membership(b).to_jsonable() for b in behaviors]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, between any two HiGHS calls
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(solve_all) for _ in range(4)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4


# ===========================================================================
# noncontextual mass
# ===========================================================================

class TestNoncontextualFraction:
    def test_hardy_value_matches_closed_form(self):
        assert noncontextual_fraction(hardy_behavior()) == pytest.approx(
            EXACT_FRACTION, abs=1e-12)

    def test_matches_independent_strategy_sum(self):
        ours = noncontextual_fraction(hardy_behavior())
        reference = oracles.noncontextual_fraction(oracles.hardy_behavior())
        assert ours == pytest.approx(float(reference), abs=1e-12)

    def test_uniform_rows_give_one_sixteenth(self):
        assert noncontextual_fraction(uniform_behavior()) == pytest.approx(
            1 / 16, abs=1e-12)

    def test_deterministic_strategy_rows_give_one(self):
        assert noncontextual_fraction(strategy_behaviors()[6]) == pytest.approx(
            1.0, abs=1e-12)

    def test_monte_carlo_agrees(self):
        """Sampled per-setting assignments land factorizable at the stated rate."""
        n = 200000
        rng = np.random.default_rng(99)
        behavior = hardy_behavior()
        codes = sample_assignments(behavior, rng, n).astype(np.intp) @ [64, 16, 4, 1]
        counts = np.bincount(codes, minlength=256)  # base-4 codes, in product() order
        hits = 0
        for code, quad in enumerate(product(JOINT_OUTCOMES, repeat=4)):
            if counts[code]:
                assignment = ContextAssignment(dict(zip(behavior.settings, quad)))
                hits += int(counts[code]) * is_noncontextual(assignment)
        se = np.sqrt(EXACT_FRACTION * (1 - EXACT_FRACTION) / n)
        assert abs(hits / n - EXACT_FRACTION) < 5 * se

    def test_sampled_trials_respect_the_fraction(self):
        """End to end: the trial engine's reveal step is per-setting independent."""
        config = ExperimentConfig(trials=100000, seed=5, model="realist")
        freq, _ = run_experiment(config, hardy_behavior())
        # spot check one forbidden cell stayed empty under the reveal model
        assert freq.count(SettingPair("1", "1"), JointOutcome.RR) == 0

    def test_matches_assignment_enumeration(self):
        """All 256 assignments, kept where realist.is_noncontextual holds."""
        rng = np.random.default_rng(31)
        label_pairs = [("1", "2"), ("x", "z"), ("a", "b")]
        for k in range(50):
            left = label_pairs[k % 3]
            right = label_pairs[(k // 3) % 3]
            alpha = 0.2 if k % 2 else 1.0
            rows = [p for _ in range(4) for p in rng.dirichlet(alpha * np.ones(4))]
            behavior = behavior_from_rows(rows, left, right)
            reference = 0.0
            for combo in product(JOINT_OUTCOMES, repeat=4):
                assignment = ContextAssignment(dict(zip(behavior.settings, combo)))
                if is_noncontextual(assignment):
                    reference += np.prod([behavior.table[s][c]
                                          for s, c in zip(behavior.settings, combo)])
            assert noncontextual_fraction(behavior) == pytest.approx(reference, abs=1e-12)


class TestAssignmentClassification:
    def test_revealed_quadruple_without_per_side_functions(self):
        assignment = ContextAssignment({
            SettingPair("1", "1"): JointOutcome.RG,
            SettingPair("1", "2"): JointOutcome.GR,
            SettingPair("2", "1"): JointOutcome.RR,
            SettingPair("2", "2"): JointOutcome.RR,
        })
        assert not is_noncontextual(assignment)


# ===========================================================================
# agreement with Fine's theorem, checked without the LP
# ===========================================================================

CHSH_MARGIN = 1e-6  # verdicts this close to a Fine facet are not compared
CELL_NAMES = [c.value for c in JOINT_OUTCOMES]
PR_BOXES = [  # the eight no-signaling extremes that reach 4 on one CHSH expression
    {s: ({"RR": 0.5, "RG": 0.0, "GR": 0.0, "GG": 0.5} if (s != odd) == (sign > 0)
         else {"RR": 0.0, "RG": 0.5, "GR": 0.5, "GG": 0.0})
     for s in oracles.SETTINGS}
    for odd in oracles.SETTINGS for sign in (1, -1)]
HARDY_TABLE = {s: {c: float(p) for c, p in row.items()}
               for s, row in oracles.hardy_behavior().items()}


def oracle_table(behavior: Behavior) -> dict[str, dict[str, float]]:
    return {s.key: {c.value: p for c, p in row.items()} for s, row in behavior.table.items()}


def table_behavior(table: dict[str, dict[str, float]]) -> Behavior:
    return Behavior({SettingPair(s[0], s[1]): {JointOutcome(c): p for c, p in row.items()}
                     for s, row in table.items()})


def vertex_table(assignment: dict[str, str]) -> dict[str, dict[str, float]]:
    return {s: {c: float(c == assignment[s]) for c in CELL_NAMES} for s in oracles.SETTINGS}


def strategy_behaviors() -> list[Behavior]:
    """The 16 strategy behaviors in canonical order, built from the oracle's
    assignments, not from locality's tables."""
    return [table_behavior(vertex_table(a)) for a in oracles.strategies()]


def mix_tables(pairs: list[tuple[float, dict]]) -> dict[str, dict[str, float]]:
    return {s: {c: sum(w * t[s][c] for w, t in pairs) for c in CELL_NAMES}
            for s in oracles.SETTINGS}


def assert_weights_rebuild(weights, table: dict[str, dict[str, float]]) -> None:
    assert len(weights) == 16 and min(weights) >= 0.0
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    rebuilt = mix_tables([(w, vertex_table(a)) for w, a in zip(weights, oracles.strategies())])
    mismatch = max(abs(rebuilt[s][c] - table[s][c]) for s in table for c in CELL_NAMES)
    assert mismatch <= FEAS_TOL


def check_against_fine(table: dict[str, dict[str, float]]) -> None:
    """Decide by LP, then recheck the verdict and its evidence without it."""
    result = local_membership(table_behavior(table))
    expected = oracles.fine_local(table, CHSH_MARGIN)
    if expected is not None:
        assert (result.verdict == "feasible") == expected
    if result.verdict == "feasible":
        assert_weights_rebuild(result.weights, table)
        return
    coefficients = {(s.key, c.value): coef
                    for (s, c), coef in result.witness.coefficients.items()}

    def score(t: dict[str, dict[str, float]]) -> float:
        return sum(coef * t[s][c] for (s, c), coef in coefficients.items())

    value = score(table)
    assert value == pytest.approx(result.witness.value, abs=1e-9)
    assert value - max(score(vertex_table(a)) for a in oracles.strategies()) >= WITNESS_TOL


def normalized(counts: list[int]) -> list[float]:
    total = sum(counts)
    return [k / total for k in counts]


def weights(n: int):
    return st.lists(st.integers(0, 1000), min_size=n, max_size=n).filter(any).map(normalized)


def local_tables():
    return weights(16).map(lambda w: mix_tables(
        [(wk, vertex_table(a)) for wk, a in zip(w, oracles.strategies())]))


@st.composite
def near_boundary_tables(draw):
    """A local mixture mixed with a nonlocal extreme at a weight within 0.05
    of where the extreme's top CHSH expression crosses 2, on either side."""
    local = draw(local_tables())
    extreme = draw(st.sampled_from(PR_BOXES + [HARDY_TABLE]))
    top = max(range(8), key=oracles.chsh_values(extreme).__getitem__)
    c_local, c_extreme = oracles.chsh_values(local)[top], oracles.chsh_values(extreme)[top]
    v = (2.0 - c_local) / (c_extreme - c_local) + draw(st.integers(-50, 50)) / 1000
    v = min(max(v, 0.0), 1.0)
    return mix_tables([(v, extreme), (1.0 - v, local)])


@st.composite
def near_facet_tables(draw):
    """A local mixture mixed with a nonlocal extreme at the weight where the
    extreme's top CHSH expression reaches 2 + e, e log-uniform in [4e-8, 1e-6]:
    nonlocal, but within the Fine tests' CHSH_MARGIN of the facet."""
    local = draw(local_tables())
    extreme = draw(st.sampled_from(PR_BOXES + [HARDY_TABLE]))
    top = max(range(8), key=oracles.chsh_values(extreme).__getitem__)
    c_local, c_extreme = oracles.chsh_values(local)[top], oracles.chsh_values(extreme)[top]
    e = math.exp(draw(st.floats(math.log(4e-8), math.log(1e-6))))
    v = (2.0 + e - c_local) / (c_extreme - c_local)
    return mix_tables([(v, extreme), (1.0 - v, local)])


@st.composite
def sure_row_tables(draw):
    """Rows with p = 1: either strategy mixtures that agree on one setting's
    cell (local), or independent rows of which some are one-hot."""
    if draw(st.booleans()):
        setting = draw(st.sampled_from(oracles.SETTINGS))
        cell = draw(st.sampled_from(CELL_NAMES))
        agreeing = [a for a in oracles.strategies() if a[setting] == cell]
        w = draw(weights(len(agreeing)))
        return mix_tables([(wk, vertex_table(a)) for wk, a in zip(w, agreeing)])
    table = {}
    for s in oracles.SETTINGS:
        hot = draw(st.none() | st.sampled_from(CELL_NAMES))
        row = [float(c == hot) for c in CELL_NAMES] if hot else draw(weights(4))
        table[s] = dict(zip(CELL_NAMES, row))
    return table


def signaling_tables():
    return st.lists(weights(4), min_size=4, max_size=4).map(
        lambda rows: {s: dict(zip(CELL_NAMES, row)) for s, row in zip(oracles.SETTINGS, rows)})


class TestAgreesWithFine:
    def test_oracle_reads_the_pinned_cases(self):
        assert oracles.fine_local(oracles.hardy_behavior(), 0) is False
        assert max(oracles.chsh_values(oracles.hardy_behavior())) - 2 == oracles.sp.Rational(9, 25)
        assert oracles.fine_local(oracles.uniform_behavior(), 0) is True
        assert all(oracles.fine_local(box, CHSH_MARGIN) is False for box in PR_BOXES)
        near_vertex = oracle_table(behavior_from_rows(NEAR_VERTEX_ROWS))
        assert oracles.fine_local(near_vertex, CHSH_MARGIN) is True

    @settings(derandomize=True, deadline=None)
    @given(near_boundary_tables())
    def test_near_the_polytope_boundary(self, table):
        check_against_fine(table)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(near_facet_tables())
    def test_just_outside_a_chsh_facet(self, table):
        result = local_membership(table_behavior(table))
        assert result.verdict == "infeasible"
        assert result.witness.margin >= WITNESS_TOL
        check_against_fine(table)

    @settings(derandomize=True, deadline=None)
    @given(sure_row_tables())
    def test_rows_with_certain_outcomes(self, table):
        check_against_fine(table)

    @settings(derandomize=True, deadline=None)
    @given(signaling_tables())
    def test_independent_rows_mostly_signal(self, table):
        check_against_fine(table)
