"""Acceptance checks: one test per release criterion, at pinned tolerances.

Test names follow test_<NN>_<slug>; conftest.py turns each outcome into an
"acceptance NN slug: PASS|FAIL" line in the terminal summary.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np

import hardylab
import oracles
from hardylab.experiment import (
    ExperimentConfig,
    compare_tables,
    run_experiment,
    sample_assignments,
)
from hardylab.locality import (
    HARDY_SETTINGS,
    hardy_witness,
    local_membership,
    noncontextual_fraction,
)
from hardylab.qstate import (
    JOINT_OUTCOMES,
    OUTCOMES,
    Behavior,
    JointOutcome,
    Mixture,
    Outcome,
    ProductState,
    SettingPair,
    born_table,
    hardy_basis_change,
    hardy_behavior,
    hardy_state,
    mixture_behavior,
    phi_minus,
    phi_plus,
    quantum_behavior,
    rebase_state_to,
    zx_change,
)
from hardylab.realist import enumerate_preexisting, is_noncontextual, same_candidates
from test_locality import strategy_behaviors

EXACT_FRACTION = 6233 / 51200


def test_01_rebased_probability_rows():
    """Every rebased row matches the exact-arithmetic oracle to 1e-12."""
    state = hardy_state()
    change = hardy_basis_change()
    named = {
        "12": {"RG": 0.225, "GR": 0.625, "RR": 0.15},
        "21": {"RG": 0.625, "GR": 0.225, "RR": 0.15},
        "22": {"RG": 0.135, "GR": 0.135, "RR": 0.64, "GG": 0.09},
    }
    exact_rows = oracles.hardy_behavior()
    for setting in HARDY_SETTINGS:
        probs = born_table(rebase_state_to(state, setting, [change]))
        assert abs(sum(probs.values()) - 1.0) <= 1e-12
        for cell in JOINT_OUTCOMES:
            assert abs(probs[cell] - float(exact_rows[setting.key][cell.value])) <= 1e-12
        for cell_name, want in named.get(setting.key, {}).items():
            assert abs(probs[JointOutcome(cell_name)] - want) <= 1e-12


def test_02_vanishing_amplitudes():
    """The three structural zeros vanish and the key detector cell is 0.09."""
    state = hardy_state()
    change = hardy_basis_change()
    assert abs(state.amplitude(JointOutcome.RR)) <= 1e-12
    for pair in (SettingPair("1", "2"), SettingPair("2", "1")):
        rebased = rebase_state_to(state, pair, [change])
        assert abs(rebased.amplitude(JointOutcome.GG)) <= 1e-12
    last = born_table(rebase_state_to(state, SettingPair("2", "2"), [change]))
    assert abs(last[JointOutcome.GG] - 0.09) <= 1e-12


def test_03_candidate_distinguishability():
    """Candidate sets coincide in the shared basis, split in the rotated one."""
    zz, xx = SettingPair("z", "z"), SettingPair("x", "x")

    def candidates(state, setting):  # what interpret --against compares
        return enumerate_preexisting(rebase_state_to(state, setting, [zx_change()]))

    assert same_candidates(candidates(phi_plus(), zz), candidates(phi_minus(), zz))
    plus, minus = candidates(phi_plus(), xx), candidates(phi_minus(), xx)
    assert not same_candidates(plus, minus)
    assert list(plus) == [JointOutcome.RR, JointOutcome.GG]
    assert list(minus) == [JointOutcome.RG, JointOutcome.GR]
    for p in (*plus.values(), *minus.values()):
        assert abs(p - 0.5) <= 1e-12


def test_04_entangled_vs_mixture():
    """Same-basis rows agree exactly; rotated-basis cells differ by 0.25."""
    entangled = quantum_behavior(phi_plus(), zx_change())
    mixture = Mixture((
        (0.5, ProductState("z", "z", Outcome.R, Outcome.R)),
        (0.5, ProductState("z", "z", Outcome.G, Outcome.G)),
    ))
    zz, xx = SettingPair("z", "z"), SettingPair("x", "x")
    mixed = mixture_behavior(mixture, (zz, xx), [zx_change()])
    for cell in JOINT_OUTCOMES:
        assert abs(entangled.prob(zz, cell) - mixed.prob(zz, cell)) <= 1e-12
    for cell in JOINT_OUTCOMES:
        delta = abs(entangled.prob(xx, cell) - mixed.prob(xx, cell))
        assert abs(delta - 0.25) <= 1e-12


def test_05_million_trial_run():
    """A seeded million-trial reveal run reproduces the rows inside 10 s."""
    behavior = hardy_behavior()
    start = time.perf_counter()
    freq, _ = run_experiment(ExperimentConfig(trials=10 ** 6, seed=0,
                                              model="realist"), behavior)
    report = compare_tables(freq, behavior)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert elapsed < 10.0
    control, _ = run_experiment(ExperimentConfig(trials=10 ** 6, seed=0,
                                                 model="quantum"), behavior)
    assert compare_tables(control, behavior).passed


def test_06_polytope_membership():
    """Detector rows sit outside the local polytope; every mixture sits inside."""
    result = local_membership(hardy_behavior())
    assert result.verdict == "infeasible"
    assert result.witness is not None
    assert result.witness.margin >= 0.09 - 1e-6

    vertices = strategy_behaviors()
    for k, vertex in enumerate(vertices):
        res = local_membership(vertex)
        assert res.verdict == "feasible"
        assert res.residual <= 1e-12
        assert abs(res.weights[k] - 1.0) <= 1e-9

    columns = {
        (s, c): np.array([v.table[s][c] for v in vertices])
        for s in HARDY_SETTINGS for c in JOINT_OUTCOMES
    }
    rng = np.random.default_rng(20240612)
    for _ in range(1000):
        w = rng.dirichlet(np.ones(16))
        table = {s: {c: float(columns[s, c] @ w) for c in JOINT_OUTCOMES}
                 for s in HARDY_SETTINGS}
        res = local_membership(Behavior(table))
        assert res.verdict == "feasible"
        assert res.residual <= 1e-9


def test_07_witness_extremes():
    """The witness caps at 0 deterministically and reaches 0.09 quantumly."""
    values = [hardy_witness(b) for b in strategy_behaviors()]
    assert max(values) == 0.0
    assert abs(hardy_witness(hardy_behavior()) - 0.09) <= 1e-12


def test_08_assignment_classification():
    """Factorizability test, exact noncontextual mass, and sampled agreement."""
    behavior = hardy_behavior()
    # outcome indices for settings 11, 12, 21, 22: RG, GR, RR, RR
    sampled = [[c.index for c in (JointOutcome.RG, JointOutcome.GR,
                                  JointOutcome.RR, JointOutcome.RR)]]
    assert not is_noncontextual(behavior, sampled).any()

    rows = {s: behavior.table[s] for s in behavior.settings}
    brute = 0.0  # independent sum over the 16 per-side response quadruples
    for l1, l2, r1, r2 in product(OUTCOMES, repeat=4):
        term = 1.0
        for setting, (lo, ro) in zip(behavior.settings,
                                     ((l1, r1), (l1, r2), (l2, r1), (l2, r2))):
            term *= rows[setting][JointOutcome.from_outcomes(lo, ro)]
        brute += term
    fraction = noncontextual_fraction(behavior)
    assert abs(fraction - brute) <= 1e-12
    assert abs(fraction - EXACT_FRACTION) <= 1e-12

    n = 10 ** 6
    rng = np.random.default_rng(314159)
    hits = int(is_noncontextual(behavior, sample_assignments(behavior, rng, n)).sum())
    se = math.sqrt(EXACT_FRACTION * (1 - EXACT_FRACTION) / n)
    assert abs(hits / n - EXACT_FRACTION) < 5 * se


def test_09_byte_stable_cli():
    """Repeat seeded CLI runs emit identical bytes for any worker count."""
    args = [sys.executable, "-m", "hardylab", "simulate", "--trials", "100000",
            "--seed", "42", "--model", "realist", "--format", "json"]
    # the child runs the package under test, whether installed or not
    src = str(Path(hardylab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(args, capture_output=True, env=env)
    second = subprocess.run(args, capture_output=True, env=env)
    multi = subprocess.run(args + ["--workers", "3"], capture_output=True, env=env)
    assert first.returncode == second.returncode == multi.returncode == 0
    assert first.stdout
    assert first.stdout == second.stdout == multi.stdout
