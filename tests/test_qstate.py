"""State algebra: construction, basis changes, Born tables, behaviors."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

import oracles  # exact-arithmetic derivation, independent of the package

from hardylab.experiment import FrequencyTable
from hardylab.qstate import (
    JOINT_OUTCOMES,
    Behavior,
    BasisChange,
    JointOutcome,
    Mixture,
    Outcome,
    ProductState,
    SettingPair,
    born_table,
    hardy_basis_change,
    hardy_behavior,
    hardy_state,
    make_state,
    mixture_behavior,
    phi_minus,
    phi_plus,
    quantum_behavior,
    rebase_state_to,
    rebasis,
    resolve_change,
    zx_change,
)
from hardylab.realist import ContextAssignment, reveal

# Frozen joint-probability rows, exact decimals confirmed by oracles.py.
HARDY_ROWS = {
    "11": {"RR": 0.0, "RG": 0.375, "GR": 0.375, "GG": 0.25},
    "12": {"RR": 0.15, "RG": 0.225, "GR": 0.625, "GG": 0.0},
    "21": {"RR": 0.15, "RG": 0.625, "GR": 0.225, "GG": 0.0},
    "22": {"RR": 0.64, "RG": 0.135, "GR": 0.135, "GG": 0.09},
}

# Frozen amplitude vectors in canonical cell order, confirmed by oracles.py.
HARDY_AMPS = {
    "11": (0.0, math.sqrt(0.375), math.sqrt(0.375), -0.5),
    "12": (-math.sqrt(0.15), math.sqrt(0.225), math.sqrt(0.625), 0.0),
    "21": (-math.sqrt(0.15), math.sqrt(0.625), math.sqrt(0.225), 0.0),
    "22": (-0.8, math.sqrt(0.135), math.sqrt(0.135), 0.3),
}


def rows_of(behavior: Behavior) -> dict[str, dict[str, float]]:
    return {s.key: {c.value: p for c, p in behavior.table[s].items()}
            for s in behavior.settings}


def hardy_setting_states() -> dict[str, object]:
    state = hardy_state()
    change = hardy_basis_change()
    return {
        "11": state,
        "12": rebasis(state, right=change),
        "21": rebasis(state, left=change),
        "22": rebasis(state, left=change, right=change),
    }


# ===========================================================================
# outcomes and settings
# ===========================================================================

class TestOutcomes:
    def test_canonical_cell_order(self):
        assert [c.value for c in JOINT_OUTCOMES] == ["RR", "RG", "GR", "GG"]

    def test_index_round_trip(self):
        for cell in JOINT_OUTCOMES:
            assert JointOutcome.from_outcomes(cell.left, cell.right) is cell

    def test_setting_key(self):
        assert SettingPair("1", "2").key == "12"
        assert str(SettingPair("z", "x")) == "(z,x)"


# ===========================================================================
# state construction
# ===========================================================================

class TestStateConstruction:
    def test_renormalizes_small_drift(self):
        drift = 1.0 + 5e-10
        st = make_state("1", "1", [drift, 0.0, 0.0, 0.0])
        assert st.amplitude(JointOutcome.RR) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_norm_off_by_more_than_tolerance(self):
        with pytest.raises(ValueError, match="norm"):
            make_state("1", "1", [1.1, 0.0, 0.0, 0.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="4 amplitudes"):
            make_state("1", "1", [1.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            make_state("1", "1", [np.nan, 0.0, 0.0, 0.0])

    def test_amps_are_read_only(self):
        st = hardy_state()
        with pytest.raises(ValueError):
            st.amps[0] = 1.0


# ===========================================================================
# basis changes and rebasis
# ===========================================================================

class TestBasisChange:
    def test_rejects_non_orthogonal_matrix(self):
        with pytest.raises(ValueError, match="orthogonal"):
            BasisChange("1", "2", np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rebasis_rejects_wrong_left_basis(self):
        with pytest.raises(ValueError, match="left side"):
            rebasis(phi_plus(), left=hardy_basis_change())

    def test_rebasis_rejects_wrong_right_basis(self):
        with pytest.raises(ValueError, match="right side"):
            rebasis(hardy_state(), right=zx_change())


class TestRebasis:
    @pytest.mark.parametrize("key", ["11", "12", "21", "22"])
    def test_hardy_amplitude_vectors(self, key):
        """Rebased amplitudes match the frozen exact-arithmetic vectors."""
        st = hardy_setting_states()[key]
        assert np.allclose(st.amps, HARDY_AMPS[key], atol=1e-12)

    def test_norm_preserved_under_random_rotations(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            amps = rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            st = make_state("a", "a", amps)
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            left = BasisChange("a", "b", np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]))
            right = BasisChange("a", "b", np.array(
                [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]))
            out = rebasis(st, left=left, right=right)
            assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_restores_amplitudes(self):
        rng = np.random.default_rng(7)
        change = hardy_basis_change()
        way_back = BasisChange("2", "1", change.matrix.T)
        for _ in range(50):
            amps = rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            st = make_state("1", "1", amps)
            there = rebasis(st, left=change, right=change)
            back = rebasis(there, left=way_back, right=way_back)
            assert np.allclose(back.amps, st.amps, atol=1e-12)

    def test_one_sided_rebase_keeps_other_label(self):
        st = rebasis(hardy_state(), right=hardy_basis_change())
        assert (st.left_basis, st.right_basis) == ("1", "2")


# ===========================================================================
# Born tables
# ===========================================================================

class TestBornTable:
    @pytest.mark.parametrize("key", ["11", "12", "21", "22"])
    def test_hardy_rows_match_frozen_values(self, key):
        st = hardy_setting_states()[key]
        table = born_table(st)
        for cell in JOINT_OUTCOMES:
            assert table[cell] == pytest.approx(HARDY_ROWS[key][cell.value], abs=1e-12)

    @pytest.mark.parametrize("key", ["11", "12", "21", "22"])
    def test_rows_sum_to_one(self, key):
        st = hardy_setting_states()[key]
        assert sum(born_table(st).values()) == pytest.approx(1.0, abs=1e-12)

    def test_cancelled_amplitude_becomes_exact_zero(self):
        """The rebased GG cell cancels in floats to ~1e-17 and must snap to 0."""
        st = rebasis(hardy_state(), right=hardy_basis_change())
        assert born_table(st)[JointOutcome.GG] == 0.0

    def test_matches_oracle_exactly(self):
        """Implementation rows agree with the sympy expansion cell by cell."""
        exact = oracles.hardy_behavior()
        states = hardy_setting_states()
        for key, table in exact.items():
            got = born_table(states[key])
            for cell in JOINT_OUTCOMES:
                assert got[cell] == pytest.approx(float(table[cell.value]), abs=1e-12)

    def test_frozen_rows_agree_with_oracle(self):
        """The literals quoted in this file are the oracle's numbers."""
        exact = oracles.hardy_behavior()
        for key, row in HARDY_ROWS.items():
            for cell, p in row.items():
                assert p == pytest.approx(float(exact[key][cell]), abs=1e-15)


# ===========================================================================
# quantum behaviors
# ===========================================================================

class TestQuantumBehavior:
    def test_hardy_behavior_rows(self):
        got = rows_of(hardy_behavior())
        assert set(got) == set(HARDY_ROWS)
        for key, row in HARDY_ROWS.items():
            assert got[key] == pytest.approx(row, abs=1e-12)

    def test_requires_state_in_change_from_basis(self):
        with pytest.raises(ValueError, match="from basis"):
            quantum_behavior(phi_plus(), hardy_basis_change())

    def test_no_signaling_residual_is_tiny(self):
        assert hardy_behavior().no_signaling_residual() <= 1e-12

    def test_spin_behavior_covers_all_basis_pairs(self):
        beh = quantum_behavior(phi_plus(), zx_change())
        assert {s.key for s in beh.settings} == {"xx", "xz", "zx", "zz"}

    def test_phi_states_in_x_basis(self):
        plus = quantum_behavior(phi_plus(), zx_change()).row(SettingPair("x", "x"))
        minus = quantum_behavior(phi_minus(), zx_change()).row(SettingPair("x", "x"))
        assert plus[JointOutcome.RR] == pytest.approx(0.5, abs=1e-12)
        assert plus[JointOutcome.RG] == 0.0
        assert plus[JointOutcome.GR] == 0.0
        assert plus[JointOutcome.GG] == pytest.approx(0.5, abs=1e-12)
        assert minus[JointOutcome.RG] == pytest.approx(0.5, abs=1e-12)
        assert minus[JointOutcome.GR] == pytest.approx(0.5, abs=1e-12)
        assert minus[JointOutcome.RR] == 0.0
        assert minus[JointOutcome.GG] == 0.0

    def test_change_to_its_own_label_is_rejected(self):
        """A rotation from "1" to "1" has no second label to put its rows under."""
        t = 0.3
        change = BasisChange("1", "1", np.array([[math.cos(t), -math.sin(t)],
                                                 [math.sin(t), math.cos(t)]]))
        with pytest.raises(ValueError, match="'1' to itself"):
            quantum_behavior(hardy_state(), change)

    def test_mixed_spin_basis_rows_are_uniform(self):
        beh = quantum_behavior(phi_plus(), zx_change())
        for key in ("zx", "xz"):
            row = beh.row(SettingPair(key[0], key[1]))
            for cell in JOINT_OUTCOMES:
                assert row[cell] == pytest.approx(0.25, abs=1e-12)


# ===========================================================================
# behavior validation
# ===========================================================================

def uniform_table():
    return {SettingPair(l, r): {c: 0.25 for c in JOINT_OUTCOMES}
            for l in "12" for r in "12"}


class TestBehaviorValidation:
    def test_row_must_sum_to_one(self):
        table = uniform_table()
        table[SettingPair("1", "1")][JointOutcome.RR] = 0.5
        with pytest.raises(ValueError, match="sum"):
            Behavior(table)

    def test_rejects_negative_probability(self):
        table = uniform_table()
        row = table[SettingPair("1", "2")]
        row[JointOutcome.RR] = -0.25
        row[JointOutcome.RG] = 0.75
        with pytest.raises(ValueError, match="12:RR"):
            Behavior(table)

    def test_rejects_missing_cell(self):
        table = uniform_table()
        del table[SettingPair("2", "1")][JointOutcome.GG]
        with pytest.raises(ValueError, match="missing cells"):
            Behavior(table)

    def test_rejects_unknown_cell(self):
        table = uniform_table()
        table[SettingPair("2", "1")]["GG"] = 0.9
        with pytest.raises(ValueError, match=r"\(2,1\) has unknown cells \['GG'\]"):
            Behavior(table)

    def test_missing_cells_reported_before_unknown_ones(self):
        table = uniform_table()
        row = table[SettingPair("2", "1")]
        row["GG"] = row.pop(JointOutcome.GG)
        with pytest.raises(ValueError, match="missing cells"):
            Behavior(table)

    def test_settings_come_back_sorted(self):
        table = dict(reversed(list(uniform_table().items())))
        beh = Behavior(table)
        assert [s.key for s in beh.settings] == ["11", "12", "21", "22"]

    def test_plain_tuple_keys_become_setting_pairs(self):
        table = {tuple(s): row for s, row in reversed(list(uniform_table().items()))}
        beh = Behavior(table)
        assert [s.key for s in beh.settings] == ["11", "12", "21", "22"]
        assert all(type(s) is SettingPair for s in beh.settings)
        assert beh.table == uniform_table()

    def test_cells_are_setting_major(self):
        """The flat cell order: settings in canonical order, then RR, RG, GR, GG."""
        flat = [(s.key, c.value, p) for s, c, p in hardy_behavior().cells()]
        assert [(s, c) for s, c, _ in flat] == [
            (s, c) for s in oracles.SETTINGS for c in oracles.JOINT]
        assert [p for _, _, p in flat] == pytest.approx(
            [HARDY_ROWS[s][c] for s, c, _ in flat], abs=1e-12)

    def test_unknown_setting_lookup_fails(self):
        with pytest.raises(ValueError, match="no setting"):
            hardy_behavior().row(SettingPair("3", "1"))
        with pytest.raises(ValueError, match="no setting"):
            hardy_behavior().prob(("3", "1"), JointOutcome.GG)

    def test_row_is_a_copy_of_the_stored_cells(self):
        beh = hardy_behavior()
        row = beh.row(("2", "2"))
        assert list(row) == list(JOINT_OUTCOMES)
        assert row == beh.table[SettingPair("2", "2")]
        row[JointOutcome.GG] = 2.0
        assert beh.prob(("2", "2"), JointOutcome.GG) < 1.0

    def test_signaling_table_has_positive_residual(self):
        table = uniform_table()
        table[SettingPair("1", "1")] = {
            JointOutcome.RR: 1.0, JointOutcome.RG: 0.0,
            JointOutcome.GR: 0.0, JointOutcome.GG: 0.0}
        assert Behavior(table).no_signaling_residual() >= 0.5


class TestSettingKeys:
    """Behavior, FrequencyTable and ContextAssignment share one key check."""

    @pytest.mark.parametrize("build", [
        lambda key: Behavior({key: {c: 0.25 for c in JOINT_OUTCOMES}}),
        lambda key: FrequencyTable({key: {JointOutcome.RR: 1}}),
        lambda key: ContextAssignment({key: JointOutcome.RR}),
    ], ids=["Behavior", "FrequencyTable", "ContextAssignment"])
    @pytest.mark.parametrize("key", ["11", ("1", "1", "1"), 5, (1, 2), ("1", 2)],
                             ids=["str", "triple", "int", "int-labels", "str-int-labels"])
    def test_key_that_is_not_a_label_pair_is_named(self, build, key):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            build(key)

    def test_keys_of_mixed_label_types_are_named_not_sorted(self):
        row = {c: 0.25 for c in JOINT_OUTCOMES}
        with pytest.raises(ValueError, match=re.escape(repr((1, "2")))):
            Behavior({(1, "2"): row, ("1", "2"): row})

    @pytest.mark.parametrize("key", ["12", "123", 5], ids=["str", "long-str", "int"])
    def test_lookup_of_a_key_no_table_holds(self, key):
        beh = hardy_behavior()
        with pytest.raises(ValueError, match="no setting"):
            beh.prob(key, JointOutcome.RR)
        with pytest.raises(ValueError, match="no setting"):
            beh.row(key)
        with pytest.raises(ValueError, match="no setting"):
            reveal(ContextAssignment({("1", "2"): JointOutcome.RR}), key)
        freq = FrequencyTable({("1", "2"): {JointOutcome.RR: 3}})
        assert freq.count(key, JointOutcome.RR) == freq.setting_total(key) == 0
        assert freq.count(("1", "2"), JointOutcome.RR) == freq.setting_total(("1", "2")) == 3


# Rows over settings 11, 12, 13, 21 and 33, not a full grid. Left label 1
# gives P(R) 0.5, 0.75, 0.25 in setting order, a largest shift of 0.5 (13
# against 12); right label 1 moves by 0.375 and right label 3 by 0.125.
NON_GRID_ROWS = {
    "11": (0.25, 0.25, 0.25, 0.25),
    "12": (0.5, 0.25, 0.125, 0.125),
    "13": (0.125, 0.125, 0.5, 0.25),
    "21": (0.125, 0.5, 0.0, 0.375),
    "33": (0.25, 0.25, 0.25, 0.25),
}
NON_GRID_RESIDUAL = 0.5  # max - min of left label 1's P(R) over its three settings


def behavior_of(rows: dict[str, dict[str, float]]) -> Behavior:
    return Behavior({SettingPair(*key): {JointOutcome(c): p for c, p in row.items()}
                     for key, row in rows.items()})


def all_pairs_residual(rows: dict[str, dict[str, float]]) -> float:
    """Largest marginal shift over every pair of settings sharing a label."""
    def marginal(key: str, side: int, o: str) -> float:
        return sum(p for c, p in rows[key].items() if c[side] == o)

    return max([abs(marginal(a, side, o) - marginal(b, side, o))
                for side in (0, 1) for a in rows for b in rows
                if a[side] == b[side] for o in "RG"])


class TestNoSignalingResidual:
    """Exact agreement with the oracle's marginal shifts, float for float."""

    @pytest.mark.parametrize("seed", range(20))
    def test_independent_rows_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rows = {s: dict(zip(oracles.JOINT, rng.dirichlet(np.ones(4)).tolist()))
                for s in oracles.SETTINGS}
        residual = behavior_of(rows).no_signaling_residual()
        assert residual == oracles.signaling_residual(rows)
        assert residual > 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_quantum_rows_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 2.0 * math.pi)
        change = BasisChange("1", "2", np.array([[math.cos(t), -math.sin(t)],
                                                 [math.sin(t), math.cos(t)]]))
        amps = rng.normal(size=4)
        behavior = quantum_behavior(make_state("1", "1", amps / np.linalg.norm(amps)), change)
        assert behavior.no_signaling_residual() == oracles.signaling_residual(
            rows_of(behavior))

    def test_non_grid_residual_is_pinned(self):
        rows = {key: dict(zip(oracles.JOINT, row)) for key, row in NON_GRID_ROWS.items()}
        assert behavior_of(rows).no_signaling_residual() == NON_GRID_RESIDUAL

    @pytest.mark.parametrize("seed", range(20))
    def test_non_grid_rows_match_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        keys = [l + r for l in "123" for r in "123"]
        chosen = rng.choice(keys, size=rng.integers(3, len(keys) + 1), replace=False)
        rows = {str(key): dict(zip(oracles.JOINT, rng.dirichlet(np.ones(4)).tolist()))
                for key in chosen}
        assert behavior_of(rows).no_signaling_residual() == all_pairs_residual(rows)


# ===========================================================================
# mixtures
# ===========================================================================

def same_outcome_mixture() -> Mixture:
    return Mixture((
        (0.5, ProductState("z", "z", Outcome.R, Outcome.R)),
        (0.5, ProductState("z", "z", Outcome.G, Outcome.G)),
    ))


class TestMixtures:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Mixture(((0.7, ProductState("z", "z", Outcome.R, Outcome.R)),))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            Mixture((
                (-0.5, ProductState("z", "z", Outcome.R, Outcome.R)),
                (1.5, ProductState("z", "z", Outcome.G, Outcome.G)),
            ))

    def test_product_state_one_hot(self):
        st = ProductState("z", "z", Outcome.R, Outcome.G).to_state()
        assert st.amplitude(JointOutcome.RG) == 1.0
        assert sum(abs(st.amplitude(c)) for c in JOINT_OUTCOMES) == 1.0

    def test_mixture_rows_match_oracle(self):
        targets = (SettingPair("z", "z"), SettingPair("x", "x"))
        beh = mixture_behavior(same_outcome_mixture(), targets, [zx_change()])
        exact = oracles.zz_mixture_tables()
        for setting in targets:
            row = beh.row(setting)
            for cell in JOINT_OUTCOMES:
                expected = float(exact[setting.key][cell.value])
                assert row[cell] == pytest.approx(expected, abs=1e-12)

    def test_missing_change_is_reported(self):
        with pytest.raises(ValueError, match="no basis change"):
            mixture_behavior(same_outcome_mixture(), [SettingPair("1", "1")], [zx_change()])

    def test_setting_that_is_not_a_label_pair_is_named(self):
        with pytest.raises(ValueError, match="'zz'"):
            mixture_behavior(same_outcome_mixture(), ["zz"], [zx_change()])

    def test_changes_are_used_only_in_the_given_direction(self):
        with pytest.raises(ValueError, match="no basis change"):
            resolve_change("x", "z", [zx_change()])
        in_x = rebase_state_to(phi_plus(), SettingPair("x", "x"), [zx_change()])
        with pytest.raises(ValueError, match="no basis change"):
            rebase_state_to(in_x, SettingPair("z", "z"), [zx_change()])

    def test_rebase_state_to_both_sides(self):
        st = rebase_state_to(hardy_state(), SettingPair("2", "2"),
                             [hardy_basis_change()])
        assert np.allclose(st.amps, HARDY_AMPS["22"], atol=1e-12)
