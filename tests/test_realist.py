"""Measurement-as-reveal model: candidates, assignment rows, contextuality."""
from __future__ import annotations

import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hardylab.experiment import sample_assignments
from hardylab.locality import noncontextual_fraction
from hardylab.qstate import (
    JOINT_OUTCOMES,
    Behavior,
    JointOutcome,
    Outcome,
    ProductState,
    SettingPair,
    hardy_basis_change,
    hardy_behavior,
    hardy_state,
    rebase_state_to,
)
from hardylab.realist import (
    CANDIDATE_TOL,
    enumerate_preexisting,
    is_noncontextual,
    same_candidates,
)

HARDY_SETTINGS = tuple(SettingPair(l, r) for l in "12" for r in "12")


def row_of(*cells: JointOutcome) -> list[int]:
    """One assignment row: the outcome index of each setting's cell."""
    return [c.index for c in cells]


# A sampled assignment that cannot come from per-side response functions:
# the left outcome under left setting 1 depends on the remote setting.
# Settings 11, 12, 21, 22 hold RG, GR, RR, RR.
CONTEXTUAL_EXAMPLE = row_of(JointOutcome.RG, JointOutcome.GR, JointOutcome.RR, JointOutcome.RR)
ALL_QUADS = np.array(list(product(range(4), repeat=4)), dtype=np.uint8)  # every row over four settings


def behavior_over(labels) -> Behavior:
    """A behavior over the given (left, right) label pairs; only its settings matter here."""
    return Behavior({tuple(s): {c: 0.25 for c in JOINT_OUTCOMES} for s in labels})


def reference(behavior: Behavior, rows: np.ndarray) -> list[bool]:
    """oracles.is_noncontextual on each row, read as label pairs and cell names."""
    return [oracles.is_noncontextual({tuple(s): oracles.JOINT[i]
                                      for s, i in zip(behavior.settings, row)})
            for row in rows.tolist()]


# ===========================================================================
# pre-existing candidates
# ===========================================================================

class TestEnumeratePreexisting:
    def test_hardy_native_basis_has_three_candidates(self):
        cands = enumerate_preexisting(hardy_state())
        assert [c.value for c in cands] == ["RG", "GR", "GG"]
        assert list(cands.values()) == pytest.approx([0.375, 0.375, 0.25], abs=1e-12)

    def test_forbidden_cell_is_not_a_candidate(self):
        st = rebase_state_to(hardy_state(), SettingPair("1", "2"), [hardy_basis_change()])
        assert JointOutcome.GG not in enumerate_preexisting(st)

    def test_product_state_has_single_certain_candidate(self):
        st = ProductState("z", "z", Outcome.G, Outcome.R).to_state()
        cands = enumerate_preexisting(st)
        assert list(cands) == [JointOutcome.GR]
        assert cands[JointOutcome.GR] == pytest.approx(1.0, abs=1e-12)


def candidates(**probs: float) -> dict[JointOutcome, float]:
    return {JointOutcome(k): p for k, p in probs.items()}


class TestSameCandidates:
    def test_order_does_not_matter(self):
        assert same_candidates(candidates(RR=0.5, GG=0.5), candidates(GG=0.5, RR=0.5))

    def test_probabilities_match_within_tolerance(self):
        shifted = 0.5 + CANDIDATE_TOL / 2
        assert same_candidates(candidates(RR=0.5, GG=0.5),
                               candidates(RR=shifted, GG=1.0 - shifted))
        assert not same_candidates(candidates(RR=0.5, GG=0.5),
                                   candidates(RR=0.5 + 2 * CANDIDATE_TOL, GG=0.5))

    def test_difference_of_exactly_the_tolerance_matches(self):
        low, high = CANDIDATE_TOL, 2 * CANDIDATE_TOL  # they differ by exactly the tolerance
        assert high - low == CANDIDATE_TOL
        assert same_candidates(candidates(RR=0.5, GG=low), candidates(RR=0.5, GG=high))

    def test_different_cells_differ(self):
        assert not same_candidates(candidates(RR=0.5, GG=0.5), candidates(RG=0.5, GR=0.5))
        assert not same_candidates(candidates(RR=1.0), candidates(RR=1.0, GG=0.0))

    def test_empty_lists_match(self):
        assert same_candidates({}, {})


# ===========================================================================
# sampling assignments
# ===========================================================================

class TestSampleContext:
    """Assignments drawn in batches by experiment.sample_assignments."""

    def test_assignment_covers_all_settings(self):
        beh = hardy_behavior()
        assignments = sample_assignments(beh, np.random.default_rng(0), 3)
        assert beh.settings == HARDY_SETTINGS
        assert assignments.shape == (3, len(HARDY_SETTINGS))
        assert assignments.dtype == np.uint8

    def test_seeded_stream_is_reproducible(self):
        beh = hardy_behavior()
        first = sample_assignments(beh, np.random.default_rng(123), 20)
        second = sample_assignments(beh, np.random.default_rng(123), 20)
        assert np.array_equal(first, second)

    def test_certain_row_is_always_assigned(self):
        """A {RG: 1} row forces RG in every sampled assignment."""
        table = {SettingPair("1", "1"): {
            JointOutcome.RR: 0.0, JointOutcome.RG: 1.0,
            JointOutcome.GR: 0.0, JointOutcome.GG: 0.0}}
        beh = Behavior(table)
        assignments = sample_assignments(beh, np.random.default_rng(5), 100)
        assert assignments.shape == (100, 1)
        assert (assignments == JointOutcome.RG.index).all()

    def test_row_slack_is_split_in_proportion(self):
        """A row summing to 1 - 8e-10 is renormalized before the uniforms are counted."""
        cells = (0.25 - 2e-10, 0.25 - 2e-10, 0.5 - 4e-10, 0.0)
        beh = Behavior({SettingPair("1", "1"): dict(zip(JOINT_OUTCOMES, cells))})

        class FixedUniforms:
            def random(self, shape):
                return np.array([0.25 - 1e-10, 1.0 - 1e-10]).reshape(shape)

        assignments = sample_assignments(beh, FixedUniforms(), 2)
        assert assignments[:, 0].tolist() == [JointOutcome.RR.index, JointOutcome.GR.index]

    def test_structural_zeros_never_sampled(self):
        beh = hardy_behavior()
        assignments = sample_assignments(beh, np.random.default_rng(99), 5000)
        for setting, cell in ((SettingPair("1", "1"), JointOutcome.RR),
                              (SettingPair("1", "2"), JointOutcome.GG),
                              (SettingPair("2", "1"), JointOutcome.GG)):
            column = assignments[:, beh.settings.index(setting)]
            assert not (column == cell.index).any()

    @pytest.mark.parametrize("seed", range(10))
    def test_marginals_track_rows_within_five_sigma(self, seed):
        """Empirical cell rates stay within 5 standard errors per seed.

        False-failure budget: 10 seeds x 16 cells x P(|z| > 5) ~ 1e-5.
        """
        beh = hardy_behavior()
        n = 10000
        assignments = sample_assignments(beh, np.random.default_rng(seed), n)
        for k, s in enumerate(beh.settings):
            counts = np.bincount(assignments[:, k], minlength=4)
            for cell in JOINT_OUTCOMES:
                p = beh.table[s][cell]
                if p in (0.0, 1.0):
                    assert counts[cell.index] == n * int(p)
                    continue
                sigma = np.sqrt(p * (1 - p) / n)
                assert abs(counts[cell.index] / n - p) < 5 * sigma


# ===========================================================================
# contextuality
# ===========================================================================

# Label sets off the Hardy grid: one setting; two that share no label; three
# that share left label 1; and the 3 x 2 grid {1, 2, 3} x {1, 2}.
OFF_GRID = {
    "one": [("1", "1")],
    "disjoint": [("1", "1"), ("2", "2")],
    "shared-left": [("1", "1"), ("1", "2"), ("1", "3")],
    "three-by-two": list(product("123", "12")),
}


class TestIsNoncontextual:
    def test_contextual_example_is_detected(self):
        result = is_noncontextual(hardy_behavior(), [CONTEXTUAL_EXAMPLE])
        assert result.dtype == bool
        assert result.tolist() == [False]

    def test_factorizable_assignment_passes(self):
        # left: 1->R, 2->G; right: 1->G, 2->R
        row = row_of(JointOutcome.RG, JointOutcome.RR, JointOutcome.GG, JointOutcome.GR)
        assert is_noncontextual(hardy_behavior(), [row]).tolist() == [True]

    def test_matches_per_side_function_enumeration(self):
        """Agrees with brute force over all 16 per-side function pairs."""
        factorizable = set()
        for l1, l2, r1, r2 in product(Outcome, repeat=4):
            quad = tuple(JointOutcome.from_outcomes(l, r).index
                         for l, r in ((l1, r1), (l1, r2), (l2, r1), (l2, r2)))
            factorizable.add(quad)
        assert len(factorizable) == 16
        expected = [quad in factorizable for quad in map(tuple, ALL_QUADS.tolist())]
        assert is_noncontextual(hardy_behavior(), ALL_QUADS).tolist() == expected

    def test_single_setting_is_trivially_noncontextual(self):
        rows = np.arange(4, dtype=np.uint8).reshape(4, 1)
        assert is_noncontextual(behavior_over([("1", "1")]), rows).tolist() == [True] * 4

    def test_agrees_with_the_reference_on_all_hardy_quads(self):
        behavior = hardy_behavior()
        assert is_noncontextual(behavior, ALL_QUADS).tolist() == reference(behavior, ALL_QUADS)

    @pytest.mark.parametrize("labels", OFF_GRID.values(), ids=OFF_GRID.keys())
    def test_agrees_with_the_reference_off_the_grid(self, labels):
        behavior = behavior_over(labels)
        rows = np.array(list(product(range(4), repeat=len(labels))), dtype=np.uint8)
        assert is_noncontextual(behavior, rows).tolist() == reference(behavior, rows)

    def test_sampled_rows_off_the_grid(self):
        """The rows sample_assignments serves off the grid are classified too."""
        behavior = behavior_over(OFF_GRID["three-by-two"])
        rows = sample_assignments(behavior, np.random.default_rng(7), 2000)
        assert is_noncontextual(behavior, rows).tolist() == reference(behavior, rows)

    def test_no_rows_give_no_answers(self):
        result = is_noncontextual(hardy_behavior(), np.zeros((0, 4), dtype=np.uint8))
        assert result.shape == (0,) and result.dtype == bool


label_sets = st.sets(st.tuples(st.sampled_from("12a"), st.sampled_from("12b")),
                     min_size=1, max_size=6)


@st.composite
def labelled_rows(draw):
    """1-6 settings over small label alphabets, and up to 20 rows of indices."""
    labels = draw(label_sets)
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=len(labels),
                                  max_size=len(labels)), min_size=1, max_size=20))
    return behavior_over(labels), np.array(rows, dtype=np.uint8)


row_weights = st.lists(st.integers(0, 1000), min_size=4, max_size=4).filter(any)
GRID_LABELS = [("1", "2"), ("x", "z"), ("a", "b")]  # as test_matches_assignment_enumeration


class TestAgreesWithReference:
    @settings(derandomize=True, deadline=None)
    @given(labelled_rows())
    def test_row_by_row(self, case):
        behavior, rows = case
        assert is_noncontextual(behavior, rows).tolist() == reference(behavior, rows)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.sampled_from(GRID_LABELS), st.sampled_from(GRID_LABELS),
           st.lists(row_weights, min_size=4, max_size=4))
    def test_enumerated_mass_is_the_noncontextual_fraction(self, left, right, weights):
        table = {(l, r): dict(zip(JOINT_OUTCOMES, np.divide(w, sum(w))))
                 for (l, r), w in zip(product(left, right), weights)}
        behavior = Behavior(table)
        cells = np.array([list(behavior.table[s].values()) for s in behavior.settings])
        mass = np.prod(cells[np.arange(4), ALL_QUADS], axis=1)
        kept = mass[is_noncontextual(behavior, ALL_QUADS)].sum()
        assert kept == pytest.approx(noncontextual_fraction(behavior), abs=1e-12)


class TestAssignmentSerialization:
    """Assignment rows that the behavior's settings cannot read are input errors."""

    def test_empty_assignment_rejected(self):
        for rows in (np.zeros((1, 0)), [0, 1, 2, 3], np.zeros((2, 3))):
            shape = np.shape(rows)
            with pytest.raises(ValueError, match=re.escape(f"shape {shape} need one column")):
                is_noncontextual(hardy_behavior(), rows)

    def test_value_that_is_not_an_outcome_is_named(self):
        for rows, named in (([[1, 2, 0, 4]], "[4]"),
                            ([[1, 2, -1, 0.5]], "[-1.0, 0.5]"),
                            ([["RR", "RG", "GR", "GG"]], "['GG', 'GR', 'RG', 'RR']")):
            with pytest.raises(ValueError, match=re.escape(f"not outcome indices 0-3: {named}")):
                is_noncontextual(hardy_behavior(), rows)
