"""Measurement-as-reveal model: candidates, assignments, contextuality."""
from __future__ import annotations

import re
from itertools import product

import numpy as np
import pytest

from hardylab.experiment import sample_assignments
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
)
from hardylab.realist import (
    CANDIDATE_TOL,
    ContextAssignment,
    PreexistingCandidate,
    enumerate_preexisting,
    is_noncontextual,
    reveal,
    same_candidates,
)

HARDY_SETTINGS = tuple(SettingPair(l, r) for l in "12" for r in "12")

# A sampled assignment that cannot come from per-side response functions:
# the left outcome under left setting 1 depends on the remote setting.
CONTEXTUAL_EXAMPLE = ContextAssignment({
    SettingPair("1", "1"): JointOutcome.RG,
    SettingPair("1", "2"): JointOutcome.GR,
    SettingPair("2", "1"): JointOutcome.RR,
    SettingPair("2", "2"): JointOutcome.RR,
})


def assignment_from(quad: tuple[JointOutcome, ...]) -> ContextAssignment:
    return ContextAssignment(dict(zip(HARDY_SETTINGS, quad)))


# ===========================================================================
# pre-existing candidates
# ===========================================================================

class TestEnumeratePreexisting:
    def test_hardy_native_basis_has_three_candidates(self):
        cands = enumerate_preexisting(hardy_state())
        assert [c.state.joint.value for c in cands] == ["RG", "GR", "GG"]
        assert [c.probability for c in cands] == pytest.approx(
            [0.375, 0.375, 0.25], abs=1e-12)

    def test_forbidden_cell_is_not_a_candidate(self):
        from hardylab.qstate import rebasis
        st = rebasis(hardy_state(), right=hardy_basis_change())
        joints = {c.state.joint for c in enumerate_preexisting(st)}
        assert JointOutcome.GG not in joints

    def test_product_state_has_single_certain_candidate(self):
        st = ProductState("z", "z", Outcome.G, Outcome.R).to_state()
        cands = enumerate_preexisting(st)
        assert len(cands) == 1
        assert cands[0].state.joint is JointOutcome.GR
        assert cands[0].probability == pytest.approx(1.0, abs=1e-12)

    def test_candidates_carry_basis_labels(self):
        for cand in enumerate_preexisting(hardy_state()):
            assert (cand.state.left_basis, cand.state.right_basis) == ("1", "1")


def candidates(**probs: float) -> list[PreexistingCandidate]:
    return [PreexistingCandidate(ProductState("z", "z", Outcome(k[0]), Outcome(k[1])), p)
            for k, p in probs.items()]


class TestSameCandidates:
    def test_order_does_not_matter(self):
        assert same_candidates(candidates(RR=0.5, GG=0.5), candidates(GG=0.5, RR=0.5))

    def test_probabilities_match_within_tolerance(self):
        shifted = 0.5 + CANDIDATE_TOL / 2
        assert same_candidates(candidates(RR=0.5, GG=0.5),
                               candidates(RR=shifted, GG=1.0 - shifted))
        assert not same_candidates(candidates(RR=0.5, GG=0.5),
                                   candidates(RR=0.5 + 2 * CANDIDATE_TOL, GG=0.5))

    def test_different_cells_differ(self):
        assert not same_candidates(candidates(RR=0.5, GG=0.5), candidates(RG=0.5, GR=0.5))
        assert not same_candidates(candidates(RR=1.0), candidates(RR=1.0, GG=0.0))

    def test_empty_lists_match(self):
        assert same_candidates([], [])


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


class TestReveal:
    def test_reveals_the_assigned_outcome(self):
        assert reveal(CONTEXTUAL_EXAMPLE, SettingPair("1", "1")) is JointOutcome.RG
        assert reveal(CONTEXTUAL_EXAMPLE, SettingPair("2", "2")) is JointOutcome.RR

    def test_unknown_setting_is_an_error(self):
        with pytest.raises(ValueError, match="no setting"):
            reveal(CONTEXTUAL_EXAMPLE, SettingPair("z", "z"))

    def test_plain_tuple_keys_become_setting_pairs(self):
        a = ContextAssignment({tuple(s): CONTEXTUAL_EXAMPLE.per_setting[s]
                               for s in reversed(HARDY_SETTINGS)})
        assert list(a.per_setting) == list(HARDY_SETTINGS)
        assert all(type(s) is SettingPair for s in a.per_setting)
        assert a.per_setting == CONTEXTUAL_EXAMPLE.per_setting
        assert reveal(a, ("2", "2")) is JointOutcome.RR


# ===========================================================================
# contextuality
# ===========================================================================

class TestIsNoncontextual:
    def test_contextual_example_is_detected(self):
        assert is_noncontextual(CONTEXTUAL_EXAMPLE) is False

    def test_factorizable_assignment_passes(self):
        # left: 1->R, 2->G; right: 1->G, 2->R
        quad = (JointOutcome.RG, JointOutcome.RR, JointOutcome.GG, JointOutcome.GR)
        assert is_noncontextual(assignment_from(quad)) is True

    def test_matches_per_side_function_enumeration(self):
        """Agrees with brute force over all 16 per-side function pairs."""
        factorizable = set()
        for l1, l2, r1, r2 in product(Outcome, repeat=4):
            quad = tuple(JointOutcome.from_outcomes(l, r)
                         for l, r in ((l1, r1), (l1, r2), (l2, r1), (l2, r2)))
            factorizable.add(quad)
        assert len(factorizable) == 16
        for quad in product(JOINT_OUTCOMES, repeat=4):
            expected = quad in factorizable
            assert is_noncontextual(assignment_from(quad)) is expected

    def test_single_setting_is_trivially_noncontextual(self):
        a = ContextAssignment({SettingPair("1", "1"): JointOutcome.GG})
        assert is_noncontextual(a) is True


class TestAssignmentSerialization:
    def test_empty_assignment_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ContextAssignment({})

    def test_value_that_is_not_an_outcome_is_named(self):
        with pytest.raises(ValueError, match=re.escape("unknown outcomes ['RR']")):
            ContextAssignment({("1", "1"): "RR"})
