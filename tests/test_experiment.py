"""Trial running: sharded determinism, counts, and the comparison verdict."""
from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from hardylab import experiment
from hardylab.experiment import (
    CHI2_LIMIT_1E6,
    ExperimentConfig,
    FrequencyTable,
    compare_tables,
    count_codes,
    run_experiment,
    sample_assignments,
    shard_codes,
)
from hardylab.qstate import (
    JOINT_OUTCOMES,
    Behavior,
    JointOutcome,
    Mixture,
    Outcome,
    ProductState,
    SettingPair,
    hardy_behavior,
    mixture_behavior,
    phi_plus,
    quantum_behavior,
    zx_change,
)

SPIN_SETTINGS = tuple(SettingPair(l, r) for l in "xz" for r in "xz")


def counts_of(freq: FrequencyTable) -> dict[str, dict[str, int]]:
    return {s.key: {c.value: freq.count(s, c) for c in JOINT_OUTCOMES}
            for s in freq.settings}


def exact_counts(behavior: Behavior, per_setting: int) -> FrequencyTable:
    """Counts exactly proportional to the rows (rows must be quarter-grained)."""
    table = {}
    for s in behavior.settings:
        row = behavior.table[s]
        table[s] = {c: round(row[c] * per_setting) for c in JOINT_OUTCOMES}
    return FrequencyTable(table)


# ===========================================================================
# configuration
# ===========================================================================

class TestExperimentConfig:
    @pytest.mark.parametrize("trials", [0, -5, 2.5, True])
    def test_rejects_bad_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(trials=trials, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(trials=10, seed=seed)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig(trials=10, seed=0, model="classical")

    def test_shard_size_is_fixed_not_an_option(self):
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "trials", "seed", "model"]
        assert ExperimentConfig(trials=1, seed=0).shard_size == 65536
        with pytest.raises(TypeError, match="shard_size"):
            ExperimentConfig(trials=10, seed=0, shard_size=512)


# ===========================================================================
# running trials
# ===========================================================================

class TestRunExperiment:
    def test_requires_full_grid(self):
        table = {SettingPair("1", "1"): {c: 0.25 for c in JOINT_OUTCOMES}}
        with pytest.raises(ValueError, match="2x2"):
            run_experiment(ExperimentConfig(trials=10, seed=0), Behavior(table))

    def test_total_counts_equal_trials(self):
        config = ExperimentConfig(trials=12345, seed=3)
        freq, _ = run_experiment(config, hardy_behavior())
        assert freq.trials == 12345

    @pytest.mark.parametrize("model", ["quantum", "realist"])
    def test_same_config_reproduces_counts(self, model):
        config = ExperimentConfig(trials=30000, seed=11, model=model)
        a, _ = run_experiment(config, hardy_behavior())
        b, _ = run_experiment(config, hardy_behavior())
        assert counts_of(a) == counts_of(b)

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_worker_count_is_invisible(self, workers, monkeypatch):
        """Counts and the trial log never depend on executor parallelism."""
        monkeypatch.setattr(ExperimentConfig, "shard_size", 4096)
        config = ExperimentConfig(trials=50000, seed=21)
        base, log_base = run_experiment(config, hardy_behavior(), collect_trials=True)
        multi, log_multi = run_experiment(config, hardy_behavior(),
                                          workers=workers, collect_trials=True)
        assert counts_of(base) == counts_of(multi)
        assert np.array_equal(log_base, log_multi)

    def test_different_seeds_differ(self):
        freq_a, _ = run_experiment(ExperimentConfig(trials=20000, seed=1),
                                   hardy_behavior())
        freq_b, _ = run_experiment(ExperimentConfig(trials=20000, seed=2),
                                   hardy_behavior())
        assert counts_of(freq_a) != counts_of(freq_b)

    def test_setting_totals_near_uniform_quarter(self):
        """Default law: each setting gets N/4 within 5 multinomial sigmas."""
        n = 100000
        freq, _ = run_experiment(ExperimentConfig(trials=n, seed=17),
                                 hardy_behavior())
        bound = 5 * np.sqrt(3 * n / 16)
        for s in freq.settings:
            assert abs(freq.setting_total(s) - n / 4) < bound

    def test_biased_setting_law(self, monkeypatch):
        n = 40000
        monkeypatch.setattr(experiment, "SETTING_LAW", (1.0, 0.0))
        config = ExperimentConfig(trials=n, seed=23)
        freq, _ = run_experiment(config, hardy_behavior())
        assert freq.setting_total(SettingPair("1", "2")) == n

    def test_structural_zeros_never_hit(self):
        for model in ("quantum", "realist"):
            config = ExperimentConfig(trials=200000, seed=29, model=model)
            freq, _ = run_experiment(config, hardy_behavior())
            assert freq.count(SettingPair("1", "1"), JointOutcome.RR) == 0
            assert freq.count(SettingPair("1", "2"), JointOutcome.GG) == 0
            assert freq.count(SettingPair("2", "1"), JointOutcome.GG) == 0

    def test_trial_log_indices_are_global_and_ordered(self, monkeypatch):
        monkeypatch.setattr(ExperimentConfig, "shard_size", 512)
        config = ExperimentConfig(trials=5000, seed=31)
        behavior = hardy_behavior()
        freq, codes = run_experiment(config, behavior, collect_trials=True)
        assert codes is not None and len(codes) == 5000
        cells = list(behavior.cells())
        tally = {s: {c: 0 for c in JOINT_OUTCOMES} for s in freq.settings}
        for code in codes.tolist():
            setting, cell, _ = cells[code]
            tally[setting][cell] += 1
        assert tally == dict(freq.counts)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("model", ["quantum", "realist"])
    def test_collected_codes_are_the_concatenated_shards(self, monkeypatch, model, workers):
        """collect_trials returns one uint8 code per trial, in shard order, that
        the returned counts tally; the last shard here is a partial one."""
        monkeypatch.setattr(ExperimentConfig, "shard_size", 512)
        config = ExperimentConfig(trials=5 * 512 + 77, seed=41, model=model)
        behavior = hardy_behavior()
        freq, codes = run_experiment(config, behavior, workers=workers, collect_trials=True)
        assert codes.dtype == np.uint8 and len(codes) == config.trials
        assert np.array_equal(codes, np.concatenate(list(shard_codes(config, behavior))))
        assert np.array_equal(np.bincount(codes, minlength=16),
                              [n for row in freq.counts.values() for n in row.values()])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shards_run_at_most_two_per_worker_ahead(self, monkeypatch, workers):
        """A slow consumer never has more than 2 * workers shards sampled ahead.

        Shards run on pool threads even for one worker, never on the caller's.
        """
        produced = []
        real = experiment._run_shard

        def counting(*args):
            produced.append(threading.current_thread())  # atomic across threads
            return real(*args)

        monkeypatch.setattr(experiment, "_run_shard", counting)
        monkeypatch.setattr(ExperimentConfig, "shard_size", 64)
        config = ExperimentConfig(trials=64 * 40, seed=5)
        ahead = []
        for consumed, codes in enumerate(
                shard_codes(config, hardy_behavior(), workers=workers), start=1):
            assert len(codes) == 64
            time.sleep(0.005)  # let the workers run as far ahead as they may
            ahead.append(len(produced) - consumed)
        assert len(ahead) == 40
        assert 0 <= min(ahead) and max(ahead) <= 2 * workers
        assert threading.main_thread() not in produced

    @pytest.mark.parametrize("cpus, shards, pool", [(4, 10, 4), (4, 3, 3), (None, 10, 1)])
    def test_pool_bounded_by_cpus_and_shards(self, monkeypatch, cpus, shards, pool):
        """A huge worker count asks for no more threads than CPUs or shards.

        The pool is a synchronous stand-in, so no thread is started.
        """
        sizes, produced = [], []

        class SyncPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                produced.append(True)
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(experiment, "ThreadPoolExecutor", SyncPool)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(ExperimentConfig, "shard_size", 64)
        config = ExperimentConfig(trials=64 * shards, seed=5)
        got = []
        for consumed, codes in enumerate(
                shard_codes(config, hardy_behavior(), workers=10 ** 6), start=1):
            assert len(produced) - consumed <= 2 * pool
            got.append(codes)
        assert sizes == [pool]
        expected = list(shard_codes(config, hardy_behavior()))
        assert len(got) == shards
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize("trials", [2 ** 53 + 1, 2 ** 60 + 5])
    def test_shard_count_is_exact_past_float_precision(self, monkeypatch, trials):
        """Past 2**53 trials the short last shard is still counted and sampled."""
        calls = []

        def capture(fn, n, workers):
            calls.append((fn, n))
            return iter(())

        monkeypatch.setattr(experiment, "_bounded_map", capture)
        shard_codes(ExperimentConfig(trials=trials, seed=5), hardy_behavior())
        [(fn, n)] = calls
        assert n == trials // ExperimentConfig.shard_size + 1
        assert len(fn(n - 1)) == trials % ExperimentConfig.shard_size

    def test_log_omitted_unless_requested(self):
        _, records = run_experiment(ExperimentConfig(trials=100, seed=1),
                                    hardy_behavior())
        assert records is None

    @pytest.mark.parametrize("model", ["quantum", "realist"])
    def test_both_models_pass_comparison(self, model):
        """Either sampling mode reproduces the predicted rows statistically."""
        config = ExperimentConfig(trials=200000, seed=37, model=model)
        freq, _ = run_experiment(config, hardy_behavior())
        assert compare_tables(freq, hardy_behavior()).passed


# ===========================================================================
# shard kernel
# ===========================================================================

def shard_seed(seed: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(k,))


def reference_bounds(behavior: Behavior) -> list[list[float]]:
    """Each row's renormalized cumulative boundaries, ending in exactly 1.0."""
    bounds = []
    for row in behavior.table.values():
        cum = list(itertools.accumulate(row[c] for c in JOINT_OUTCOMES))
        cum = [c / cum[-1] for c in cum]
        cum[-1] = 1.0
        bounds.append(cum)
    return bounds


def reference_codes(config: ExperimentConfig, behavior: Behavior, k: int) -> list[int]:
    """Shard k's codes one trial at a time, from the documented draw order."""
    bounds = reference_bounds(behavior)
    law = experiment.SETTING_LAW
    size = min(config.shard_size, config.trials - k * config.shard_size)
    rng = np.random.Generator(np.random.PCG64(shard_seed(config.seed, k)))
    left = rng.random(size).tolist()
    right = rng.random(size).tolist()
    if config.model == "quantum":
        draws = rng.random(size).tolist()
    else:
        draws = rng.random((size, 4)).tolist()
    codes = []
    for i in range(size):
        s = 2 * (left[i] >= law[0]) + (right[i] >= law[1])
        u = draws[i] if config.model == "quantum" else draws[i][s]
        codes.append(4 * s + bisect.bisect_right(bounds[s], u))
    return codes


def rows_with_zeros(zeros: tuple[int, ...], seed: int) -> Behavior:
    """Seeded random rows; row r has zero-width cells at (z + r) % 4."""
    rng = np.random.default_rng(seed)
    table = {}
    for r, setting in enumerate(SettingPair(a, b) for a in "12" for b in "12"):
        p = rng.dirichlet(np.ones(4))
        p[[(z + r) % 4 for z in zeros]] = 0.0
        table[setting] = dict(zip(JOINT_OUTCOMES, (p / p.sum()).tolist()))
    return Behavior(table)


KERNEL_BEHAVIORS = {
    "hardy": hardy_behavior(),
    "no-zeros": rows_with_zeros((), 51),
    "one-zero": rows_with_zeros((0,), 52),
    "two-zeros": rows_with_zeros((0, 1), 53),
    "certain": rows_with_zeros((0, 1, 2), 54),
}
ONE_SETTING = Behavior({SettingPair("1", "1"): dict(zip(JOINT_OUTCOMES, (0.5, 0.0, 0.2, 0.3)))})


def same_rows(cells: tuple[float, ...]) -> Behavior:
    return Behavior({SettingPair(a, b): dict(zip(JOINT_OUTCOMES, cells))
                     for a in "12" for b in "12"})


class FixedUniforms:
    """Stands in for a Generator whose random(shape) returns given values."""

    def __init__(self, values: list[list[float]]):
        self.values = np.array(values)

    def random(self, shape):
        assert shape == self.values.shape
        return self.values.copy()


class TestShardKernel:
    @pytest.mark.parametrize("k", [0, 1, 5, 63])
    def test_keyed_seed_equals_spawned_child(self, k):
        seed = 2 ** 64 - 7
        spawned = np.random.SeedSequence(seed).spawn(64)[k]
        a = np.random.Generator(np.random.PCG64(spawned)).random(16)
        b = np.random.Generator(np.random.PCG64(shard_seed(seed, k))).random(16)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", ["quantum", "realist"])
    @pytest.mark.parametrize("size", [1, 7, 65537])
    @pytest.mark.parametrize("law", [(0.0, 1.0), (1.0, 0.0), (0.3, 0.8)])
    @pytest.mark.parametrize("name", list(KERNEL_BEHAVIORS))
    def test_codes_match_per_trial_reference(self, name, law, size, model, monkeypatch):
        behavior = KERNEL_BEHAVIORS[name]
        monkeypatch.setattr(experiment, "SETTING_LAW", law)
        monkeypatch.setattr(ExperimentConfig, "shard_size", size)
        trials = 2 * size + 3 if size < 100 else size + 3  # ends in a partial shard
        config = ExperimentConfig(trials=trials, seed=9001 + size, model=model)
        shards = list(shard_codes(config, behavior))
        assert len(shards) == -(-trials // size)
        for k, codes in enumerate(shards):
            assert codes.dtype == np.uint8
            assert codes.tolist() == reference_codes(config, behavior, k)
            if model == "realist":  # the revealed entry of the batch sampler's assignment
                rng = np.random.Generator(np.random.PCG64(shard_seed(config.seed, k)))
                left = rng.random(len(codes)) >= law[0]
                right = rng.random(len(codes)) >= law[1]
                setting_idx = 2 * left + right
                assignments = sample_assignments(behavior, rng, len(codes))
                revealed = assignments[np.arange(len(codes)), setting_idx]
                assert np.array_equal(revealed, codes % 4)

    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("name", [*KERNEL_BEHAVIORS, "one-setting"])
    def test_assignments_match_per_entry_reference(self, name, n):
        behavior = KERNEL_BEHAVIORS.get(name, ONE_SETTING)
        assignments = sample_assignments(behavior, np.random.default_rng(77), n)
        draws = np.random.default_rng(77).random((n, len(behavior.settings))).tolist()
        bounds = reference_bounds(behavior)
        assert assignments.dtype == np.uint8
        assert assignments.shape == (n, len(behavior.settings))
        assert assignments.tolist() == [[bisect.bisect_right(b, u) for b, u in zip(bounds, row)]
                                        for row in draws]

    @pytest.mark.parametrize("cells, draws, expected", [
        ((0.25,) * 4, [0.25, 0.5, 0.75], [1, 2, 3]),
        ((0.0, 0.5, 0.25, 0.25), [0.0], [1]),  # a zero-width cell is never chosen
    ])
    def test_draw_on_a_boundary_takes_the_next_cell(self, cells, draws, expected):
        """A uniform equal to a boundary counts it as passed, as bisect_right does."""
        rng = FixedUniforms([[u] * 4 for u in draws])
        assignments = sample_assignments(same_rows(cells), rng, len(draws))
        assert assignments.tolist() == [[k] * 4 for k in expected]

    @pytest.mark.parametrize(("model", "seed"), [
        *(("quantum", seed) for seed in (0, 9, 11, 32)),
        *(("realist", seed) for seed in (2, 9, 12, 27))])  # settings 2, 0, 3, 1
    def test_shard_draw_on_a_boundary_takes_the_next_cell(self, model, seed):
        """The shard kernel counts a boundary equal to the uniform as passed.

        The first trial's setting s and uniform u come from the documented
        draw order; setting s gets the row (u, 0, 0, 1 - u), whose first three
        boundaries all equal u, so the trial lands in the last cell.
        """
        rng = np.random.Generator(np.random.PCG64(shard_seed(seed, 0)))
        left, right = rng.random(2) >= experiment.SETTING_LAW
        s = 2 * int(left) + int(right)
        u = float(rng.random() if model == "quantum" else rng.random(4)[s])
        assert u >= 0.5  # so 1 - u is exact and u + (1 - u) is exactly 1
        settings = [SettingPair(a, b) for a in "12" for b in "12"]
        rows = {setting: dict(zip(JOINT_OUTCOMES, (0.25,) * 4)) for setting in settings}
        rows[settings[s]] = dict(zip(JOINT_OUTCOMES, (u, 0.0, 0.0, 1.0 - u)))
        config = ExperimentConfig(trials=1, seed=seed, model=model)
        assert next(iter(shard_codes(config, Behavior(rows)))).tolist() == [4 * s + 3]

    def test_first_shard_of_huge_run_allocates_only_a_shard(self):
        """Shard seeds are built as shards run, not all before the first."""
        config = ExperimentConfig(trials=65536 * 200_000, seed=3)
        behavior = hardy_behavior()
        tracemalloc.start()
        try:
            codes = next(iter(shard_codes(config, behavior)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(codes) == 65536
        assert peak < 8 * 2 ** 20


# ===========================================================================
# frequency tables
# ===========================================================================

class TestFrequencyTable:
    def test_missing_cells_count_zero(self):
        freq = FrequencyTable({SettingPair("1", "1"): {JointOutcome.RR: 5}})
        assert freq.count(SettingPair("1", "1"), JointOutcome.GG) == 0
        assert freq.setting_total(SettingPair("1", "1")) == 5

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FrequencyTable({SettingPair("1", "1"): {JointOutcome.RR: -1}})

    def test_rejects_unknown_cells(self):
        with pytest.raises(ValueError, match=r"unknown cells \['RG'\]"):
            FrequencyTable({SettingPair("1", "1"): {"RG": 5, JointOutcome.GG: 2}})

    @pytest.mark.parametrize("flag", [True, np.True_, False])
    def test_rejects_boolean_counts(self, flag):
        with pytest.raises(ValueError, match="nonnegative integer"):
            FrequencyTable({SettingPair("1", "1"): {JointOutcome.RR: flag}})

    def test_plain_tuple_keys_become_setting_pairs(self):
        freq = FrequencyTable({("2", "1"): {JointOutcome.GG: 2}, ("1", "1"): {JointOutcome.RR: 5}})
        assert freq.settings == (SettingPair("1", "1"), SettingPair("2", "1"))
        assert all(type(s) is SettingPair for s in freq.settings)
        assert freq.count(("1", "1"), JointOutcome.RR) == 5
        assert freq.setting_total(SettingPair("2", "1")) == 2

    def test_code_table_reads_codes_in_cell_order(self):
        """Code k counts the k-th (setting, cell) of Behavior.cells()."""
        behavior = quantum_behavior(phi_plus(), zx_change())
        codes = np.repeat(np.arange(16), 3 * np.arange(16))
        freq = count_codes(behavior, np.array_split(codes, 2))  # summed across shards
        cells = [(s, c) for s in SPIN_SETTINGS for c in JOINT_OUTCOMES]
        assert [freq.count(s, c) for s, c in cells] == [3 * k for k in range(16)]
        assert all(type(freq.count(s, c)) is int for s, c in cells)


# ===========================================================================
# comparison verdicts
# ===========================================================================

class TestCompareTables:
    def test_exact_proportions_pass_with_zero_scores(self):
        freq = exact_counts(hardy_behavior(), 40000)
        report = compare_tables(freq, hardy_behavior())
        assert report.passed
        assert report.max_abs_z == pytest.approx(0.0, abs=1e-9)
        assert report.chi_square == pytest.approx(0.0, abs=1e-9)
        assert report.dof == 9  # three 3-cell rows and one 4-cell row

    def test_inflated_cell_fails_z_check(self):
        freq = exact_counts(hardy_behavior(), 40000)
        table = {s: dict(row) for s, row in freq.counts.items()}
        row = table[SettingPair("2", "2")]
        row[JointOutcome.GG] += 2000
        row[JointOutcome.RR] -= 2000
        report = compare_tables(FrequencyTable(table), hardy_behavior())
        assert not report.passed
        assert report.max_abs_z > 5

    def test_single_hit_on_structural_zero_fails(self):
        freq = exact_counts(hardy_behavior(), 40000)
        table = {s: dict(row) for s, row in freq.counts.items()}
        row = table[SettingPair("1", "1")]
        row[JointOutcome.RR] += 1
        row[JointOutcome.RG] -= 1
        report = compare_tables(FrequencyTable(table), hardy_behavior())
        assert not report.passed
        bad = [c for c in report.cells
               if c.setting == SettingPair("1", "1") and c.cell is JointOutcome.RR]
        assert bad[0].z is None and not bad[0].ok

    def test_stray_count_on_certain_cell_fails(self):
        """A p = 1 cell with one trial elsewhere fails, and has no score."""
        certain = {c: float(c is JointOutcome.RG) for c in JOINT_OUTCOMES}
        behavior = Behavior({SettingPair("1", "1"): certain})
        freq = FrequencyTable({SettingPair("1", "1"): {JointOutcome.RG: 99,
                                                       JointOutcome.GG: 1}})
        report = compare_tables(freq, behavior)
        assert not report.passed
        rg = [c for c in report.cells if c.cell is JointOutcome.RG][0]
        assert rg.z is None and not rg.ok

    def test_deterministic_rows_have_no_degrees_of_freedom(self):
        """Rows of one certain cell each give dof 0, limit 0.0; exact counts pass."""
        table = {SettingPair(l, r): {c: float(c is cell) for c in JOINT_OUTCOMES}
                 for (l, r), cell in zip(itertools.product("12", "12"), JOINT_OUTCOMES)}
        behavior = Behavior(table)
        freq = FrequencyTable({s: {c: round(p * 250) for c, p in row.items()}
                               for s, row in behavior.table.items()})
        report = compare_tables(freq, behavior)
        assert (report.dof, report.chi_square_limit, report.chi_square) == (0, 0.0, 0.0)
        assert all(c.z is None and c.ok for c in report.cells)
        assert report.passed

    def test_chi_square_alone_can_fail(self):
        """Every |z| within Z_LIMIT, yet the summed chi-square is past its limit.

        Each Hardy row at 40 000 trials moves 3.5 sigma of its first regular
        cell's counts out of its second regular cell.
        """
        behavior = hardy_behavior()
        table = {}
        for s, row in exact_counts(behavior, 40000).counts.items():
            p = behavior.table[s]
            first, second = [c for c in JOINT_OUTCOMES if 0.0 < p[c] < 1.0][:2]
            shift = math.floor(3.5 * math.sqrt(40000 * p[first] * (1.0 - p[first])))
            table[s] = {**row, first: row[first] + shift, second: row[second] - shift}
        report = compare_tables(FrequencyTable(table), behavior)
        assert all(c.ok for c in report.cells)
        assert report.max_abs_z == pytest.approx(4.92, abs=0.005)
        assert report.chi_square == pytest.approx(70.6, abs=0.05)
        assert report.chi_square_limit == CHI2_LIMIT_1E6[9]
        assert not report.passed

    def test_dof_past_frozen_limits_is_an_error(self):
        """Seven settings of four nonzero cells each need a dof 21 limit."""
        uniform = {c: 0.25 for c in JOINT_OUTCOMES}
        settings = [SettingPair(str(k), "1") for k in range(1, 8)]
        freq = FrequencyTable({s: {c: 10 for c in JOINT_OUTCOMES} for s in settings})
        with pytest.raises(ValueError, match="no chi-square limit frozen for dof 21"):
            compare_tables(freq, Behavior({s: uniform for s in settings}))

    def test_empty_setting_is_flagged_not_failed(self):
        freq = exact_counts(hardy_behavior(), 40000)
        table = {s: dict(row) for s, row in freq.counts.items()}
        table[SettingPair("2", "2")] = {c: 0 for c in JOINT_OUTCOMES}
        report = compare_tables(FrequencyTable(table), hardy_behavior())
        assert report.empty_settings == (SettingPair("2", "2"),)
        assert report.passed
        assert report.dof == 6  # the empty setting no longer contributes

    def test_unknown_setting_in_counts_is_an_error(self):
        freq = FrequencyTable({SettingPair("9", "9"): {JointOutcome.RR: 1}})
        with pytest.raises(ValueError, match="absent"):
            compare_tables(freq, hardy_behavior())

    def test_report_serializes(self):
        freq = exact_counts(hardy_behavior(), 4000)
        data = compare_tables(freq, hardy_behavior()).to_jsonable()
        assert data["passed"] is True
        assert len(data["cells"]) == 16
        assert data["cells"][0]["setting"] == "11"

    def test_frozen_chi_square_limits_match_scipy(self):
        from scipy.stats import chi2
        for dof, limit in CHI2_LIMIT_1E6.items():
            assert limit == pytest.approx(chi2.ppf(1 - 1e-6, dof), rel=1e-12)

    def test_mixture_masquerading_as_entangled_fails(self):
        """Sampling the entangled rows refutes the product-mixture table."""
        entangled = quantum_behavior(phi_plus(), zx_change())
        mixture = Mixture((
            (0.5, ProductState("z", "z", Outcome.R, Outcome.R)),
            (0.5, ProductState("z", "z", Outcome.G, Outcome.G)),
        ))
        mixed = mixture_behavior(mixture, SPIN_SETTINGS, [zx_change()])
        config = ExperimentConfig(trials=100000, seed=41, model="quantum")
        freq, _ = run_experiment(config, entangled)
        assert compare_tables(freq, entangled).passed
        assert not compare_tables(freq, mixed).passed
