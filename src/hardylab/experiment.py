"""Monte Carlo measurement runs and frequency-vs-prediction comparison.

Trials are split into shards of ExperimentConfig.shard_size (65 536) trials;
the size is fixed, as it is part of the output stream. Shard k draws from
its own PCG64 generator seeded by SeedSequence(seed, spawn_key=(k,)), the
k-th child that SeedSequence(seed).spawn() gives, built only when the shard
runs. Every run samples its shards on a thread pool, one worker included,
and concatenates the results in shard order. Output therefore depends only
on (config, behavior), never on how many workers executed the shards.

Per-shard draw order is fixed: left settings, right settings, then outcome
uniforms (one per trial in quantum mode; one per trial and setting, in
canonical setting order, in realist mode). Realist mode draws that whole
block and reads only each trial's revealed entry.
"""
from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Mapping

import numpy as np

from .qstate import JOINT_OUTCOMES, Behavior, JointOutcome, SettingPair, setting_rows

MODELS = ("quantum", "realist")
Z_LIMIT = 5.0  # per-cell score bound used by the pass verdict
SETTING_LAW = (0.5, 0.5)  # each side's probability of picking its first label

# 1 - 1e-6 quantiles of the chi-square distribution by degrees of freedom,
# frozen from scipy.stats.chi2.ppf(1 - 1e-6, df) and cross-checked in tests.
CHI2_LIMIT_1E6: dict[int, float] = {
    1: 23.92812697687947,
    2: 27.631021115871036,
    3: 30.66484970615427,
    4: 33.37684158165888,
    5: 35.88818687961042,
    6: 38.25833637714585,
    7: 40.52183123411472,
    8: 42.70091392647789,
    9: 44.81093787062026,
    10: 46.86304684671568,
    11: 48.86564276313385,
    12: 50.82525213880362,
    13: 52.74706811413117,
    14: 54.63530552996598,
    15: 56.49344249969959,
    16: 58.32439001431418,
}


# ===========================================================================
# configuration and results
# ===========================================================================

@dataclass(frozen=True)
class ExperimentConfig:
    """Run parameters; each side picks its first label with probability 1/2."""

    trials: int
    seed: int
    model: str = "realist"
    shard_size: ClassVar[int] = 1 << 16  # trials per shard; part of the output stream

    def __post_init__(self) -> None:
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Integer outcome counts per setting; a setting or cell it does not hold counts as zero."""

    counts: Mapping[SettingPair, Mapping[JointOutcome, int]]

    def __post_init__(self) -> None:
        clean: dict[SettingPair, dict[JointOutcome, int]] = {}
        for setting, row in setting_rows(self.counts):
            unknown = [c for c in row if c not in JOINT_OUTCOMES]
            if unknown:
                raise ValueError(f"setting {setting} has unknown cells {unknown}")
            out_row = {}
            for cell in JOINT_OUTCOMES:
                n = row.get(cell, 0)
                if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
                    raise ValueError(
                        f"count for {setting.key}:{cell.value} must be a "
                        f"nonnegative integer, got {n!r}")
                out_row[cell] = int(n)
            clean[setting] = out_row
        object.__setattr__(self, "counts", clean)

    @property
    def settings(self) -> tuple[SettingPair, ...]:
        return tuple(self.counts)

    @property
    def trials(self) -> int:
        return sum(sum(row.values()) for row in self.counts.values())

    def setting_total(self, setting: SettingPair) -> int:
        return sum(self.counts.get(setting, {}).values())

    def count(self, setting: SettingPair, cell: JointOutcome) -> int:
        return self.counts.get(setting, {}).get(cell, 0)


# ===========================================================================
# running trials
# ===========================================================================

def _row_boundaries(behavior: Behavior) -> np.ndarray:
    """Cumulative row boundaries, one row per canonical setting.

    Rows are renormalized so the last boundary is exactly 1.0; structural
    zeros keep zero width, so they can never be hit by a uniform draw.
    """
    cum = np.cumsum(np.reshape([p for _, _, p in behavior.cells()], (-1, 4)), axis=1)
    cum /= cum[:, -1:]
    cum[:, -1] = 1.0
    return cum


def sample_assignments(behavior: Behavior, rng: np.random.Generator,
                       n: int) -> np.ndarray:
    """n pre-existing assignments, one outcome index per setting.

    Returns an (n, settings) uint8 array: entry [i, k] is the index into
    JOINT_OUTCOMES of the outcome that assignment i holds for
    behavior.settings[k]. The n * settings uniforms are drawn in C order and
    each index is counted against the row boundaries as in _run_shard, so a
    realist-mode trial reveals one entry of such an assignment.
    """
    u = rng.random((n, len(behavior.settings)))
    idx = np.zeros(u.shape, dtype=np.uint8)
    for column in _row_boundaries(behavior).T[:3]:
        idx += (u >= column).view(np.uint8)
    return idx


def _run_shard(seed_seq: np.random.SeedSequence, size: int,
               config: ExperimentConfig, boundaries: np.ndarray) -> np.ndarray:
    """One shard's trials as outcome codes, setting index * 4 + outcome index.

    Realist mode draws the full (size, 4) assignment block in C order and
    reads only each trial's revealed entry. The outcome index is the number
    of the chosen row's first three boundaries at or below the uniform,
    which is searchsorted(row, u, side="right") since the row ends in 1.0.
    Every gather is a take() with an intp index, since indexing with the
    uint8 setting index converts it on each gather. The intp row index is
    built only after the realist block is freed: alive beside the block, it
    lifts a shard's peak heap past glibc malloc's trim threshold, and each
    realist shard would then fault its pages in afresh.
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    left = (rng.random(size) >= SETTING_LAW[0]).view(np.uint8)
    right = (rng.random(size) >= SETTING_LAW[1]).view(np.uint8)
    setting_idx = 2 * left + right
    if config.model == "quantum":
        u = rng.random(size)
    else:  # realist: a full assignment per trial, reveal the chosen setting
        u = rng.random(4 * size).take(np.arange(0, 4 * size, 4) + setting_idx)
    rows = setting_idx.astype(np.intp)
    codes = 4 * setting_idx
    for column in boundaries.T[:3]:
        codes += (u >= column.take(rows)).view(np.uint8)
    return codes


def shard_codes(config: ExperimentConfig, behavior: Behavior, *,
                workers: int = 1) -> Iterator[np.ndarray]:
    """Each shard's outcome codes, in shard order.

    Code k is the k-th cell of behavior.cells(). The shards always run on a
    pool of min(workers, shards, CPUs) threads, never on the caller's, with
    at most twice that many in flight: the caller consumes one shard while
    the next ones are sampled, and memory is bounded by shard size and CPU
    count, never by the trial count.
    """
    if not behavior.is_full_grid():
        raise ValueError("experiment needs a behavior over a full 2x2 setting grid")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")

    boundaries = _row_boundaries(behavior)
    n_shards = -(-config.trials // config.shard_size)

    def shard(k: int) -> np.ndarray:
        size = min(config.shard_size, config.trials - k * config.shard_size)
        seed = np.random.SeedSequence(config.seed, spawn_key=(k,))
        return _run_shard(seed, size, config, boundaries)

    return _bounded_map(shard, n_shards, min(workers, n_shards, os.cpu_count() or 1))


def _bounded_map(fn: Callable[[int], np.ndarray], n: int,
                 workers: int) -> Iterator[np.ndarray]:
    """fn(0), ..., fn(n - 1) in order, with at most 2 * workers calls ahead."""
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending: deque[Future[np.ndarray]] = deque()
        for k in range(n):
            pending.append(pool.submit(fn, k))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def code_table(behavior: Behavior, counts: np.ndarray) -> FrequencyTable:
    """The frequency table of per-code counts, code k being behavior.cells()'s k-th."""
    table: dict[SettingPair, dict[JointOutcome, int]] = {}
    for (setting, cell, _), n in zip(behavior.cells(), counts.tolist()):
        table.setdefault(setting, {})[cell] = n
    return FrequencyTable(table)


def run_experiment(config: ExperimentConfig, behavior: Behavior, *,
                   workers: int = 1, collect_trials: bool = False,
                   ) -> tuple[FrequencyTable, np.ndarray | None]:
    """Run seeded trials against a behavior's rows.

    Each trial picks each side's label uniformly at random, then either
    draws the joint outcome from that setting's row (quantum) or draws a
    fresh full assignment and reveals the chosen setting (realist). Returns
    the counts and, when collect_trials is set, the run's outcome codes: one
    uint8 array in trial order, the shards of shard_codes concatenated. The
    trial index is the position, and code k decodes as the k-th triple of
    behavior.cells(): setting, cell, _ = list(behavior.cells())[k].
    """
    shards = shard_codes(config, behavior, workers=workers)  # validates the grid
    codes = np.concatenate(list(shards)) if collect_trials else None
    total = np.zeros(16, dtype=np.int64)
    for shard in shards if codes is None else [codes]:
        total += np.bincount(shard, minlength=16)
    return code_table(behavior, total), codes


# ===========================================================================
# frequency-vs-prediction comparison
# ===========================================================================

@dataclass(frozen=True)
class CellComparison:
    """One cell's expected probability against its observed frequency."""

    setting: SettingPair
    cell: JointOutcome
    expected: float
    count: int
    frequency: float
    z: float | None  # None for structural cells (p = 0 or p = 1)
    ok: bool


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    cells: tuple[CellComparison, ...]
    chi_square: float
    dof: int
    chi_square_limit: float
    max_abs_z: float
    empty_settings: tuple[SettingPair, ...]
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "max_abs_z": self.max_abs_z,
            "z_limit": Z_LIMIT,
            "chi_square": self.chi_square,
            "dof": self.dof,
            "chi_square_limit": self.chi_square_limit,
            "empty_settings": [s.key for s in self.empty_settings],
            "cells": [
                {
                    "setting": c.setting.key,
                    "outcome": c.cell.value,
                    "expected": c.expected,
                    "count": c.count,
                    "frequency": c.frequency,
                    "z": c.z,
                    "ok": c.ok,
                }
                for c in self.cells
            ],
        }


def compare_tables(freq: FrequencyTable, behavior: Behavior) -> ComparisonReport:
    """Judge observed counts against a behavior's rows.

    Pass requires every regular cell's |z| at most Z_LIMIT, exact counts on
    every structural cell (a p = 0 cell can never occur, so one hit fails the
    run outright; a p = 1 cell takes every trial), and a total chi-square at
    most the 1-1e-6 quantile for the summed degrees of freedom. Settings with
    no trials are excluded from all three checks and flagged.
    """
    extra = set(freq.settings) - set(behavior.settings)
    if extra:
        raise ValueError(
            f"counts mention settings absent from the behavior: "
            f"{sorted(s.key for s in extra)}")

    cells: list[CellComparison] = []
    empty: list[SettingPair] = []
    chi_square = 0.0
    dof = 0
    max_abs_z = 0.0

    for setting, row in behavior.table.items():
        total = freq.setting_total(setting)
        if total == 0:
            empty.append(setting)
            continue
        dof -= 1  # one degree per setting goes to its fixed total
        for cell, p in row.items():
            n = freq.count(setting, cell)
            f = n / total
            if 0.0 < p < 1.0:
                z = (f - p) * math.sqrt(total) / math.sqrt(p * (1.0 - p))
                max_abs_z = max(max_abs_z, abs(z))
                ok = abs(z) <= Z_LIMIT
            else:  # structural: p = 0 never occurs, p = 1 always does
                z = None
                ok = n == (total if p else 0)
            if p > 0.0:
                dof += 1
                chi_square += (n - total * p) ** 2 / (total * p)
            cells.append(CellComparison(setting, cell, p, n, f, z, ok))

    if dof and dof not in CHI2_LIMIT_1E6:
        raise ValueError(f"no chi-square limit frozen for dof {dof}")
    limit = CHI2_LIMIT_1E6.get(dof, 0.0)

    return ComparisonReport(
        cells=tuple(cells),
        chi_square=chi_square,
        dof=dof,
        chi_square_limit=limit,
        max_abs_z=max_abs_z,
        empty_settings=tuple(empty),
        passed=all(c.ok for c in cells) and chi_square <= limit,
    )
