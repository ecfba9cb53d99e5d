"""Pinned output bytes of `simulate`: the --log CSV and the JSON stdout.

The digests were recorded from the per-trial csv.writer log before it was
streamed shard by shard; any change to the sampler's draw order, the shard
seeding or the log format moves them.
"""
from __future__ import annotations

import csv
import hashlib
import io

import numpy as np
import pytest

from hardylab.cli import _log_rows, _write_trial_log, main
from hardylab.experiment import ExperimentConfig, run_experiment
from hardylab.qstate import JOINT_OUTCOMES, Behavior, SettingPair, hardy_behavior

SEEDS = (7, 12345678901234567890)
TRIALS = (1, 65535, 65536, 65537)  # below, at and past the default shard size

# (model, seed, trials) -> (sha256 of the --log CSV, sha256 of --format json stdout)
DIGESTS = {
    ("quantum", 7, 1): (
        "0b4eca8bc6b3dbc6b025ffe1e52758081d6bc44ba66d1821725b40ab4aad8edd",
        "1414866af916df60deecd0b833d80a354bacc5d04ecb1a9b9dc49b4c94e70e08"),
    ("quantum", 7, 65535): (
        "02296f4606247f52526770056578ecc552bcfa64baa1426281ad16a904a9b824",
        "52c53bba3da58f38650a200a8f9a8e330a9bcb0c010173a70cfa20edd9a9c594"),
    ("quantum", 7, 65536): (
        "a215a37f3c13390ea13ed02ca278154b65d5a4b96ad8f23867a7ad1c0dee3627",
        "ef88fd1fb84ed4005c68d27dadf12b381f76cbb992b8dc8f3096a68ecea18a44"),
    ("quantum", 7, 65537): (
        "6b75a8640d8563251022eb173563e1208ff7bfe581bcaf921c1d0e53c20c91f0",
        "25b3fa3c4403cf4954afa573764b684ae5165d447278cac0cbef67d8b5fcabff"),
    ("quantum", 12345678901234567890, 1): (
        "191bdcc387fbef159e705afc8d3b8d7fc9183af086872f64371a0bb389b14935",
        "94cb6d4421ddfc671df8036693a925b7a49ea1ac89c3f2892b59f20ee6d13c56"),
    ("quantum", 12345678901234567890, 65535): (
        "ac6cde2a1350016d5948c8c57668a11f20863d2d7bc7ae0cc418bdfdac95cc6c",
        "c117b432be8d2b3dcbe9b8d0e61c05cc167cd58765c876a4e295da91ed8d7dc8"),
    ("quantum", 12345678901234567890, 65536): (
        "90d7b2c65ac5eeb4ccbe51d705779053d7ef0f74db9486b816295c75f3cb69ce",
        "96f5a2812006a8c8d2c57c37f95e165615738a0803d0a2b3a22ee9349796d310"),
    ("quantum", 12345678901234567890, 65537): (
        "31ec544bbe766de4dfdb389904a60d2ee84e0faa976e7657f0eace825ee17a39",
        "7122f76ede66763a95e2f8089734b7e92cfd5eaad8602ab34735ffca0bf461a8"),
    ("realist", 7, 1): (
        "0b4eca8bc6b3dbc6b025ffe1e52758081d6bc44ba66d1821725b40ab4aad8edd",
        "71fd8063f10a4a0657e90796cf4197f71da83b5893b75641f6410748eb9a2abd"),
    ("realist", 7, 65535): (
        "5cb88f9ac7c9fdcdda02f802dbf3b4771e8fdc46f62a60d27260b2304ada48aa",
        "54f66b684ed3235f6ba9b1f14ea20474beabfbd1fab84d9759515045015150ec"),
    ("realist", 7, 65536): (
        "a131071dbeec54c57d7e33e51d4b94d4179a39bfa8b1bfe4edfd0e852cc08bd9",
        "abc1c67e6b7ea7e0422c854991978e094bdcd3725fdf439190e96b77de8c35c9"),
    ("realist", 7, 65537): (
        "436b6761b772b23611caa4bb1c3d7388f3c20607d28c15e78261c826d7229d33",
        "abc1fc0e7e297620ced38b276c38a6744ac4f5484cae653fd0d1bc10d98145c8"),
    ("realist", 12345678901234567890, 1): (
        "191bdcc387fbef159e705afc8d3b8d7fc9183af086872f64371a0bb389b14935",
        "7d73c2412cd7436da4aa7d3401faed3ceac12af524b983a08806ba829f184aee"),
    ("realist", 12345678901234567890, 65535): (
        "539d4eafeefbf27641971ca3c673d0c0bbaa2eb99f193422eb56fff6facbf0d3",
        "6409b04ac13896918316f5f0dc4c868931972cb2eb3d3d98bb9a0a3acabc1681"),
    ("realist", 12345678901234567890, 65536): (
        "41ae937c3c6bc501a95953078d1a60222d58494c6d8125006951173df5d1dcab",
        "38727bb4934d2a376285da6aaf1cf591c4467bae300e9509bf3ff6cc8e0f446a"),
    ("realist", 12345678901234567890, 65537): (
        "65510e5bf8805dc8887624d54ab9c6de05b683bab958b2af3b827013f718c27f",
        "a13e2c29787ebff6d57d0919f73ef17335613f407943b582d51042dda0a74005"),
}

# (model, trials) -> (sha256 of the --log CSV, sha256 of --format json stdout),
# seed 7, recorded from the string-building log writer before the rows were
# built in numpy. The trial index crosses 10**5 inside shard 1 and 10**6
# inside shard 15, so a row's width changes within a shard.
WIDE_DIGESTS = {
    ("quantum", 100001): (
        "7d620b978b973c63c59f26a11cbdaf5bf805046ef1becc25412deaaf5194ea33",
        "4d00536c349aeae0caf0186a4d730c44cce0f6d6834f4c3216bfbf77e5c0e492"),
    ("quantum", 1000001): (
        "77027c210e6f9fde59d798a6c1961773f5625122479330b4c057e4ad668ffa87",
        "9955f2656ed580429fdebb66a7fff2301e28ab7256c76d536b54b70ccedcafb3"),
    ("realist", 100001): (
        "ea12fd543d86d5dea556bd26d5f93feeecad41c42682baeacca11b008bb512ad",
        "bee49fbed1d0b01684bf26315e957a187302a015a42f4291d3c13e61c475d17c"),
    ("realist", 1000001): (
        "2e8eca2a0ffe7c8d68a37f3a7227b8bfd239f9cb4f1a9cddaea053cc51082e68",
        "78b09221424024feb1c012d67328b7d3376ac087e896d99f4575369047e0ade2"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", ["quantum", "realist"])
def test_simulate_bytes_are_pinned(capsys, tmp_path, model, seed, trials, workers):
    """Two shards at most, so --workers 3 has more workers than shards."""
    log = tmp_path / "log.csv"
    main(["simulate", "--trials", str(trials), "--seed", str(seed), "--model", model,
          "--workers", str(workers), "--log", str(log), "--format", "json"])
    stdout = capsys.readouterr().out.encode()
    assert (sha256(log.read_bytes()), sha256(stdout)) == DIGESTS[model, seed, trials]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trials", [100001, 1000001])
@pytest.mark.parametrize("model", ["quantum", "realist"])
def test_bytes_pinned_across_digit_widths(capsys, tmp_path, model, trials, workers):
    log = tmp_path / "log.csv"
    main(["simulate", "--trials", str(trials), "--seed", "7", "--model", model,
          "--workers", str(workers), "--log", str(log), "--format", "json"])
    stdout = capsys.readouterr().out.encode()
    assert (sha256(log.read_bytes()), sha256(stdout)) == WIDE_DIGESTS[model, trials]


@pytest.mark.parametrize("model", ["quantum", "realist"])
def test_log_matches_csv_writer_over_records(tmp_path, model):
    """The streamed log equals csv.writer over the collected trial records."""
    config = ExperimentConfig(trials=5000, seed=31, model=model, shard_size=512)
    behavior = hardy_behavior()
    _, records = run_experiment(config, behavior, collect_trials=True)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["trial", "setting_l", "setting_r", "outcome_l", "outcome_r"])
    for rec in records:
        writer.writerow([rec.index, rec.setting.left, rec.setting.right,
                         rec.outcome.left.value, rec.outcome.right.value])

    log = tmp_path / "log.csv"
    freq = _write_trial_log(str(log), config, behavior, workers=2)
    assert log.read_bytes() == expected.getvalue().encode()
    assert freq.trials == 5000


# ===========================================================================
# the row builder
# ===========================================================================

SUFFIXES = [f",{s.left},{s.right},{c.left.value},{c.right.value}\r\n"
            for s in hardy_behavior().settings for c in JOINT_OUTCOMES]
TABLE = np.frombuffer("".join(SUFFIXES).encode(), dtype=np.uint8).reshape(16, -1)


def reference_rows(start: int, codes: np.ndarray) -> bytes:
    return "".join(f"{i}{SUFFIXES[c]}" for i, c in enumerate(codes.tolist(), start)).encode()


@pytest.mark.parametrize("start", [10 ** k - 3 for k in range(1, 13)] + [2 ** 32 - 10])
def test_rows_cross_a_power_of_ten(start):
    """20 rows: from 10**k - 3 the index gains a digit after the third row, and
    from 2**32 - 10 it passes the largest 32-bit value."""
    codes = np.random.default_rng(start).integers(0, 16, 20).astype(np.uint8)
    assert _log_rows(start, codes, TABLE) == reference_rows(start, codes)


@pytest.mark.parametrize("start", [0, 990])
def test_rows_cover_every_code(start):
    codes = np.arange(16, dtype=np.uint8)
    assert _log_rows(start, codes, TABLE) == reference_rows(start, codes)


def test_no_codes_no_rows():
    assert _log_rows(12345, np.zeros(0, dtype=np.uint8), TABLE) == b""


def test_log_needs_labels_of_equal_length(tmp_path):
    uniform = {c: 0.25 for c in JOINT_OUTCOMES}
    behavior = Behavior({SettingPair(a, b): uniform for a in ("1", "10") for b in ("1", "2")})
    log = tmp_path / "log.csv"
    with pytest.raises(ValueError, match="equal length"):
        _write_trial_log(str(log), ExperimentConfig(trials=10, seed=1), behavior, workers=1)
    assert not log.exists()
