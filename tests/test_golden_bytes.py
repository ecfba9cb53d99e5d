"""Pinned output bytes: `simulate`'s --log CSV and JSON stdout, and the
stdout of `interpret`, `tables`, `check-local` and `mixture-compare` in
every format.

The `simulate` digests were recorded from the per-trial csv.writer log before
it was streamed shard by shard; any change to the sampler's draw order, the
shard seeding or the log format moves them.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

import oracles
from hardylab.cli import _LogRows, _write_trial_log, main
from hardylab.experiment import ExperimentConfig, run_experiment
from hardylab.qstate import JOINT_OUTCOMES, Behavior, SettingPair, hardy_behavior
from test_locality import NEAR_VERTEX_ROWS

SEEDS = (7, 12345678901234567890)
# Every cell reachable, with two-character setting labels: the trial log's
# rows then have a suffix width other than the Hardy behavior's.
WIDE_BEHAVIOR = Behavior({SettingPair(a, b): {c: 0.25 for c in JOINT_OUTCOMES}
                          for a in ("10", "11") for b in ("20", "21")})
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


@pytest.mark.parametrize("model, behavior", [
    pytest.param("quantum", hardy_behavior(), id="quantum"),
    pytest.param("realist", hardy_behavior(), id="realist"),
    pytest.param("quantum", WIDE_BEHAVIOR, id="quantum-wide"),
])
def test_log_matches_csv_writer_over_records(tmp_path, model, behavior, monkeypatch):
    """The streamed log equals csv.writer over the collected trial codes."""
    monkeypatch.setattr(ExperimentConfig, "shard_size", 512)
    config = ExperimentConfig(trials=5000, seed=31, model=model)
    _, codes = run_experiment(config, behavior, collect_trials=True)
    cells = [(setting.left, setting.right, cell.left.value, cell.right.value)
             for setting, cell, _ in behavior.cells()]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["trial", "setting_l", "setting_r", "outcome_l", "outcome_r"])
    for i, code in enumerate(codes.tolist()):
        writer.writerow((i, *cells[code]))

    log = tmp_path / "log.csv"
    freq = _write_trial_log(str(log), config, behavior, workers=2)
    assert log.read_bytes() == expected.getvalue().encode()
    assert freq.trials == 5000


# ===========================================================================
# stdout of interpret, tables and mixture-compare
# ===========================================================================

STATES = ("hardy", "phi-minus", "phi-plus")
BASES = ("zz", "zx", "xz", "xx", "11", "12", "21", "22")

# (state, basis, against) -> (sha256 of text stdout, sha256 of --format json
# stdout), recorded before the scalar assignment sampler was removed from
# `realist`. Every combination not listed exits 1 with empty stdout: no
# built-in basis change reaches the basis for one of its states.
INTERPRET_DIGESTS = {
    ("hardy", "11", None): (
        "4ddd909c0fd88a9f540c3adc4f72a786f07ea8ef857354c19c54b623a4504f92",
        "419e7b0a6a31ef982326c7f17235021f49ffa7274642d59088da2d678c29272a"),
    ("hardy", "11", "hardy"): (
        "3ab924d8a755bbbfa9471a8a410172359facb8be0a0534302614953debb2aea3",
        "c3de30dc21099f0b5cf0e0a758e91dc9bad872816f6edfc50816bc21c8517a4d"),
    ("hardy", "12", None): (
        "61c0eb9fe5d0b4aeee07d48a219f66b6529e9f642899921cb754ea3a6db88895",
        "d7d25a149aee564559cad7761283b1012adf370a1ddfdfb514f09f283f66343b"),
    ("hardy", "12", "hardy"): (
        "7c50a4f0467e4aaca580432cef9e18cf04e0ab059a248d8ab307ba9a61f7a370",
        "38dbb0d86bbbff19ba60eb1ae1118f31569d2491a06f27f461e88f6bdec5929b"),
    ("hardy", "21", None): (
        "15e437f13cb604c6f04603c99bb61d1793092b6a1e0ac737e857899df5db8819",
        "6c944817242857439a167f8747e9cf39809124989d484d96757f23148f5e8735"),
    ("hardy", "21", "hardy"): (
        "784af9d228a134f3d120c7e0cb126aead99cb1ffcf7cccddf9a1a89ed15500b6",
        "3da8f32f8a8a3975a2699bf511d16256749da73ac593829958c6ccdf774a118b"),
    ("hardy", "22", None): (
        "daadf417020165b6529e2ca2d905e1c16be7deb664e48d55b1f979322d2b7254",
        "284e91062a01f3c40e750d509585bcb10060a56997bf3a7c45fbe94f95f2256c"),
    ("hardy", "22", "hardy"): (
        "387884e230ebc1e69accf7cf073f7ccb812648ff8ebac0a4290797f9211afe0b",
        "a8c4fa6eb47ed8ae7989a19bae3a1a277d824b713e3435124fc079cb7e2c1d71"),
    ("phi-minus", "zz", None): (
        "a01bd9a22fe2e2cfaf9c55517ec5bfcd86bf2ff97739a26ae03d677ef6485388",
        "c265b92a570577e0b996665a137941c88cfe66803ca69a95373c68bccf307c20"),
    ("phi-minus", "zz", "phi-minus"): (
        "58ef93cf85772af246c2aaef003842edc15554ef3b195fc009201d4532231128",
        "a4831397a8cb1589e547ffde8e4291a7184e63a4d55f8f759ce282d5337e756c"),
    ("phi-minus", "zz", "phi-plus"): (
        "5b62456ee8923867c025d542b59f777985b29abba26bed8243db3706069164a7",
        "657e3ac04be4b92e290c032f5ba7c7087ce5c855bbcdee5efc28f9e3eeb6db1b"),
    ("phi-minus", "zx", None): (
        "4906fca843d7728dd4ef1badb179990979c6619ceb1c6bf6b6db534b80553aa7",
        "baf0a5b7ac665ffbd5c7bf0957fd96271a3094615f35b43c106a86e0573bfe94"),
    ("phi-minus", "zx", "phi-minus"): (
        "6c277c683ad890e43f576bcea5ef8275910a04a645edf252bb7c89573c545c77",
        "d919f8ec07e94a1a54e4a9fc29085b011fc43593a9e2c4f5df6aee041aac07c0"),
    ("phi-minus", "zx", "phi-plus"): (
        "9566160990e6b89b36921deb5e5f93e68d2e75888add534eba7c5638dccb14a1",
        "eb8ddca91f98f49538aeb5b87c91bfc803b986f06c884017946602d1bb02adbe"),
    ("phi-minus", "xz", None): (
        "bdd94d6553503fd2ea0dfcfda19f145c7eb7eb32734fe788b30ad5ba5dd0ed72",
        "a29725b3407ec981727bba86b06b8afc0f0adf7635b8b57c33600d7a5ff586e9"),
    ("phi-minus", "xz", "phi-minus"): (
        "696c69d63bce21bd4342b108b3cc8896a7179f079673a333b51fa9338c348c62",
        "aaf67c63fc9ff5da94a58bcd05c1c193b5c48deac8a790e59274985feb2cf63b"),
    ("phi-minus", "xz", "phi-plus"): (
        "49db97294eaf726a3b1af39401b41f0f0db6a7ff34b67f56dfe5c3dc8c40ff93",
        "db326b804b2e06174b2b234fde6d62bc09ccef6ff67200e593e8f380e127fb7b"),
    ("phi-minus", "xx", None): (
        "1d99491bc0865cbe0efcc02080830aeae3f58e989617d7aab21788b61bc5fc65",
        "d60e411aedfbce986e9a23d118e0ffee94c1a994dce321e63b8e58316540c6ac"),
    ("phi-minus", "xx", "phi-minus"): (
        "d7b6652948bfc3a21c99fb4dce5bef50f7267a7bd5f4159b01b9eeeb75100c72",
        "49904321bc7091460ab3c1e2d3bf93ec360e86cbeb31d6ef9b6465cb97931a40"),
    ("phi-minus", "xx", "phi-plus"): (
        "8b8bd956bb0c3b630cfb78b59543c87b7a7f049d6f47f1797ff721cfc0235512",
        "44d3a1379ed99a53a3c69b53b0245508422c6e150c60749a00c5451064cfe1fe"),
    ("phi-plus", "zz", None): (
        "a83776b65c6ee1f3215d2ad4b8160007c208f5b70b46d21fc54e953cbc37d0ab",
        "76b0ff84d9ea17d3740244c0389fb57633988a987d39d7fc48b4323e794877cc"),
    ("phi-plus", "zz", "phi-minus"): (
        "df37d2b29c05f4377a5f12fc778b6de60d78f99e7680e497289c1b47245796f1",
        "22c365648e34d23cac53f9df621803e6a2eb9dbdca4c554504942f5dc152fe04"),
    ("phi-plus", "zz", "phi-plus"): (
        "ffb9d17dd2a7e2590e0c6d9fc5446a3d2854b3972e1662b0ac2bb97f14a29b7e",
        "124a9f63217488a85b5662970a086f09a92e61caef66ae0387fa2dc56ecfcf14"),
    ("phi-plus", "zx", None): (
        "66728368648a3925a628e6055579803e8eeaf4037f351b185ae9acefbfeec476",
        "5eb421998c2fdbbb506e442870ef76613be02aa1dd18f682611ed0753c8aa9e0"),
    ("phi-plus", "zx", "phi-minus"): (
        "fc895d09f46861ca91eb4ac37ea6e02ffb92e7e35e01604a1e00e910c8830d7a",
        "674c3bece5d14eecb26afb6ef0e15965c2b827dd2ca2a2b9868a106b66aba130"),
    ("phi-plus", "zx", "phi-plus"): (
        "54b435ebd919b9eb1ec9b59a445179c2d6a12b35e7d3da07f85446ec3b2d77ab",
        "d0baab0aff6149c42974b8d536a3f93e968de22fa1e7d912d05418b36697a188"),
    ("phi-plus", "xz", None): (
        "01a983b2f08510389fb71d352cfdc0415ded2239514bb5c379474f443d43187f",
        "70dd8637b5a3e0f890ce806d9f117ea624885fc2749a8aeef8ebfc27ac89b71c"),
    ("phi-plus", "xz", "phi-minus"): (
        "2f6fd02453483b766a59dfdb5fc0d171f479941bfd005d2d567e4964f73774f4",
        "00869cd076950961a57bbec528b3e18d705f23a6f89fb60acacb3fa1e5d11237"),
    ("phi-plus", "xz", "phi-plus"): (
        "5ada375ac8e6eaa2f37e238c3a22530e3eae02fe2e5d7c006932650a70824d6d",
        "8cf6bf251e06e3b573c714cdf6188fac3aad7191db9bc6ed0e40e8b7484a5883"),
    ("phi-plus", "xx", None): (
        "a72872aa6b6bf607d10ffcd94d5725b68142e9a9fa6623fb8fdf6e8fa5c34e0f",
        "1ce2dc3ac8133bce54008d48ad1db1c20595ccecc66d35480e67988220011ccd"),
    ("phi-plus", "xx", "phi-minus"): (
        "b8e1952d6727f41e44a4fbfa0274b83908d5056eac02e4f1e936ca44cbea61d3",
        "56b486967e911af45fd8fdf3ac6035bce29b9da7516ae1b45bdc3bc03d545463"),
    ("phi-plus", "xx", "phi-plus"): (
        "fb9ee998bb2315ed4611b2843153a445eaab50117b4aafac67ba633856981473",
        "769992d78d0f1e954976e4ce4639000d45914b835847362e708eb02334af63ab"),
}

# (subcommand, format) -> sha256 of stdout, recorded at the same commit.
STDOUT_DIGESTS = {
    ("tables", "text"):
        "5c15b49cdbe3360eaa1011d9cf152ae11e7b8a5788780c126412d3f0b9e17b3b",
    ("tables", "json"):
        "0deae69155f37e448fc0dbfa5ef346cae87942ca5e6c147fceca1d1c0b81eb4e",
    ("tables", "csv"):
        "b1f2c73895027c81ff8225e1d0a2835b233d3f15535635891808b011228ba739",
    ("mixture-compare", "text"):
        "edd3123f94a0994643653961421cd7a32883acf27a0b05b592101316009d20ff",
    ("mixture-compare", "json"):
        "d1662f8c89cc2946689824f3ec51a82627d1079b7bce2bae8b3cefb536ef32c0",
}


@pytest.mark.parametrize("against", [None, *STATES])
@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("state", STATES)
def test_interpret_bytes_are_pinned(capsys, state, basis, against):
    expected = INTERPRET_DIGESTS.get((state, basis, against))
    outputs = []
    for fmt in ("text", "json"):
        argv = ["interpret", "--state", state, "--basis", basis, "--format", fmt]
        if against is not None:
            argv += ["--against", against]
        assert main(argv) == (1 if expected is None else 0)
        outputs.append(capsys.readouterr().out.encode())
    if expected is None:
        assert outputs == [b"", b""]
    else:
        assert tuple(sha256(out) for out in outputs) == expected


@pytest.mark.parametrize(("command", "fmt"), list(STDOUT_DIGESTS))
def test_stdout_bytes_are_pinned(capsys, command, fmt):
    assert main([command, "--format", fmt]) == 0
    assert sha256(capsys.readouterr().out.encode()) == STDOUT_DIGESTS[command, fmt]


# ===========================================================================
# stdout of check-local
# ===========================================================================

UNIFORM_ROWS = {s: {c: 0.25 for c in oracles.JOINT} for s in oracles.SETTINGS}

# Behavior files for check-local, in the CLI's schema. The Hardy rows come
# from the sympy oracle; the signaling behavior is uniform except that (1,1)
# always gives RR, so the left marginal of label 1 moves with the right label.
CHECK_LOCAL_FILES = {
    "hardy": {s: {c: float(p) for c, p in row.items()}
              for s, row in oracles.hardy_behavior().items()},
    "uniform": UNIFORM_ROWS,
    "near-vertex": {s: dict(zip(oracles.JOINT, NEAR_VERTEX_ROWS[4 * k:4 * k + 4]))
                    for k, s in enumerate(oracles.SETTINGS)},
    "signaling": {**UNIFORM_ROWS, "11": {"RR": 1.0, "RG": 0.0, "GR": 0.0, "GG": 0.0}},
}

# name -> (exit code, sha256 of text stdout, sha256 of --format json stdout),
# recorded before quantum_behavior and the flat cell order were rebuilt.
CHECK_LOCAL_DIGESTS = {
    "hardy": (
        2,
        "91a8b96dc7515e984fcc3b7020a1513735811736ca636d43260326ff51f69693",
        "89b653e3863eeb253f51e203899ca65e8aa33ef45a27d698c862855147316d3d"),
    "uniform": (
        0,
        "ab0202cc3bbb464bbb057274d377500953f99db417fec4b0e6dc8bcec36b3ce2",
        "2e829811d4703d0f63751b0506c741b03e49f703ae2db2a52844dfccdee673e9"),
    "near-vertex": (
        0,
        "edfa30fc779ba2ad17bc4d6518791a57647f11087e3d3986d404d1905afe8e9e",
        "cd7f997f2f966922ed41f32c2f11d30cbf91b36e54eec25b800203e40e538da8"),
    "signaling": (
        2,
        "d92d63ad7eb21f1579ed269c3a6fc6ca3982f74b06739e7d536fe0d143d37cfc",
        "9894b213ced7db6d266503454afec6fe1a7ce2434500aef36d639b999362ff2e"),
}


@pytest.mark.parametrize("name", list(CHECK_LOCAL_FILES))
def test_check_local_bytes_are_pinned(capsys, tmp_path, name):
    path = tmp_path / "behavior.json"
    path.write_text(json.dumps(CHECK_LOCAL_FILES[name]))
    code, *digests = CHECK_LOCAL_DIGESTS[name]
    for fmt, digest in zip(("text", "json"), digests):
        assert main(["check-local", "--behavior", str(path), "--format", fmt]) == code
        assert sha256(capsys.readouterr().out.encode()) == digest


# ===========================================================================
# the row builder
# ===========================================================================

def suffix_rows(behavior: Behavior) -> list[str]:
    return [f",{s.left},{s.right},{c.left.value},{c.right.value}\r\n"
            for s in behavior.settings for c in JOINT_OUTCOMES]


def suffix_table(suffixes: list[str]) -> np.ndarray:
    return np.frombuffer("".join(suffixes).encode(), dtype=np.uint8).reshape(16, -1)


SUFFIXES = suffix_rows(hardy_behavior())
TABLE = suffix_table(SUFFIXES)
WIDE_SUFFIXES = suffix_rows(WIDE_BEHAVIOR)  # 12 bytes a row, against Hardy's 10


def with_wide_suffixes(values: list[int]) -> list:
    """Each value with the Hardy suffixes under its own id, then with the wide ones."""
    return ([pytest.param(v, SUFFIXES, id=str(v)) for v in values]
            + [pytest.param(v, WIDE_SUFFIXES, id=f"{v}-wide") for v in values])


def reference_rows(start: int, codes: np.ndarray, suffixes: list[str] = SUFFIXES) -> bytes:
    return "".join(f"{i}{suffixes[c]}" for i, c in enumerate(codes.tolist(), start)).encode()


def _log_rows(start: int, codes: np.ndarray, table: np.ndarray) -> bytes:
    """The rows of one _LogRows call, sized for exactly these codes, joined."""
    return bytes(_LogRows(table, len(codes), len(str(start + len(codes))))(start, codes))


@pytest.mark.parametrize(
    "start, suffixes", with_wide_suffixes([10 ** k - 3 for k in range(1, 13)] + [2 ** 32 - 10]))
def test_rows_cross_a_power_of_ten(start, suffixes):
    """20 rows: from 10**k - 3 the index gains a digit after the third row, and
    from 2**32 - 10 it passes the largest 32-bit value."""
    codes = np.random.default_rng(start).integers(0, 16, 20).astype(np.uint8)
    assert _log_rows(start, codes, suffix_table(suffixes)) == reference_rows(start, codes, suffixes)


@pytest.mark.parametrize("start", [0, 990])
def test_rows_cover_every_code(start):
    codes = np.arange(16, dtype=np.uint8)
    assert _log_rows(start, codes, TABLE) == reference_rows(start, codes)


def test_no_codes_no_rows():
    assert _log_rows(12345, np.zeros(0, dtype=np.uint8), TABLE) == b""


@pytest.mark.parametrize("start, n", [(2 ** 64 - 3, 6), (19_995, 20), (123_456_789_995, 20)])
def test_rows_past_64_bits_and_across_digit_blocks(start, n):
    """From 2**64 - 3 the fourth row's index needs 65 bits; from x5 the index
    crosses a 10 000-aligned block after the fifth row, within one digit run."""
    codes = np.random.default_rng(start % 2 ** 32).integers(0, 16, n).astype(np.uint8)
    assert _log_rows(start, codes, TABLE) == reference_rows(start, codes)


@pytest.mark.parametrize("digits, suffixes", with_wide_suffixes([5, 7, 9, 12]))
def test_full_shard_of_rows(digits, suffixes):
    """65 536 rows span seven or eight 10 000-blocks."""
    start = 10 ** (digits - 1) + 4_321
    codes = np.random.default_rng(digits).integers(0, 16, 65536).astype(np.uint8)
    assert _log_rows(start, codes, suffix_table(suffixes)) == reference_rows(start, codes, suffixes)


def test_one_builder_reused_across_widths():
    """One builder's buffers, reused in shuffled order for starts
    near each power of ten up to 10**20 and near multiples of 10 000."""
    rng = np.random.default_rng(2024)
    rows = _LogRows(TABLE, 3000, 21)
    starts = [max(0, 10 ** k + int(rng.integers(-3000, 3000)))
              for k in range(1, 21) for _ in range(2)]
    starts += [10_000 * int(rng.integers(1, 10 ** 15)) + int(rng.integers(-3000, 3000))
               for _ in range(60)]
    rng.shuffle(starts)
    for start in starts:
        codes = rows.codes[:int(rng.integers(0, 3001))]
        codes[...] = rng.integers(0, 16, len(codes))
        assert bytes(rows(start, codes)) == reference_rows(start, codes), start


@pytest.mark.parametrize("model", ["quantum", "realist"])
def test_log_peak_memory_does_not_grow_with_shards(model):
    """The writer's traced peak is one shard's buffers, whatever the shard count.

    24 shards need one more index digit per row than 4 (64 KB more buffer),
    and up to two shards' codes (64 KB each) may be in flight or not at the
    peak; a per-shard array kept alive would add its size 20 times over.
    """
    def peak(shards):
        config = ExperimentConfig(trials=shards * 65536, seed=5, model=model)
        tracemalloc.start()
        try:
            _write_trial_log(os.devnull, config, hardy_behavior(), workers=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # process-wide caches, such as the digit table, are built once
    few, many = peak(4), peak(24)
    assert many <= few + 2 ** 18
    assert many < 8 * 2 ** 20


def test_log_needs_labels_of_equal_length(tmp_path):
    uniform = {c: 0.25 for c in JOINT_OUTCOMES}
    behavior = Behavior({SettingPair(a, b): uniform for a in ("1", "10") for b in ("1", "2")})
    log = tmp_path / "log.csv"
    with pytest.raises(ValueError, match="equal length"):
        _write_trial_log(str(log), ExperimentConfig(trials=10, seed=1), behavior, workers=1)
    assert not log.exists()


@pytest.mark.parametrize("settings, workers", [(("11", "12", "21", "31"), 1),
                                               (("11", "12", "21", "22"), 0)])
def test_rejected_log_leaves_old_file_intact(tmp_path, settings, workers):
    """A behavior off the 2x2 grid, or no workers, is refused before the log opens."""
    uniform = {c: 0.25 for c in JOINT_OUTCOMES}
    behavior = Behavior({SettingPair(*key): uniform for key in settings})
    log = tmp_path / "log.csv"
    log.write_bytes(b"old,log\r\n0,1,1,R,G\r\n")
    with pytest.raises(ValueError):
        _write_trial_log(str(log), ExperimentConfig(trials=10, seed=1), behavior, workers)
    assert log.read_bytes() == b"old,log\r\n0,1,1,R,G\r\n"
