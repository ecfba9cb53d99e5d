"""Command-line behavior: formats, exit codes, and byte-stable output."""
from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from hardylab.cli import main, parse_behavior_json
from hardylab.qstate import JOINT_OUTCOMES, hardy_behavior
from test_locality import oracle_table, vertex_table

UNIFORM_ROWS = {key: {c.value: 0.25 for c in JOINT_OUTCOMES}
                for key in ("11", "12", "21", "22")}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    return capsys.readouterr().err


def assert_interrupted(capsys, *argv: str) -> None:
    """Ctrl-C exits 130 with one stderr line and no traceback."""
    try:
        code, _, err = run_cli(capsys, *argv)
    except KeyboardInterrupt:  # escaping main, it would end the whole test session
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == 130
    assert err == "error: interrupted\n"


def assert_out_of_memory(capsys, *argv: str) -> None:
    """A MemoryError exits 1 with one stderr line that says so, and no traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {argv[0]} ran out of memory\n"


# ===========================================================================
# tables
# ===========================================================================

class TestTables:
    def test_text_lists_all_settings(self, capsys):
        code, out, _ = run_cli(capsys, "tables")
        assert code == 0
        for pair in ("(1,1)", "(1,2)", "(2,1)", "(2,2)"):
            assert f"setting {pair}" in out

    def test_json_carries_labels_and_probabilities(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["format_version"] == 1
        assert [block["setting"] for block in data["settings"]] == \
            ["11", "12", "21", "22"]
        last = {c["outcome"]: c for c in data["settings"][3]["cells"]}
        assert last["GG"]["label"] == "k"
        assert last["GG"]["probability"] == 0.09
        assert last["RR"]["label"] == "j"
        assert last["RR"]["amplitude"] == -0.8
        first = {c["outcome"]: c for c in data["settings"][0]["cells"]}
        assert first["RR"]["label"] is None
        assert first["RR"]["amplitude"] == 0.0
        assert first["RR"]["probability"] == 0.0

    def test_csv_has_sixteen_data_rows(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "setting,outcome,label,amplitude,probability"
        assert len(lines) == 17
        assert "22,GG,k,0.3,0.09" in lines
        assert "12,GG,,0,0" in lines


# ===========================================================================
# simulate
# ===========================================================================

class TestSimulate:
    def test_text_reports_pass(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--trials", "20000",
                               "--seed", "7")
        assert code == 0
        assert "verdict: PASS" in out
        assert "structural zero cells: clean" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--trials", "20000",
                               "--seed", "7", "--model", "quantum",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["format_version"] == 1
        assert data["model"] == "quantum"
        assert data["trials"] == 20000
        assert data["seed"] == 7
        assert sum(data["setting_totals"].values()) == 20000
        assert data["report"]["passed"] is True
        assert len(data["report"]["cells"]) == 16
        assert "workers" not in data

    def test_output_independent_of_workers(self, capsys):
        args = ("simulate", "--trials", "20000", "--seed", "42",
                "--model", "realist", "--format", "json")
        _, base, _ = run_cli(capsys, *args)
        _, again, _ = run_cli(capsys, *args)
        _, multi, _ = run_cli(capsys, *args, "--workers", "3")
        assert base == again == multi

    def test_writes_trial_log(self, capsys, tmp_path):
        path = tmp_path / "log.csv"
        code, _, _ = run_cli(capsys, "simulate", "--trials", "50",
                             "--seed", "1", "--log", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,setting_l,setting_r,outcome_l,outcome_r"
        assert len(lines) == 51
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(50))

    def test_failed_comparison_exits_two(self, capsys, monkeypatch):
        import hardylab.cli as cli
        real = cli.compare_tables

        def always_reject(freq, behavior):
            report = real(freq, behavior)
            object.__setattr__(report, "passed", False)
            return report

        monkeypatch.setattr(cli, "compare_tables", always_reject)
        code, out, _ = run_cli(capsys, "simulate", "--trials", "1000")
        assert code == 2
        assert "verdict: FAIL" in out

    def test_interrupt_prints_one_line(self, capsys, monkeypatch):
        import hardylab.cli as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        assert_interrupted(capsys, "simulate", "--trials", "1000")

    def test_interrupt_while_logging_prints_one_line(self, capsys, monkeypatch, tmp_path):
        import hardylab.cli as cli
        real = cli.shard_codes

        def interrupted_at_second_shard(*args, **kwargs):
            for k, shard in enumerate(real(*args, **kwargs)):
                if k == 1:
                    raise KeyboardInterrupt
                yield shard

        monkeypatch.setattr(cli, "shard_codes", interrupted_at_second_shard)
        assert_interrupted(capsys, "simulate", "--trials", str(2 * 65536),
                           "--log", str(tmp_path / "log.csv"))

    def test_memory_error_while_sampling_prints_one_line(self, capsys, monkeypatch):
        import hardylab.experiment as experiment

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(experiment, "_run_shard", out_of_memory)
        assert_out_of_memory(capsys, "simulate", "--trials", "1000")

    def test_rejects_zero_trials(self, capsys):
        err = run_usage_error(capsys, "simulate", "--trials", "0")
        assert "--trials" in err

    def test_rejects_unknown_model(self, capsys):
        err = run_usage_error(capsys, "simulate", "--model", "pilotwave")
        assert "--model" in err

    def test_rejects_oversized_seed(self, capsys):
        err = run_usage_error(capsys, "simulate", "--seed", str(2 ** 64))
        assert "--seed" in err

    @pytest.mark.parametrize("flag, text", [("--trials", "1e3"), ("--seed", "abc"),
                                            ("--workers", "two")])
    def test_non_integer_is_usage_error(self, capsys, flag, text):
        err = run_usage_error(capsys, "simulate", flag, text)
        assert f"argument {flag}: {text!r} is not an integer" in err
        assert not re.search(r"(?<![\w-])_[A-Za-z]", err)  # no private function names

    def test_unwritable_log_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--trials", "10",
                               "--log", str(tmp_path / "no" / "dir.csv"))
        assert code == 1
        assert "error:" in err


# ===========================================================================
# interpret
# ===========================================================================

class TestInterpret:
    def test_detector_setting_candidates(self, capsys):
        code, out, _ = run_cli(capsys, "interpret", "--state", "hardy",
                               "--basis", "11")
        assert code == 0
        assert "RG  p = 0.375" in out
        assert "GR  p = 0.375" in out
        assert "GG  p = 0.25" in out
        assert "RR" not in out.replace("R = +", "")

    def test_json_candidates_off_diagonal_setting(self, capsys):
        code, out, _ = run_cli(capsys, "interpret", "--state", "hardy",
                               "--basis", "12", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["state"] == "hardy"
        assert data["basis"] == "12"
        assert data["candidates"] == [
            {"outcome": "RR", "probability": 0.15},
            {"outcome": "RG", "probability": 0.225},
            {"outcome": "GR", "probability": 0.625},
        ]
        assert data["against"] is None

    def test_against_same_in_shared_basis(self, capsys):
        code, out, _ = run_cli(capsys, "interpret", "--state", "phi-plus",
                               "--basis", "zz", "--against", "phi-minus")
        assert code == 0
        assert "candidate sets: same" in out

    def test_against_differs_in_rotated_basis(self, capsys):
        code, out, _ = run_cli(capsys, "interpret", "--state", "phi-plus",
                               "--basis", "xx", "--against", "phi-minus",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["against"]["same_candidates"] is False
        assert data["candidates"] == [
            {"outcome": "RR", "probability": 0.5},
            {"outcome": "GG", "probability": 0.5},
        ]
        assert data["against"]["candidates"] == [
            {"outcome": "RG", "probability": 0.5},
            {"outcome": "GR", "probability": 0.5},
        ]

    def test_unreachable_basis_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "interpret", "--state", "hardy",
                               "--basis", "zz")
        assert code == 1
        assert "no basis change" in err

    def test_unknown_state_is_usage_error(self, capsys):
        err = run_usage_error(capsys, "interpret", "--state", "ghz",
                              "--basis", "11")
        assert "--state" in err


# ===========================================================================
# check-local
# ===========================================================================

class TestCheckLocal:
    def write(self, tmp_path, rows) -> str:
        path = tmp_path / "behavior.json"
        path.write_text(json.dumps(rows))
        return str(path)

    def test_uniform_rows_are_feasible(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check-local", "--behavior",
                               self.write(tmp_path, UNIFORM_ROWS))
        assert code == 0
        assert "verdict: feasible" in out
        assert "strategy weights" in out

    def test_detector_rows_are_infeasible(self, capsys, tmp_path):
        rows = oracle_table(hardy_behavior())
        code, out, _ = run_cli(capsys, "check-local", "--behavior",
                               self.write(tmp_path, rows), "--format", "json")
        assert code == 2
        data = json.loads(out)
        assert data["verdict"] == "infeasible"
        assert data["witness"]["margin"] >= 0.09 - 1e-6

    def test_missing_cell_names_the_cell(self, capsys, tmp_path):
        rows = {k: dict(v) for k, v in UNIFORM_ROWS.items()}
        del rows["12"]["GG"]
        code, _, err = run_cli(capsys, "check-local", "--behavior",
                               self.write(tmp_path, rows))
        assert code == 1
        assert "cell 12:GG is missing" in err

    def test_non_numeric_cell_is_rejected(self, capsys, tmp_path):
        rows = {k: dict(v) for k, v in UNIFORM_ROWS.items()}
        rows["21"]["RR"] = "high"
        code, _, err = run_cli(capsys, "check-local", "--behavior",
                               self.write(tmp_path, rows))
        assert code == 1
        assert "cell 21:RR has non-numeric value" in err

    def test_unknown_cell_is_rejected(self, capsys, tmp_path):
        rows = {k: dict(v) for k, v in UNIFORM_ROWS.items()}
        rows["22"]["XX"] = 0.0
        code, _, err = run_cli(capsys, "check-local", "--behavior",
                               self.write(tmp_path, rows))
        assert code == 1
        assert "unknown cells" in err and "XX" in err

    def test_bad_setting_key_is_rejected(self, capsys, tmp_path):
        rows = dict(UNIFORM_ROWS)
        rows["221"] = rows.pop("22")
        code, _, err = run_cli(capsys, "check-local", "--behavior",
                               self.write(tmp_path, rows))
        assert code == 1
        assert "bad setting key" in err

    def test_bad_row_sum_is_rejected(self, capsys, tmp_path):
        rows = {k: dict(v) for k, v in UNIFORM_ROWS.items()}
        rows["11"]["RR"] = 0.5
        code, _, err = run_cli(capsys, "check-local", "--behavior",
                               self.write(tmp_path, rows))
        assert code == 1
        assert "sum to" in err

    def test_negative_probability_is_rejected(self, capsys, tmp_path):
        rows = {k: dict(v) for k, v in UNIFORM_ROWS.items()}
        rows["11"]["RR"] = -0.25
        code, _, err = run_cli(capsys, "check-local", "--behavior",
                               self.write(tmp_path, rows))
        assert code == 1
        assert "invalid probability" in err

    def test_integer_beyond_float_range_is_rejected(self, capsys, tmp_path):
        rows = {k: dict(v) for k, v in UNIFORM_ROWS.items()}
        rows["12"]["RG"] = 10 ** 400
        code, out, err = run_cli(capsys, "check-local", "--behavior",
                                 self.write(tmp_path, rows))
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: cell 12:RG is too large for a float"]

    def test_off_grid_settings_are_named(self, capsys, tmp_path):
        rows = {k: UNIFORM_ROWS[k] for k in ("11", "12")}
        code, out, err = run_cli(capsys, "check-local", "--behavior",
                                 self.write(tmp_path, rows))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: behavior settings (1,1), (1,2) are not a full 2x2 setting grid"]

    @pytest.mark.parametrize("key, repeat", [
        # last-wins parsing would decide the second "11" row, the Hardy one
        ("11", lambda text: '{"11": ' + json.dumps(UNIFORM_ROWS["11"]) + ", " + text[1:]),
        ("GG", lambda text: text.replace('"GG": 0.09', '"GG": 0.09, "GG": 0.09')),
    ], ids=["setting", "cell"])
    def test_repeated_key_is_rejected(self, capsys, tmp_path, key, repeat):
        path = tmp_path / "behavior.json"
        path.write_text(repeat(json.dumps(oracle_table(hardy_behavior()))))
        code, out, err = run_cli(capsys, "check-local", "--behavior", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: behavior file repeats the key {key!r}"]

    def test_invalid_json_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "behavior.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check-local", "--behavior", str(path))
        assert code == 1
        assert "not valid JSON" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check-local", "--behavior",
                               str(tmp_path / "absent.json"))
        assert code == 1
        assert "error:" in err

    def test_memory_error_while_parsing_prints_one_line(self, capsys, tmp_path, monkeypatch):
        import hardylab.cli as cli

        def out_of_memory(text):
            raise MemoryError

        monkeypatch.setattr(cli, "parse_behavior_json", out_of_memory)
        assert_out_of_memory(capsys, "check-local", "--behavior",
                             self.write(tmp_path, UNIFORM_ROWS))

    def test_solver_failure_exits_one(self, capsys, tmp_path, monkeypatch):
        import hardylab.cli as cli

        def no_certificate(behavior):
            raise RuntimeError("no certificate reached the margin")

        monkeypatch.setattr(cli, "local_membership", no_certificate)
        code, out, err = run_cli(capsys, "check-local", "--behavior",
                                 self.write(tmp_path, UNIFORM_ROWS))
        assert code == 1
        assert out == ""
        assert err == "error: no certificate reached the margin\n"


# ===========================================================================
# mixture-compare
# ===========================================================================

class TestMixtureCompare:
    def test_json_diff_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "mixture-compare", "--format", "json")
        assert code == 0
        data = json.loads(out)
        by_basis = {c["basis"]: c for c in data["comparisons"]}
        assert by_basis["zz"]["differing_cells"] == []
        diffs = by_basis["xx"]["differing_cells"]
        assert len(diffs) == 4
        assert all(abs(d["difference"]) == 0.25 for d in diffs)

    def test_text_headlines(self, capsys):
        code, out, _ = run_cli(capsys, "mixture-compare")
        assert code == 0
        assert "basis (z,z): rows agree" in out
        assert "basis (x,x): 4 differing cells" in out


# ===========================================================================
# behavior file round trip
# ===========================================================================

class TestBehaviorSchema:
    def test_round_trip(self):
        rows = oracle_table(hardy_behavior())
        parsed = parse_behavior_json(json.dumps(rows))
        assert oracle_table(parsed) == rows

    def test_integer_probabilities_accepted(self):
        rows = {"11": {"RR": 1, "RG": 0, "GR": 0, "GG": 0}}
        parsed = parse_behavior_json(json.dumps(rows))
        assert parsed.prob(("1", "1"), JOINT_OUTCOMES[0]) == 1.0

    @pytest.mark.parametrize("key", ["1\n", "\u20282", "1\x85", "\ud8001"])
    def test_setting_key_that_breaks_a_line_is_rejected(self, key):
        """Labels reach error messages as they are, so each must be printable."""
        text = json.dumps({key: UNIFORM_ROWS["11"], **UNIFORM_ROWS})
        with pytest.raises(ValueError, match=re.escape(f"bad setting key {key!r}: expected two "
                                                       "printable basis labels")):
            parse_behavior_json(text)

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError, match="non-empty JSON object"):
            parse_behavior_json("[]")


# ===========================================================================
# the failure contract for check-local files and for argv
# ===========================================================================

# A behavior file as text parts: (setting key, [(cell name, value token)]),
# written out by hand so that a key can be repeated.
VALID_FILES = [
    [(key, [(cell, json.dumps(p)) for cell, p in row.items()]) for key, row in table.items()]
    for table in (oracle_table(hardy_behavior()), UNIFORM_ROWS,
                  vertex_table(oracles.strategies()[6]))
]
LABEL_CHARS = st.sampled_from("\n\x85\u2028\r\ud800 a12")
ODD_KEYS = st.tuples(LABEL_CHARS, LABEL_CHARS).map("".join) | st.text(LABEL_CHARS, max_size=3)
ODD_TOKENS = st.sampled_from(['"0.25"', "true", "false", "null", "NaN", "-Infinity", "1e400",
                              str(10 ** 400), "[]", "{}"])


def file_text(parts) -> str:
    rows = (json.dumps(key) + ": {" + ", ".join(json.dumps(c) + ": " + v for c, v in row) + "}"
            for key, row in parts)
    return "{" + ", ".join(rows) + "}"


EDITS = ("nudge", "token", "drop-cell", "drop-setting", "repeat-cell", "repeat-setting",
         "rename-cell", "rename-setting")


@st.composite
def perturbed_files(draw) -> str:
    """A valid behavior file with up to two edits: a cell nudged by
    +-1e-12 to 1e-3; a value made a string, bool, NaN or 1e400; or a cell or
    setting dropped, repeated or renamed."""
    parts = [(key, list(row)) for key, row in draw(st.sampled_from(VALID_FILES))]
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=2)):
        k = draw(st.integers(0, len(parts) - 1))
        key, row = parts[k]
        if not row:
            continue
        j = draw(st.integers(0, len(row) - 1))
        cell, value = row[j]
        if edit == "nudge" and re.fullmatch(r"[-.\deE]+", value):  # a JSON number
            step = 10 ** draw(st.floats(-12, -3)) * draw(st.sampled_from([1, -1]))
            row[j] = (cell, repr(float(value) + step))
        elif edit == "token":
            row[j] = (cell, draw(ODD_TOKENS))
        elif edit == "drop-cell":
            del row[j]
        elif edit == "drop-setting" and len(parts) > 1:
            del parts[k]
        elif edit == "repeat-cell":
            row.append(row[j])
        elif edit == "repeat-setting":
            parts.append(parts[k])
        elif edit == "rename-cell":
            row[j] = (draw(st.text(st.sampled_from("RGr\n"), max_size=3)), value)
        elif edit == "rename-setting":
            parts[k] = (draw(ODD_KEYS), row)
    return file_text(parts)


arbitrary_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=20).map(json.dumps)


def check_local_keeps_the_contract(text: str, fmt: str) -> None:
    """Exit 0 or 2 prints nothing to stderr, and its JSON carries
    format_version; exit 1 prints one "error:" line and no stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "behavior.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-local", "--behavior", str(path), "--format", fmt])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and len(err) > len("error: \n")
        assert err.endswith("\n") and err.splitlines() == [err[:-1]]
    else:
        assert err == ""
        if fmt == "json":
            assert json.loads(out)["format_version"] == 1


# Each subcommand's flags, and for each flag the values argparse takes (some
# fail when the subcommand runs) and the values it rejects. --trials stays at
# most 10^5 so that every run is short.
SUBCOMMAND_FLAGS = {
    "tables": ("--format",),
    "simulate": ("--trials", "--seed", "--model", "--workers", "--log", "--format"),
    "interpret": ("--state", "--basis", "--against", "--format"),
    "check-local": ("--behavior", "--format"),
    "mixture-compare": ("--format",),
}
STATES = st.sampled_from(["hardy", "phi-plus", "phi-minus"])
PARSED = {
    "--format": st.sampled_from(["text", "json"]),
    "--trials": st.integers(1, 10 ** 5).map(str),
    "--seed": st.integers(0, 2 ** 64 - 1).map(str),
    "--model": st.sampled_from(["quantum", "realist"]),
    "--workers": st.integers(1, 4).map(str),
    "--log": st.sampled_from(["trials.csv", "no-such-dir/trials.csv", ".", ""]),
    "--state": STATES,
    "--against": STATES,
    "--basis": st.sampled_from(["zz", "zx", "xz", "xx", "11", "12", "21", "22"]),
    "--behavior": st.sampled_from(["hardy.json", "not-json.json", "missing.json"]),
}
BAD_INTS = st.sampled_from(["0", "-1", "x", "1.5", ""])
REJECTED = {
    **dict.fromkeys(("--format", "--model", "--state", "--against", "--basis"),
                    st.sampled_from(["csv", "bell", "33", ""])),
    "--trials": BAD_INTS,
    "--seed": st.sampled_from(["-1", "x", "1.5", str(2 ** 64)]),
    "--workers": BAD_INTS | st.just("two"),
}
# Tokens dropped anywhere after the subcommand: unknown flags and options, a
# known flag with no value after it, stray words and help.
NOISE = st.sampled_from(["--bogus", "-x", "--seed", "--format", "--", "extra", "-h", "--help"])


@st.composite
def argv_lists(draw) -> list[str]:
    """argv for one of the five subcommands, an unknown one or none. Each flag
    comes with probability 2/3 and its value is rejected with probability 1/4;
    then up to two noise tokens go anywhere after the subcommand, which can
    leave a flag without its value."""
    command = draw(st.sampled_from([*SUBCOMMAND_FLAGS, *SUBCOMMAND_FLAGS, "frobnicate", None]))
    argv = [] if command is None else [command]
    for flag in SUBCOMMAND_FLAGS.get(command, ()):
        if draw(st.sampled_from([True, True, False])):
            values = draw(st.sampled_from([PARSED, PARSED, PARSED, REJECTED]))
            argv += [flag, draw(values.get(flag, PARSED[flag]))]  # any path parses
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(min(1, len(argv)), len(argv))), draw(NOISE))
    return argv


@pytest.fixture
def argv_files(tmp_path, monkeypatch) -> None:
    """The working directory holds the Hardy rows and a file that is not JSON,
    so that --behavior and --log take relative names."""
    (tmp_path / "hardy.json").write_text(json.dumps(oracle_table(hardy_behavior())),
                                         encoding="utf-8")
    (tmp_path / "not-json.json").write_text("{11: RR}", encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def argv_keeps_the_contract(argv: list[str]) -> None:
    """A usage error is SystemExit(1) ending in one "hardylab ...: error:"
    line, -h is SystemExit(0); a run exits 0, 1 or 2, and exit 1 prints one
    "error:" line and no stdout. No traceback ever reaches stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, usage = main(argv), False
        except SystemExit as exc:
            code, usage = exc.code, True
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if usage and code == 1:
        error_lines = [line for line in err.splitlines() if ": error: " in line]
        assert error_lines == [err.splitlines()[-1]]
        assert re.match(r"hardylab( [a-z-]+)?: error: ", error_lines[0])
    elif code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert code in ((0,) if usage else (0, 2))
        assert err == ""


class TestFailureContract:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(perturbed_files(), st.sampled_from(["text", "json"]))
    def test_perturbed_behavior_files(self, text, fmt):
        check_local_keeps_the_contract(text, fmt)

    @settings(derandomize=True, deadline=None)
    @given(arbitrary_json, st.sampled_from(["text", "json"]))
    def test_arbitrary_json_files(self, text, fmt):
        check_local_keeps_the_contract(text, fmt)

    # argv_files sets up the working directory once; every example only reads
    # it or rewrites trials.csv, so sharing it between examples is safe.
    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argv_lists())
    def test_generated_argv(self, argv_files, argv):
        argv_keeps_the_contract(argv)
