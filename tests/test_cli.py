"""Command-line behavior: formats, exit codes, and byte-stable output."""
from __future__ import annotations

import json
import re

import pytest

from hardylab.cli import main, parse_behavior_json
from hardylab.qstate import JOINT_OUTCOMES, hardy_behavior
from test_locality import oracle_table

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

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError, match="non-empty JSON object"):
            parse_behavior_json("[]")
