"""The README's Library tour and `simulate` example print what the README shows."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

import oracles
from hardylab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_tour_prints_its_comments_and_the_oracle_values():
    code = library_tour()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # the first word of each print line's comment, without a trailing comma
    commented = [line.split("#", 1)[1].split()[0].rstrip(",")
                 for line in code.splitlines() if line.startswith("print(")]
    assert printed == commented
    passed, verdict, margin, fraction = printed
    assert (passed, verdict) == ("True", "infeasible")
    exact_margin = max(oracles.chsh_values(oracles.hardy_behavior())) - 2
    assert exact_margin == oracles.sp.Rational(9, 25)
    assert float(margin) == pytest.approx(float(exact_margin), abs=1e-12)
    exact_fraction = oracles.noncontextual_fraction(oracles.hardy_behavior())
    assert exact_fraction == oracles.sp.Rational(6233, 51200)
    assert float(fraction) == pytest.approx(float(exact_fraction), abs=1e-12)


def test_simulate_example_is_the_commands_stdout(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"\n  ```text\n  \$ hardylab (simulate .*?)\n(.*?)\n  ```", text, re.DOTALL)
    argv = block.group(1).split()
    assert argv == ["simulate", "--trials", "100000", "--seed", "42"]
    assert main(argv) == 0
    shown = [line.removeprefix("  ") for line in block.group(2).splitlines()]
    assert shown == capsys.readouterr().out.splitlines()
