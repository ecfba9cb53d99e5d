"""Which subcommands load scipy: only check-local's LP does.

Each case runs in a fresh interpreter, so sys.modules shows exactly what one
invocation imported. No case measures time.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardylab
from hardylab.qstate import hardy_behavior
from test_locality import oracle_table

# Runs cli.main on argv with stdout captured, then prints one JSON line:
# [exit code, whether scipy is in sys.modules].
MAIN_PROBE = """
import contextlib, io, json, sys
from hardylab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, "scipy" in sys.modules]))
"""

# Runs cli.main on argv in an interpreter where importing scipy fails.
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from hardylab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    # the child imports the package under test, whether installed or not
    src = str(Path(hardylab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def probe_main(*argv: str) -> tuple[int, bool]:
    proc = run_python(MAIN_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    code, scipy_loaded = json.loads(proc.stdout)
    return code, scipy_loaded


@pytest.fixture
def hardy_file(tmp_path) -> str:
    path = tmp_path / "hardy.json"
    path.write_text(json.dumps(oracle_table(hardy_behavior())), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [
    ("tables",),
    ("simulate", "--trials", "1000", "--seed", "5"),
    ("interpret", "--state", "hardy", "--basis", "22", "--against", "hardy"),
    ("mixture-compare",),
], ids=lambda argv: argv[0])
def test_subcommand_without_lp_loads_no_scipy(argv):
    assert probe_main(*argv) == (0, False)


def test_simulate_with_log_loads_no_scipy(tmp_path):
    log = tmp_path / "trials.csv"
    assert probe_main("simulate", "--trials", "1000", "--seed", "5",
                      "--log", str(log)) == (0, False)
    assert log.stat().st_size > 0


def test_check_local_loads_scipy(hardy_file):
    assert probe_main("check-local", "--behavior", hardy_file) == (2, True)


def test_locality_closed_forms_load_no_scipy():
    proc = run_python(
        "import json, sys\n"
        "from hardylab.locality import (FEAS_TOL, HARDY_SETTINGS, WITNESS_TOL,\n"
        "                               hardy_witness, noncontextual_fraction)\n"
        "from hardylab.qstate import hardy_behavior\n"
        "b = hardy_behavior()\n"
        "print(json.dumps([noncontextual_fraction(b), hardy_witness(b),"
        " 'scipy' in sys.modules]))")
    assert proc.returncode == 0, proc.stderr
    fraction, witness, scipy_loaded = json.loads(proc.stdout)
    assert fraction == pytest.approx(6233 / 51200, abs=1e-12)
    assert witness == pytest.approx(0.09, abs=1e-12)
    assert scipy_loaded is False


class TestWithoutScipy:
    def test_check_local_prints_one_error_line(self, hardy_file):
        proc = run_python(NO_SCIPY, "check-local", "--behavior", hardy_file)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "scipy" in lines[0]

    def test_tables_still_runs(self):
        proc = run_python(NO_SCIPY, "tables")
        assert proc.returncode == 0, proc.stderr
        assert "setting (2,2)" in proc.stdout


# Runs cli.main on argv with stdout captured, then prints one JSON line: the
# exit code, and which of scipy's LP modules are in sys.modules.
LP_MODULES_PROBE = """
import contextlib, io, json, sys
from hardylab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, {name: name in sys.modules for name in
                         ("scipy.optimize", "scipy.sparse", "scipy.optimize._highspy._core")}]))
"""


def test_check_local_loads_only_the_highs_bindings(hardy_file):
    proc = run_python(LP_MODULES_PROBE, "check-local", "--behavior", hardy_file)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [2, {"scipy.optimize": False, "scipy.sparse": False,
                                           "scipy.optimize._highspy._core": True}]


# Solves the Hardy rows through hardylab first, then imports scipy.optimize
# and solves LP1 again with linprog. Prints one JSON line: whether
# scipy.optimize was loaded before its import, whether scipy's _core is the
# module hardylab loaded, and LP1's x from each side.
SINGLE_COPY_PROBE = """
import json, sys
import numpy as np
from hardylab import locality
from hardylab.qstate import hardy_behavior

b = np.array([p for _, _, p in hardy_behavior().cells()])
assert locality.local_membership(hardy_behavior()).verdict == "infeasible"
lps = locality._highs()
x, _ = lps.fit.solve(lps.options, row_upper_=np.concatenate([b, -b, [1.0]]))
loaded_before = "scipy.optimize" in sys.modules

from scipy.optimize import linprog
from scipy.optimize._highspy import _core
name = "scipy.optimize._highspy._core"
same = _core is sys.modules[name] and _core is lps.fit.core and _core is lps.separate.core
vertices, neg = locality._VERTICES, -np.ones((16, 1))
fit = linprog(np.concatenate([np.zeros(16), [1.0]]),
              A_ub=np.block([[vertices, neg], [-vertices, neg]]), b_ub=np.concatenate([b, -b]),
              A_eq=np.concatenate([np.ones(16), [0.0]]).reshape(1, -1), b_eq=[1.0],
              bounds=[(0, None)] * 17, method="highs")
print(json.dumps([loaded_before, same, fit.success, x.tolist(), fit.x.tolist()]))
"""


def test_scipy_optimize_reuses_the_loaded_bindings():
    proc = run_python(SINGLE_COPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    loaded_before, same, success, x, reference = json.loads(proc.stdout)
    assert loaded_before is False
    assert same is True
    assert success is True
    assert x == reference


# Runs cli.main on argv[2:] with the directory argv[1] first on sys.path.
FIRST_ON_PATH = """
import sys
sys.path.insert(0, sys.argv.pop(1))
from hardylab.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestWithoutHighsBindings:
    """A scipy package whose optimize/_highspy holds no _core extension."""

    @pytest.fixture
    def fake_scipy(self, tmp_path) -> str:
        package = tmp_path / "scipy"
        (package / "optimize" / "_highspy").mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        return str(tmp_path)

    def test_check_local_prints_one_error_line(self, fake_scipy, hardy_file):
        proc = run_python(FIRST_ON_PATH, fake_scipy, "check-local", "--behavior", hardy_file)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "scipy.optimize._highspy._core" in lines[0]
        assert "Traceback" not in proc.stderr

    def test_tables_still_runs(self, fake_scipy):
        proc = run_python(FIRST_ON_PATH, fake_scipy, "tables")
        assert proc.returncode == 0, proc.stderr
        assert "setting (2,2)" in proc.stdout
