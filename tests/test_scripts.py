"""The scripts reproduce what the repository commits and prints.

`scripts/export_scenarios.py` must regenerate every file in `scenarios/`
byte for byte (compared in memory; nothing is written), the output of
`scripts/cubic_walkthrough.py` (root lifting, Galois orbit, tau and the
canonical decomposition of the cubic) is pinned by its sha256,
`scripts/verify_catalog.py` passes every catalog tower,
`scripts/verify_startup.py` times a fresh-process verify in its parts,
`scripts/code_lines.py` counts the lines and code lines of each module, and
`scripts/unrun_lines.py` lists the lines a pytest run never executes.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from orefield.catalog import scenario_catalog, scenario_names, tower_catalog, tower_names
from orefield.scenario_io import dump_document

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
WALKTHROUGH_SHA256 = "86e7b541883eda5a210d63f4589ec0581a0d8f4d6cfc20ffdc5726d8b8640a0b"


def _export_script():
    spec = importlib.util.spec_from_file_location("export_scenarios", SCRIPTS / "export_scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPORT = _export_script()


def test_every_committed_scenario_file_is_exported():
    committed = sorted(path.stem for path in EXPORT.OUT.glob("*.yaml"))
    assert committed == sorted(scenario_names() + tower_names())


@pytest.mark.parametrize("name", scenario_names() + tower_names())
def test_export_reproduces_the_committed_scenario_file(name):
    path = EXPORT.OUT / f"{name}.yaml"
    where = path.relative_to(EXPORT.OUT.parent)
    if name in scenario_names():
        header = EXPORT.EXTENSION_HEADER.format(name=name, path=where)
        doc = scenario_catalog(name)
    else:
        header = EXPORT.TOWER_HEADER.format(name=name, path=where)
        doc = tower_catalog(name, validate=False)
    assert dump_document(doc, header=header) == path.read_text(encoding="utf-8")


def test_cubic_walkthrough_output_is_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(SCRIPTS / "cubic_walkthrough.py"), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == WALKTHROUGH_SHA256


def test_verify_catalog_passes_every_tower(monkeypatch):
    monkeypatch.setattr("sys.argv", ["verify_catalog.py", "--seed", "7"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "verify_catalog.py"), run_name="__main__")
    assert exit_info.value.code == 0
    lines = out.getvalue().splitlines()
    assert [line.split(":")[0] for line in lines] == list(tower_names())
    assert all(", 0 failing, " in line and "[fail]" not in line for line in lines)


def test_verify_startup_times_a_fresh_verify(monkeypatch):
    monkeypatch.setattr("sys.argv", ["verify_startup.py", "--towers", "T3", "--runs", "1"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "verify_startup.py"), run_name="__main__")
    assert exit_info.value.code == 0
    lines = out.getvalue().splitlines()
    tower = next(line.split() for line in lines if line.startswith("T3 "))
    # import, first, second and rebuilt; exit 0 says all three reports agree
    assert all(float(ms) > 0 for ms in tower[1:5])
    # the first verify imports what the catalog scenarios do not need
    assert "orefield.factor," in tower and "orefield.sampling" in " ".join(tower)
    modules = {line.split()[0]: line.split()[1:] for line in lines[lines.index("") + 2 :]}
    assert {"orefield.cli", "orefield.extend", "orefield.factor", "total"} <= set(modules)
    assert int(modules["total"][0]) == sum(int(lines) for name, (lines, _) in modules.items() if name != "total")


def _code_lines(monkeypatch, directory):
    """{module: (lines, code lines)} and the totals row of
    `scripts/code_lines.py` run on a directory."""
    monkeypatch.setattr("sys.argv", ["code_lines.py", str(directory)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "code_lines.py"), run_name="__main__")
    assert exit_info.value.code == 0
    rows = {name: (int(lines), int(code)) for lines, code, name in map(str.split, out.getvalue().splitlines()[1:])}
    return rows, rows.pop("total")


def test_code_lines_sums_its_columns_and_skips_docstrings(monkeypatch, tmp_path):
    (tmp_path / "a.py").write_text('import os\n\n# a comment\nx = """two\nlines"""\n')
    (tmp_path / "b.py").write_text("def f():\n    return 1\n")
    rows, total = _code_lines(monkeypatch, tmp_path)
    # a string that is no docstring counts on every line it spans
    assert rows == {"a.py": (5, 3), "b.py": (2, 2)}
    assert total == tuple(map(sum, zip(*rows.values())))
    (tmp_path / "b.py").write_text('"""A module."""\n\n\ndef f():\n    """Return\n    one."""\n    return 1\n')
    rows, total = _code_lines(monkeypatch, tmp_path)
    assert rows["b.py"] == (7, 2) and total == (12, 5)


def test_unrun_lines_lists_only_the_function_no_test_calls(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def used(x):\n    y = x + 1\n    return y\n\n\ndef unused(x):\n    if x:\n        return 2\n    return 3\n"
    )
    (tmp_path / "test_mod.py").write_text("from pkg.mod import used\n\n\ndef test_used():\n    assert used(1) == 2\n")
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    argv = [sys.executable, str(SCRIPTS / "unrun_lines.py"), "--source", str(package), "-q", "-p", "no:cacheprovider", "test_mod.py"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # the def lines run when the module is imported; unused's body never runs
    assert done.stdout.splitlines()[-2:] == ["mod.py: 3 unrun: 7-9", "total: 3 unrun lines in 2 modules"]
