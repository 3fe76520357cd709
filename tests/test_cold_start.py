"""What a fresh interpreter imports, and what it prints.

``import acm5`` loads no layer: the first read of a public name imports only
its home module, and what that module imports, and binds the name (PEP 562).
Each command imports only the layers it runs.  ``validate`` loads the
exterior algebra and its scalars.  A ``classify`` spawn imports the layers
of the report up to the generalized quasi-Sasaki gate and adds
``connection`` (and its ``linalg``) only for a structure that passes it.
``family --emit`` and ``--identify`` add the frame layer and ``groups``, the
family's coframes and certificates; only ``--verify`` imports the replay,
``family``, with every layer it runs.  No spawn imports ``dataclasses`` or
``inspect``, whose import alone costs a spawn about 11 ms.  Each check runs
``python -m acm5.cli`` in a new interpreter, through ``runpy``, with ``src``
on ``PYTHONPATH``, and compares stdout with the golden file of the same
command, or with the output the same command gives in process.  The
``--help`` texts are pinned byte for byte at 80 columns in ``golden/help``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acm5
from acm5.cli import emit_coframe, main
from acm5.groups import build

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = {c["id"]: c for c in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))}
REPORT_LAYERS = {"acms", "errors", "exterior", "frames", "scalars", "torsionclass"}
GROUP_LAYERS = {"errors", "exterior", "frames", "groups", "scalars"}

# Runs the command line as ``python -m acm5.cli`` does; stderr ends with a
# JSON line: the exit code, every acm5 module loaded and which of
# ``dataclasses`` and ``inspect`` were loaded.
SPAWN = """
import json, runpy, sys
sys.argv[1:] = json.loads(sys.argv.pop(1))
try:
    runpy.run_module("acm5.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
loaded = sorted(n for n in sys.modules if n.partition(".")[0] == "acm5")
heavy = [n for n in ("dataclasses", "inspect") if n in sys.modules]
print(json.dumps({"exit": code, "modules": loaded, "heavy": heavy}), file=sys.stderr)
"""


def run_python(code, *args, flags=()):
    env = {k: v for k, v in os.environ.items() if k != "ACM5_COLOR"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, env=env, cwd=ROOT, timeout=120, check=False,
    )


def spawn(argv):
    """(stdout bytes, exit code, acm5 layers loaded, heavy standard library
    modules loaded) of one command line in a fresh interpreter."""
    proc = run_python(SPAWN, json.dumps(argv))
    status = json.loads(proc.stderr.decode("utf-8").splitlines()[-1])
    layers = {n.removeprefix("acm5.") for n in status["modules"] if n != "acm5"}
    return proc.stdout, status["exit"], layers, status["heavy"]


def spawn_case(case_id):
    """``spawn`` of one golden case."""
    case = CASES[case_id]
    argv = [str(GOLDEN / "inputs" / case["input"]) if a == "{input}" else a for a in case["argv"]]
    return spawn(argv)


@pytest.mark.parametrize(
    "case_id, layers",
    [
        ("classify_json_su2_block", REPORT_LAYERS),  # not generalized quasi-Sasaki
        ("classify_json_heis5_sasakian", REPORT_LAYERS | {"connection", "linalg"}),
        ("family_verify_1_0_2_0", REPORT_LAYERS | {"connection", "family", "groups", "linalg"}),
        ("family_identify_1_0_2_0", GROUP_LAYERS),
    ],
)
def test_spawn_imports_only_the_layers_it_runs(case_id, layers):
    out, code, loaded, heavy = spawn_case(case_id)
    assert code == CASES[case_id]["exit"]
    assert out == (GOLDEN / "expected" / f"{case_id}.out").read_bytes()
    assert loaded == layers
    assert heavy == []


def test_validate_spawn_imports_only_the_exterior_algebra():
    out, code, loaded, heavy = spawn(["validate", str(GOLDEN / "inputs" / "heis5_sasakian.json")])
    assert (code, out) == (0, b"ok: schema valid and d^2 = 0 on all generators\n")
    assert loaded == {"errors", "exterior", "scalars"}
    assert heavy == []


def test_emit_spawn_imports_only_the_group_layers(tmp_path):
    path = tmp_path / "spawned.json"
    argv = ["family", "--params", "1", "0", "0", "0", "--emit", str(path)]
    out, code, loaded, heavy = spawn(argv)
    assert (code, out) == (0, f"wrote {path}\n".encode())
    assert loaded == GROUP_LAYERS
    assert heavy == []
    emit_coframe(build(1, 0, 0, 0).coframe, tmp_path / "in_process.json")
    assert path.read_bytes() == (tmp_path / "in_process.json").read_bytes()


@pytest.mark.parametrize("case_id", ["family_verify_1_0_2_0", "family_identify_1_0_2_0"])
def test_family_spawns_import_no_json(case_id):
    """``family --verify`` and ``--identify`` read and write no document, so
    they do not import ``json``.  ``SPAWN`` imports it itself, so this spawn
    runs the command line under ``python -X importtime`` and reads the
    imported module names off its stderr."""
    argv = CASES[case_id]["argv"]
    code = "import runpy; runpy.run_module('acm5.cli', run_name='__main__')"
    proc = run_python(code, *argv, flags=("-X", "importtime"))
    assert proc.returncode == CASES[case_id]["exit"]
    assert proc.stdout == (GOLDEN / "expected" / f"{case_id}.out").read_bytes()
    imported = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.decode("utf-8").splitlines()
        if line.startswith("import time:")
    }
    assert "acm5.groups" in imported  # the command ran its layers
    assert not {name for name in imported if name.partition(".")[0] == "json"}


def test_import_acm5_loads_no_layer():
    proc = run_python(
        "import sys, acm5\n"
        "print(sorted(n for n in sys.modules if n.startswith('acm5.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


@pytest.mark.parametrize(
    "statement, layers",
    [
        ("import acm5; acm5.Form", {"errors", "exterior", "scalars"}),
        ("from acm5 import build", GROUP_LAYERS),
    ],
)
def test_first_read_of_a_name_imports_only_its_home_module(statement, layers):
    proc = run_python(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('acm5.'))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert {n.removeprefix("acm5.") for n in json.loads(proc.stdout)} == layers


def _home_modules():
    """Each public name with its home module, from the surface table of ``__init__``."""
    return {name: module for module, names in acm5._SURFACE.items() for name in names}


# Binds the surface by ``from acm5 import *``, reads an unknown name before
# and after that, and prints what each step found.
SURFACE = """
import importlib, json, sys
import acm5


def unknown():
    try:
        acm5.nope
    except AttributeError as exc:
        return str(exc)


homes = json.loads(sys.argv[1])
before = unknown()
namespace = {}
exec("from acm5 import *", namespace)
wrong = [n for n in acm5.__all__
         if getattr(acm5, n) is not getattr(importlib.import_module("acm5." + homes[n]), n)]
print(json.dumps({"star": sorted(set(namespace) - {"__builtins__"}), "all": sorted(acm5.__all__),
                  "wrong": wrong, "unknown": [before, unknown()]}))
"""


def test_package_surface_binds_on_first_read():
    homes = _home_modules()
    proc = run_python(SURFACE, json.dumps(homes))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["star"] == result["all"] == sorted(homes)
    assert result["wrong"] == []
    assert result["unknown"] == ["module 'acm5' has no attribute 'nope'"] * 2


def test_count_calls_sees_a_lazily_imported_layer():
    """count_calls patches ``family`` even when ``cli`` has not imported it yet."""
    proc = run_python(
        "import contextlib, io, json\n"
        "from acm5 import cli\n"
        "from helpers import count_calls\n"
        "with count_calls('family.build') as calls, contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['family', '--params', '1', '0', '2', '0', '--verify'])\n"
        "print(json.dumps([code, calls['family.build']]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 1]


@pytest.mark.parametrize("command", ["acm5", "validate", "classify", "family"])
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command == "acm5" else [command, "--help"])
    assert exc.value.code == 0
    expected = (GOLDEN / "help" / f"{command}.out").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected
