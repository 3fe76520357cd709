#!/usr/bin/env python3
"""Import cost of a cold ``acm5`` spawn, module by module.

Spawns the six commands that ``tests/test_cold_start.py`` spawns (classify
of a structure that is not generalized quasi-Sasaki, classify of one that
is, ``family --verify``, ``family --identify``, ``validate`` of a golden
input and ``family --emit`` to a temporary file) as
``python -X importtime -m acm5.cli ...``, SPAWNS times each, with ``src`` on
``PYTHONPATH`` and ``PYTHONDONTWRITEBYTECODE=1``.  For each case it prints
the median wall time of a spawn and each imported module's median self and
cumulative import time in milliseconds, largest cumulative first.

A ``__pycache__`` under ``src`` would be read, so remove it first to measure
the benchmark's regime, in which every ``acm5`` module is compiled at import.
The module that ``-m`` runs is executed, not imported, so its own compile
and run time shows only in the wall time.

Run from the repository root:  python3 tools/import_cost.py
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASE_IDS = (
    "classify_json_su2_block",
    "classify_json_heis5_sasakian",
    "family_verify_1_0_2_0",
    "family_identify_1_0_2_0",
)
SPAWNS = 11


def argv_of(case):
    return [str(GOLDEN / "inputs" / case["input"]) if a == "{input}" else a for a in case["argv"]]


def spawn(argv, env):
    """(wall seconds, {module: (self us, cumulative us)}) of one spawn."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "acm5.cli", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        timeout=120, check=False,
    )
    wall = time.perf_counter() - start
    times = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line.removeprefix("import time:").split("|")
        times[name.strip()] = (int(own), int(cumulative))
    return wall, times


def main():
    cases = {c["id"]: c for c in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    if any((ROOT / "src").rglob("__pycache__")):
        print("note: src holds a __pycache__, so acm5 modules load from bytecode")
    with tempfile.TemporaryDirectory() as tmp:
        commands = [(case_id, argv_of(cases[case_id])) for case_id in CASE_IDS]
        commands.append(("validate_heis5_sasakian",
                         ["validate", str(GOLDEN / "inputs" / "heis5_sasakian.json")]))
        commands.append(("family_emit_1_0_0_0",
                         ["family", "--params", "1", "0", "0", "0", "--emit", f"{tmp}/w4.json"]))
        for label, argv in commands:
            report(label, argv, env)


def report(label, argv, env):
    """Print the median wall time and the per-module import times of one command."""
    runs = [spawn(argv, env) for _ in range(SPAWNS)]
    modules = {name for _, times in runs for name in times}
    rows = []
    for name in modules:
        samples = [times[name] for _, times in runs if name in times]
        rows.append((
            statistics.median(c for _, c in samples) / 1000,
            statistics.median(s for s, _ in samples) / 1000,
            name,
            len(samples),
        ))
    wall = statistics.median(w for w, _ in runs) * 1000
    shown = [Path(a).name if os.sep in a else a for a in argv]
    print(f"\n{label}: acm5 {' '.join(shown)}")
    print(f"median wall {wall:.1f} ms over {SPAWNS} spawns")
    print(f"{'module':40} {'self ms':>9} {'cumul ms':>9}")
    for cumulative, own, name, seen in sorted(rows, reverse=True):
        mark = "" if seen == SPAWNS else f"  (in {seen} of {SPAWNS} spawns)"
        print(f"{name:40} {own:9.2f} {cumulative:9.2f}{mark}")


if __name__ == "__main__":
    main()
