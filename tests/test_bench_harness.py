"""Guard for the trace harness of the benchmark (``bench/run.py --trace 1``).

``bench/tracing.py`` looks up each function it wraps by name and wraps the
``TrigScalar`` operators on the class; a refactor that renames or removes
one of them would break the traced run.  ``Tracer.install`` patches only
the ``acm5`` namespaces loaded before it runs, so a traced family command
in a fresh interpreter, after the harness's untraced warm-up, must still
record every family span.  The harness is loaded by path and left unchanged.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from acm5.groups import build
from acm5.scalars import TrigScalar

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("acm5_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_module_function():
    tracing = _tracing()
    missing = [
        f"acm5.{module}.{name}"
        for module, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"acm5.{module}"), name, None))
    ]
    assert missing == []


def test_trig_operators_are_defined_on_the_class():
    tracing = _tracing()
    for attrs in tracing.TRIG_OPS.values():
        for attr in attrs:
            assert callable(TrigScalar.__dict__.get(attr)), attr


def test_tracer_records_and_restores():
    tracing = _tracing()
    acms = importlib.import_module("acm5.acms")
    family = importlib.import_module("acm5.family")
    original = acms.nabla_phi
    inst = build(1, 0, 0, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert family.verify_identities(inst).ok
    finally:
        tracer.uninstall()
    assert acms.nabla_phi is original
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["family.verify_identities.calls"] == 1
    assert metrics["acms.nabla_phi.calls"] >= 1


# In a fresh interpreter: the commands once through cli.main untraced, as the
# harness's warm-up, then each again under an installed Tracer; prints each
# command's span count per traced function.
TRACED_FAMILY = """
import contextlib, importlib.util, io, json, sys
from collections import Counter
from acm5 import cli

spec = importlib.util.spec_from_file_location("acm5_bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
commands = json.loads(sys.argv[2])


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


codes = [run(argv) for argv in commands]
tracer = tracing.Tracer()
tracer.install()
try:
    for request, argv in enumerate(commands):
        tracer.request = request
        codes.append(run(argv))
finally:
    tracer.uninstall()
counts = [Counter(s[0] for s in tracer.spans if s[4] == r) for r in range(len(commands))]
print(json.dumps({"codes": codes, "counts": counts}))
"""

FAMILY_SPANS = ("family.build", "family.verify_identities", "family.identify_group",
                "frames.frame_change_verify")


def test_traced_family_commands_record_every_family_span():
    points = ("1 0 2 0", "2 0 2 0")  # an sl2+sl2 and a trig abelian6 certificate
    commands = [["family", "--params", *p.split(), f"--{a}"] for p in points
                for a in ("verify", "identify")]
    env = {**os.environ, "PYTHONPATH": str(TRACING.parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_FAMILY, str(TRACING), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 8
    verify, identify = (1, 1, 0, 0), (1, 0, 1, 1)  # each command's spans, in FAMILY_SPANS order
    assert [tuple(c.get(n, 0) for n in FAMILY_SPANS) for c in result["counts"]] == [
        verify, identify, verify, identify
    ]
