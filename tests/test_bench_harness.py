"""Guard for the trace harness of the benchmark (``bench/run.py --trace 1``).

``bench/tracing.py`` looks up each function it wraps by name and wraps the
``TrigScalar`` operators on the class; a refactor that renames or removes
one of them would break the traced run.  The harness is loaded by path and
left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

from acm5.family import build
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
