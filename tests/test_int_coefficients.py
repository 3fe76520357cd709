"""Integral coefficients are stored as ints, and every division stays exact.

The storage rule of ``scalars`` narrows an integral rational to an ``int``
wherever a Form stores a coefficient, so a coframe with integer structure
constants computes on ints.  Since int / int is a float in Python, each
division must still give a Fraction on exact operands: these tests pin that
``linalg`` eliminates int rows exactly, that no float reaches any value an
exact report or replay stores, and that the type tests which route a table
to its fast path accept ints.
"""

import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest

from acm5 import cli, family, linalg
from acm5.cli import _working_scale, classification_report, load_coframe
from acm5.errors import DegenerateInputError
from acm5.exterior import Form, coframe, d_squared_zero, e, proportionality, wedge
from acm5.scalars import TrigScalar, div, narrow
from helpers import GOLDEN_FAMILY_POINTS, GOLDEN_INPUTS, count_calls

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acm5"


# -- the storage rule and exact division -------------------------------------------


def test_narrow_and_div():
    assert type(narrow(Fraction(6, 3))) is int and narrow(Fraction(6, 3)) == 2
    assert narrow(Fraction(1, 2)) == Fraction(1, 2) and narrow(0.5) == 0.5
    assert div(1, 2) == Fraction(1, 2) and type(div(1, 2)) is Fraction
    assert type(div(1.0, 2.0)) is float and type(div(Fraction(1), 2)) is Fraction


def test_rref_divides_int_rows_exactly():
    # a float division would round 1/10**17 away next to 1 and lose the rank
    assert linalg.rank([[10**17, 1], [1, 0]]) == 2
    basis = linalg.nullspace([[1, 2], [2, 4]])
    assert basis == [[-2, 1]] and all(type(x) is Fraction for v in basis for x in v)
    x = linalg.solve_unique([[2, 1], [1, 3]], [1, 2])
    assert x == [Fraction(1, 5), Fraction(3, 5)] and all(type(v) is Fraction for v in x)


def test_rref_keeps_float_rows_float():
    assert linalg.nullspace([[1.0, 2.0], [2.0, 4.0]]) == [[-2.0, 1.0]]
    x = linalg.solve_unique([[2.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
    assert all(type(v) is float for v in x)


def test_operators_store_integral_coefficients_as_ints():
    f = wedge(e(1), e(2)).scale(Fraction(4, 2)) + wedge(e(3), e(4)).scale(Fraction(1, 2))
    assert {idx: type(v) for idx, v in f.terms.items()} == {(0, 1): int, (2, 3): Fraction}
    doubled = f + f
    assert all(type(v) is int for v in doubled.terms.values())
    ratio = proportionality(doubled, f)
    assert ratio == 2 and not isinstance(ratio, float)
    assert proportionality(f.scale(0.5), f) == 0.5


# -- no float in an exact computation ---------------------------------------------


def _leaves(obj, in_form=False):
    """(value, stored in a Form) for every scalar in obj: Form terms, trig
    coefficients, tensors, tuples, dicts and dataclass fields."""
    if isinstance(obj, bool) or isinstance(obj, str):
        return
    if isinstance(obj, (int, Fraction, float)):
        yield obj, in_form
    elif isinstance(obj, TrigScalar):
        for v in obj.coeffs.values():
            yield v, False
    elif isinstance(obj, Form):
        for v in obj.terms.values():
            yield from _leaves(v, True)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v, in_form)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _leaves(v, in_form)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), in_form)


def _recording(monkeypatch, module, names):
    """Record the result (and, for frame_change_verify, the frame change) of
    each named function as ``module`` calls it."""
    seen = {name: [] for name in names}

    def wrap(name, fn):
        def recorder(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen[name].append((out, args[1]) if name == "frame_change_verify" else out)
            return out

        return recorder

    for name in names:
        monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return seen


def _assert_exact(seen):
    """Every stage ran, and none stores a float or an integral Fraction in a Form."""
    for name, results in seen.items():
        assert results, f"{name} never ran"
        leaves = list(_leaves(results))
        floats = [v for v, _ in leaves if isinstance(v, float)]
        assert not floats, f"{name} stores floats: {floats[:3]}"
        wide = [v for v, in_form in leaves if in_form and type(v) is Fraction and v.denominator == 1]
        assert not wide, f"{name} stores integral Fractions in a Form: {wide[:3]}"


REPORT_STAGES = (
    "connection_from_structure",
    "intrinsic_torsion",
    "classify",
    "characteristic_connection",
    "torsion_type",
    "curvature",
    "kernel_of_f",
)


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_exact_report_stores_no_float(path, monkeypatch):
    seen = _recording(monkeypatch, cli, REPORT_STAGES)
    report, code = classification_report(load_coframe(str(path)))
    assert code == 0
    if report["characteristic_connection"] is None:  # not generalized quasi-Sasaki
        seen = {name: seen[name] for name in REPORT_STAGES[:3]}
    _assert_exact(seen)


@pytest.mark.parametrize("point", GOLDEN_FAMILY_POINTS, ids=lambda p: "_".join(map(str, p)))
def test_exact_replay_stores_no_float(point, monkeypatch):
    seen = _recording(monkeypatch, family, (*REPORT_STAGES, "build", "frame_change_verify"))
    assert family.verify_identities(family.build(*point)).ok
    if any(point):
        certified = family.identify_group(point).frame_change is not None
    else:
        with pytest.raises(DegenerateInputError):
            family.identify_group(point)
        certified = False
    if not certified:
        del seen["frame_change_verify"]
    _assert_exact(seen)


# -- type tests that route an all-int table ---------------------------------------


def test_integer_coframe_takes_the_constant_paths():
    c = coframe({"e5": 2 * (wedge(e(1), e(2)) + wedge(e(3), e(4))), "e1": 3 * wedge(e(2), e(3))})
    assert {type(v) for f in c.d_table.values() for v in f.terms.values()} == {int}
    with count_calls("exterior.ext_d") as counts:
        assert d_squared_zero(c).ok
    assert counts["exterior.ext_d"] == 0
    scaled, unit = _working_scale(c)
    assert unit == Fraction(1, 4)
    assert {type(v) for f in scaled.d_table.values() for v in f.terms.values()} == {int}


# -- ratchet on float branches ------------------------------------------------------

FLOAT_BRANCHES_OUTSIDE_SCALARS = 5


def test_no_new_float_branches_outside_scalars():
    """The int path adds no ``isinstance(..., float)`` test; the ones left are
    to move behind a scalar-kind query in ``scalars``, not to grow."""
    lines = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "scalars.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"isinstance\(.*\bfloat\b", line)
    ]
    assert len(lines) <= FLOAT_BRANCHES_OUTSIDE_SCALARS, lines


def test_form_mode_read_only_in_exterior_and_cli():
    """The mode rule lives in ``exterior`` (a sum may not mix exact and float
    forms, a product may take an exact factor), and ``cli`` picks the
    working scale by a coframe's mode; no other module reads ``.mode``."""
    reads = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("exterior.py", "cli.py")
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\.mode\b", line)
    ]
    assert reads == [], reads
