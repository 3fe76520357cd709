"""Integral coefficients are stored as ints, and every division stays exact.

The storage rule of ``scalars`` narrows an integral rational to an ``int``
wherever a Form stores a coefficient, so a coframe with integer structure
constants computes on ints.  Since int / int is a float in Python, each
division must still give a Fraction on exact operands: these tests pin that
``linalg`` eliminates int rows exactly, that no float reaches any value an
exact report or replay stores, and that the type tests which route a table
to its fast path accept ints.  The 1/2 of the difference tensor and the 1/4
and 1/3 of the Cartan split go through ``div_const``: on the family they
leave ints, off it they give the Fractions of the ``Fraction(1, n)``
oracles, and on floats they keep the oracles' bits.
"""

import dataclasses
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from acm5 import cli, family, linalg
from acm5.acms import (
    COMPLEMENT_FRAME,
    F,
    Tensor3,
    d_eta_form,
    derived,
    frame_connection,
    gamma_form,
    nijenhuis,
    predicates,
)
from acm5.cli import _to_float_coframe, _working_scale, classification_report, load_coframe
from acm5.connection import (
    characteristic_connection,
    kernel_of_f,
    parallel_spinor_check,
    spinor_space,
    torsion_type,
)
from acm5.errors import DegenerateInputError, NotGeneralizedQuasiSasakiError
from acm5.exterior import Form, coframe, d_squared_zero, e, proportionality, wedge
from acm5.frames import connection_from_structure
from acm5.scalars import TrigScalar, div, div_const, narrow
from acm5.torsionclass import cartan_decompose, classify, intrinsic_torsion, module_frames
from helpers import (
    GOLDEN_FAMILY_POINTS,
    GOLDEN_INPUTS,
    cartan_decompose_oracle,
    count_calls,
    difference_tensor_oracle,
    replay_points,
    rotate,
    trig_mul_oracle,
    u2_rotation,
)
from test_scalars import _coefs, operands, trig_scalars

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "acm5"


# -- the storage rule and exact division -------------------------------------------


def test_narrow_and_div():
    assert type(narrow(Fraction(6, 3))) is int and narrow(Fraction(6, 3)) == 2
    assert narrow(Fraction(1, 2)) == Fraction(1, 2) and narrow(0.5) == 0.5
    assert div(1, 2) == Fraction(1, 2) and type(div(1, 2)) is Fraction
    assert type(div(1.0, 2.0)) is float and type(div(Fraction(1), 2)) is Fraction


def test_div_const_keeps_ints_and_the_fraction_product():
    assert type(div_const(-6, 3)) is int and div_const(-6, 3) == -2
    assert div_const(-7, 4) == Fraction(-7, 4) and div_const(Fraction(8, 3), 4) == Fraction(2, 3)
    assert type(div_const(Fraction(9, 3), 3)) is int
    x = 5 / 7
    assert div_const(x, 3).hex() == (Fraction(1, 3) * x).hex() != (x / 3).hex()
    assert div_const(TrigScalar.atom("c", 1, 0, 2), 2) == TrigScalar.atom("c", 1, 0)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False), st.sampled_from([2, 3, 4]))
@example(0.0, 2)
@example(-0.0, 3)
@example(5e-324, 3)
@example(-2.2250738585072014e-308, 3)
@example(1.7976931348623157e308, 3)
@example(-1e-320, 4)
def test_div_const_of_a_float_keeps_the_fraction_product_bits(x, n):
    """``a * (1 / n)`` and ``a * Fraction(1, n)`` round alike, signed zeros,
    subnormals and the largest floats included."""
    got = div_const(x, n)
    assert type(got) is float and got.hex() == (x * Fraction(1, n)).hex()


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


# -- the trig ring on ints ---------------------------------------------------------


def _wide(values):
    """The integral Fractions among values: what the storage rule narrows to ints."""
    return [v for v in values if type(v) is Fraction and v.denominator == 1]


@pytest.mark.parametrize("point, tag", [((2, 0, 2, 0), "abelian6"), ((2, 0, -4, 0), "heis5+R")])
def test_trig_certificates_store_int_coefficients(point, tag):
    ident = family.identify_group(point)
    assert ident.tag == tag
    fc = ident.frame_change
    trig = [c for f in fc.new_forms for c in f.terms.values() if isinstance(c, TrigScalar)]
    assert trig, "the certificate has no trig coefficient"
    coefficients = [v for v, _ in _leaves(fc)]
    assert not _wide(coefficients), _wide(coefficients)[:3]
    assert any(type(v) is int for c in trig for v in c.coeffs.values())


@given(trig_scalars, operands)
def test_trig_ring_results_store_narrowed_coefficients(x, y):
    for r in (x + y, y + x, x - y, y - x, x * y, y * x, -x):
        if isinstance(r, TrigScalar):  # a constant result is a Fraction and stores nothing
            assert not _wide(r.coeffs.values()), r


ring_operands = st.one_of(trig_scalars, st.integers(-3, 3), _coefs, st.sampled_from([0, Fraction(0)]))


def _as_coeffs(r):
    """A ring result as a coefficient dict, a constant under the key of cos(0)."""
    if isinstance(r, TrigScalar):
        return r.coeffs
    return {("c", 0, 0): r} if r else {}


@settings(max_examples=300, deadline=None)
@given(trig_scalars, ring_operands)
def test_trig_product_matches_the_fraction_oracle(x, y):
    for a, b in ((x, y), (y, x)):
        got, want = _as_coeffs(a * b), trig_mul_oracle(a, b)
        assert got.keys() == want.keys()
        assert all(got[k] == v for k, v in want.items())


PHASES = ((0.3, 1.1), (-2.0, 0.7), (1.9, -0.4))


def _at(x, f, g):
    """The float value of a ring element at the phases (f, g)."""
    if not isinstance(x, TrigScalar):
        return float(x)
    wave = {"c": math.cos, "s": math.sin}
    return sum(float(c) * wave[kind](m * f + n * g) for (kind, m, n), c in x.coeffs.items())


@settings(max_examples=200, deadline=None)
@given(trig_scalars, ring_operands)
def test_trig_product_evaluates_to_the_product_of_values(x, y):
    """A check that reads no representation: cos and sin of the phases themselves."""
    for f, g in PHASES:
        for r in (x * y, y * x):
            want = _at(x, f, g) * _at(y, f, g)
            assert math.isclose(_at(r, f, g), want, rel_tol=1e-9, abs_tol=1e-9)


# -- the difference tensor and the Cartan split --------------------------------------


def _entry(v):
    """An exact entry by its value, a float entry by its bits."""
    return ("float", v.hex()) if isinstance(v, float) else ("exact", v)


def _same_cubes(lib, oracle):
    return [_entry(x) for m in lib for r in m for x in r] == [
        _entry(x) for m in oracle for r in m for x in r
    ]


def _tensor(cube):
    return Tensor3(tuple(v for m in cube for r in m for v in r))


def _same_parts(parts, oracle):
    return all(_same_cubes(t.values, oracle[name]) for name, t in parts.parts().items()) and [
        _entry(x) for x in parts.vector
    ] == [_entry(x) for x in oracle["vector"]]


# A U(2)x1 rotation keeps the structure; its denominators make the float
# cyclic sums non-dyadic, where x / 3 and x * float(1/3) can differ.
ROTATION = u2_rotation(1, Fraction(1, 2), -1, 2)


@pytest.mark.parametrize("frame", ["given", "rotated"])
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_difference_tensor_and_cartan_split_match_the_fraction_oracles(path, mode, frame):
    """Exact at integer scale by value, ``--float`` at unit scale by bits."""
    c = load_coframe(str(path))
    if frame == "rotated":
        c = rotate(c, ROTATION)
    c, _ = _working_scale(_to_float_coframe(c) if mode == "float" else c)
    fc = frame_connection(connection_from_structure(c))
    if not predicates(fc).generalized_quasi_sasaki:
        with pytest.raises(NotGeneralizedQuasiSasakiError):
            characteristic_connection(fc)
        return
    cc = characteristic_connection(fc)
    a = difference_tensor_oracle(
        derived(fc, d_eta_form), derived(fc, gamma_form), derived(fc, nijenhuis).values
    )
    assert _same_cubes(cc.a_c.values, a)
    torsion = [[[a[x][y][z] - a[y][x][z] for z in range(5)] for y in range(5)] for x in range(5)]
    assert _same_cubes(cc.torsion.values, torsion)
    as_a = [[[torsion[y][z][x] for z in range(5)] for y in range(5)] for x in range(5)]
    for cube in (a, as_a):
        assert _same_parts(cartan_decompose(_tensor(cube)), cartan_decompose_oracle(cube))


def _parts_entries(point):
    """Every entry of A, the torsion and its three Cartan parts at a family point."""
    inst = family.build(*point)
    cc = characteristic_connection(inst.omega_g)
    parts, _ = torsion_type(cc)
    tensors = (cc.a_c, cc.torsion, *parts.parts().values())
    return [v for t in tensors for m in t.values for r in m for v in r] + list(parts.vector)


@pytest.mark.parametrize(
    "point",
    GOLDEN_FAMILY_POINTS + replay_points(1),
    ids=lambda p: "_".join(map(str, p)),
)
def test_difference_tensor_and_cartan_parts_are_ints_on_the_family(point):
    assert {type(v) for v in _parts_entries(point)} == {int}


def _antisymmetric_cube(draw, entry):
    upper = {(i, j, k): draw(entry) for i in range(5) for j in range(5) for k in range(j + 1, 5)}
    return [
        [[upper.get((i, j, k), 0) - upper.get((i, k, j), 0) for k in range(5)] for j in range(5)]
        for i in range(5)
    ]


@st.composite
def off_lattice_cubes(draw):
    """Last-two-antisymmetric cubes of ints or Fractions."""
    ints = st.integers(-9, 9)
    entry = draw(st.sampled_from([ints, st.fractions(-4, 4, max_denominator=6)]))
    return _antisymmetric_cube(draw, entry)


@settings(max_examples=40, deadline=None)
@given(off_lattice_cubes())
def test_cartan_split_off_the_lattice_matches_the_oracle(cube):
    """A trace that 4 does not divide and a cyclic sum that 3 does not divide
    give non-integral Fractions; the parts still sum back to the tensor."""
    oracle = cartan_decompose_oracle(cube)
    assume(any(x.denominator > 1 for x in oracle["vector"]))
    assume(any(x.denominator > 1 for m in oracle["skew"] for r in m for x in r))
    a = _tensor(cube)
    parts = cartan_decompose(a)
    assert _same_parts(parts, oracle)
    for x in (*parts.vector, *(v for m in parts.skew.values for r in m for v in r)):
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)
    total = parts.vectorial + parts.skew + parts.cyclic
    assert total.values == a.values


# -- the torsion projection and the module norms ---------------------------------


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_torsion_projection_and_module_norms_are_ints_at_integer_scale(path):
    """Inner products start from the int 0 and divide through ``scalars.div``
    or ``div_const``, and an integral result is stored as an int: the Gram values of the
    complement frame and the module frames, the complement coordinates of
    the intrinsic torsion and its module norms."""
    assert {type(g) for _, g in COMPLEMENT_FRAME} == {int}
    assert {type(g) for pairs in module_frames().values() for _, g in pairs} == {int}
    c, _ = _working_scale(load_coframe(str(path)))
    gamma = intrinsic_torsion(frame_connection(connection_from_structure(c)))
    assert {type(x) for x in gamma.as_coords()} == {int}
    report = classify(gamma)
    assert {type(v) for v in report.norms.values()} == {int}
    assert type(report.total_norm_sq) is int


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


# -- spinor kernels on ints -----------------------------------------------------------


def test_spinor_kernel_basis_is_stored_as_ints():
    """``linalg.nullspace`` returns Fractions; ``spinor_kernel`` narrows them."""
    assert {type(x) for v in kernel_of_f().kernel_basis for x in v} == {int}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_parallel_spinor_verdicts_keep_the_fraction_basis_verdicts(path, mode):
    c = load_coframe(str(path))
    c, _ = _working_scale(_to_float_coframe(c) if mode == "float" else c)
    fc = frame_connection(connection_from_structure(c))
    if not predicates(fc).generalized_quasi_sasaki:
        return
    omega = characteristic_connection(fc).omega_c
    space = spinor_space()
    fractions = linalg.nullspace(space.action_of_2form(F))
    assert {type(x) for v in fractions for x in v} == {Fraction}
    assert parallel_spinor_check(space, omega, kernel_of_f().kernel_basis) is parallel_spinor_check(
        space, omega, fractions
    )


# -- ratchet on Form.evaluate reads ---------------------------------------------------

EVALUATE_READS_OUTSIDE_EXTERIOR = 0
EVALUATE_READ = re.compile(r"\.evaluate\b")


def test_no_evaluate_reads_outside_exterior():
    """A full read of a form goes through ``exterior.dense2``/``dense3``, one
    table per form, not one ``Form.evaluate`` call per entry."""
    reads = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "exterior.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if EVALUATE_READ.search(line)
    ]
    assert len(reads) <= EVALUATE_READS_OUTSIDE_EXTERIOR, reads


# -- ratchet on float branches ------------------------------------------------------

FLOAT_BRANCHES_OUTSIDE_SCALARS = 0
FLOAT_BRANCHES_IN_SCALARS = 4
# a per-value float test: isinstance(..., float), type(...) is [not] float, or a {float} type set
FLOAT_BRANCH = re.compile(r"isinstance\(.*\bfloat\b|type\(.*\) is (not )?float\b|\{float\}")


def _float_branches(inside_scalars):
    return [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        if (path.name == "scalars.py") == inside_scalars
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if FLOAT_BRANCH.search(line)
    ]


def test_no_new_float_branches_outside_scalars():
    """Only ``scalars`` tells the kinds apart value by value; every other
    module reads a form's kind or asks ``scalars`` once per table."""
    lines = _float_branches(inside_scalars=False)
    assert len(lines) <= FLOAT_BRANCHES_OUTSIDE_SCALARS, lines


def test_float_branches_in_scalars_stay_few():
    lines = _float_branches(inside_scalars=True)
    assert len(lines) <= FLOAT_BRANCHES_IN_SCALARS, lines


def test_float_branch_pattern_matches_every_spelling():
    for line in ("isinstance(x, float)", "type(x) is float", "type(v) is not float", "{float}"):
        assert FLOAT_BRANCH.search(line), line
    assert not FLOAT_BRANCH.search("_with_coefficients(c, float)")


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
