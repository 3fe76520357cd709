"""A form's kind is decided once, when it is built, and agrees with its terms.

``Form.__init__`` takes the kind from the terms it validates,
``exterior.stored`` reads it from the library-computed terms it keeps, and
the operators of ``exterior`` build their results through ``_trusted`` with
the kind that the kind rule of ``scalars`` gives them; nothing scans a form
for its kind after that.  The first tests record every form built while the
CLI classifies each golden input (exact and ``--float``) and replays each
point of the benchmark's seed-1 replay corpus, and compare each non-empty
form's stored kind with a scan of its terms.  The property tests pin the
rule itself on exact, float and trig forms, and ``stored`` against the
validating ``form``; forms of two kinds that both hold terms are never
``==``.  A ratchet keeps ``_trusted`` and the validating
constructors out of every other module's functions.
"""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5 import cli, exterior
from acm5.errors import ModeMismatchError
from acm5.exterior import Form, form, stored, wedge
from acm5.scalars import TrigScalar
from helpers import GOLDEN, GOLDEN_INPUTS, bits, replay_points, to_float_coframe


def _scanned_kind(terms):
    return "float" if any(type(v) is float for v in terms.values()) else "exact"


@pytest.fixture
def built_forms(monkeypatch):
    """Check each form as it is built; return the tally of kinds seen and the mismatches."""
    seen = {"exact": 0, "float": 0, "empty": 0, "mismatches": []}

    def check(f):
        if not f.terms:
            seen["empty"] += 1
        elif f.mode != _scanned_kind(f.terms):
            seen["mismatches"].append(f"{f.mode} form {f!r}")
        else:
            seen[f.mode] += 1

    trusted, init = exterior._trusted, Form.__init__

    def recording_trusted(degree, terms, mode):
        f = trusted(degree, terms, mode)
        check(f)
        return f

    def recording_init(self, degree, terms):
        init(self, degree, terms)
        check(self)

    monkeypatch.setattr(exterior, "_trusted", recording_trusted)
    monkeypatch.setattr(Form, "__init__", recording_init)
    return seen


def _run(argv, capsys):
    code = cli.main(argv)
    capsys.readouterr()
    return code


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_every_form_built_by_classify_has_the_kind_of_its_terms(path, built_forms, capsys):
    for flags in (["--json"], ["--json", "--float"]):
        assert _run(["classify", str(path), *flags], capsys) in (0, 1)
    assert built_forms["mismatches"] == []
    if path.stem != "abelian":  # every form of the abelian coframe is zero
        assert built_forms["exact"] and built_forms["float"]


def test_every_form_built_by_the_replay_has_the_kind_of_its_terms(built_forms, capsys):
    for point in replay_points(1):
        params = [str(p) for p in point]
        for action in ("--verify", "--identify"):
            _run(["family", "--params", *params, action], capsys)
    assert built_forms["mismatches"] == []
    assert built_forms["exact"]


def test_kind_is_stored_and_an_exact_zero_test_reads_no_term():
    class Unscannable(dict):
        def __iter__(self):
            raise AssertionError("the terms were scanned")

        values = items = keys = __iter__

    f = exterior._trusted(2, Unscannable({(0, 1): 3}), "exact")
    assert not f.is_zero() and f.mode == "exact"
    g = form(1, {(0,): 0.5})
    assert vars(g)["mode"] == "float" and vars(form(1, {(0,): 2}))["mode"] == "exact"


# -- the kind rule ---------------------------------------------------------------

rationals = st.fractions(-4, 4, max_denominator=5).filter(bool)
floats = st.floats(-1e3, 1e3, allow_nan=False)
trigs = st.builds(
    lambda q0, q1, kind, m: q0 + q1 * TrigScalar.atom(kind, m, 1),
    st.fractions(-2, 2, max_denominator=3),
    rationals,
    st.sampled_from("cs"),
    st.integers(-2, 2),
)
COEFFICIENTS = {"rational": rationals, "float": floats, "trig": trigs}


@st.composite
def kinded_forms(draw, degree, sources=tuple(COEFFICIENTS)):
    """A form of the given degree on e1..e5 whose coefficients all come from one source."""
    source = draw(st.sampled_from(sources))
    monos = list(itertools.combinations(range(5), degree))
    chosen = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True))
    return form(degree, {idx: draw(COEFFICIENTS[source]) for idx in chosen})


def _assert_tag_matches_terms(f):
    if f.terms:
        assert f.mode == _scanned_kind(f.terms)


degrees = st.integers(0, 3)


@settings(max_examples=150, deadline=None)
@given(st.data(), degrees, degrees)
def test_a_product_is_float_if_any_factor_is(data, da, db):
    exact_or_float = ("rational", "float")
    a = data.draw(kinded_forms(da, exact_or_float))
    b = data.draw(kinded_forms(db, exact_or_float))
    want = "float" if "float" in (a.mode, b.mode) else "exact"
    for product in (wedge(a, b), wedge(b, a)):
        assert product.mode == want
        _assert_tag_matches_terms(product)
    s = data.draw(st.one_of(rationals, floats))
    scaled = a.scale(s)
    assert scaled.mode == ("float" if isinstance(s, float) else a.mode)
    _assert_tag_matches_terms(scaled)


@settings(max_examples=150, deadline=None)
@given(st.data(), degrees)
def test_a_sum_has_its_operands_kind_and_never_mixes_them(data, degree):
    a = data.draw(kinded_forms(degree))
    b = data.draw(kinded_forms(degree))
    if a.terms and b.terms and a.mode != b.mode:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ModeMismatchError):
                x + y
            with pytest.raises(ModeMismatchError):
                x - y
        return
    for total in (a + b, a - b, b - a, -a):
        _assert_tag_matches_terms(total)
    if a.terms or b.terms:
        assert (a + b).mode == (a.mode if a.terms else b.mode)


def test_an_empty_operand_takes_either_kind():
    floaty, exact = form(1, {(1,): 0.5}), form(1, {(0,): Fraction(1, 3)})
    empty_float = wedge(floaty, floaty)  # the monomials overlap, so no term survives
    empty_exact = form(1, {})
    assert not empty_float.terms and empty_float.mode == "float"
    assert (empty_float + exact).mode == (exact + empty_float).mode == "exact"
    assert (empty_exact + floaty).mode == (floaty - empty_exact).mode == "float"
    assert (exact - exact).mode == "exact" and not (exact - exact).terms
    with pytest.raises(ModeMismatchError):
        exact + floaty


def test_forms_of_two_kinds_with_terms_are_never_equal():
    """``==`` between an exact and a float form that both hold terms is False,
    where ``+`` and ``-`` raise, so the records that hold forms compare too.
    While ``Form.__eq__`` subtracted without comparing kinds, each ``==``
    here raised ModeMismatchError."""
    exact, floaty = form(1, {(0,): 1}), form(1, {(0,): 1.0})
    assert (exact == floaty, floaty == exact, exact != floaty) == (False, False, True)
    assert exact == form(1, {(0,): Fraction(1)}) and wedge(floaty, floaty) == form(1, {})
    path = str(GOLDEN / "inputs" / "heis5_sasakian.json")
    c = cli.load_coframe(path)
    assert c == cli.load_coframe(path) and c != to_float_coframe(c)
    assert (to_float_coframe(c) == c) is False


exact_values = st.one_of(
    st.integers(-2, 2).filter(bool),
    rationals,
    trigs,
    st.builds(TrigScalar.const, rationals),  # a constant kept as a ring element
)


@st.composite
def exact_pairs(draw):
    """Two exact forms on e1..e4, often equal: the second one built from the
    first through another path, changed in one term, or drawn on its own."""
    da = draw(st.integers(1, 2))
    monos = list(itertools.combinations(range(4), da))
    terms = draw(st.dictionaries(st.sampled_from(monos), exact_values, max_size=4))
    a = form(da, terms)
    how = draw(st.integers(0, 3))
    if how == 0:  # the same value through another path, and in another key order
        b = form(da, dict(reversed(list(terms.items())))) + form(da, {}) - form(da, {})
    elif how == 1:
        extra = form(da, draw(st.dictionaries(st.sampled_from(monos), exact_values, max_size=2)))
        b = (a + extra) - extra
    elif how == 2 and terms:
        idx = draw(st.sampled_from(sorted(terms)))
        b = form(da, {**terms, idx: terms[idx] + draw(exact_values)})
    else:
        db = draw(st.integers(1, 2))
        b = form(db, draw(st.dictionaries(
            st.sampled_from(list(itertools.combinations(range(4), db))), exact_values, max_size=3)))
    return a, b


@settings(max_examples=300, deadline=None)
@given(exact_pairs())
def test_exact_forms_are_equal_exactly_when_their_difference_is_zero(pair):
    """``==`` of two exact forms compares their term tables; it holds exactly when
    ``a - b`` has no term, a constant ring element equal to its rational, and a
    degree mismatch between two forms with terms raises as ``-`` does."""
    a, b = pair
    try:
        expected = (a - b).is_zero()
    except ValueError as exc:
        assert str(exc) == "degree mismatch"
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="degree mismatch"):
                x == y
        return
    assert (a == b) is (b == a) is expected and (a != b) is not expected


# -- the storage-rule builder ----------------------------------------------------

stored_values = st.one_of(
    st.integers(-3, 3),
    st.fractions(-4, 4, max_denominator=3),  # zero and integral Fractions included
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, Fraction(0), Fraction(2), TrigScalar({})]),
    trigs,
)


def _fingerprint(f):
    """A form's kind and its terms in order, each value with its type and, for floats, its bits."""
    return f.mode, [(idx, bits(v)) for idx, v in f.terms.items()]


@settings(max_examples=300, deadline=None)
@given(st.data(), degrees)
def test_stored_keeps_what_the_validating_constructor_keeps(data, degree):
    monos = list(itertools.combinations(range(5), degree))
    terms = data.draw(st.dictionaries(st.sampled_from(monos), stored_values, max_size=5))
    assert _fingerprint(stored(degree, terms)) == _fingerprint(form(degree, terms))


# -- ratchet on form construction outside exterior ---------------------------------

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acm5"
VALIDATING = {"form", "Form"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _in_function_bodies(tree):
    """Every node inside a function or lambda of the module."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return {n for fn in ast.walk(tree) if isinstance(fn, scopes) for n in ast.walk(fn)}


def test_no_trusted_or_validating_constructor_calls_outside_exterior():
    """Outside ``exterior``, no module references ``_trusted``, and ``form(``/``Form(``
    are called only in module-level constants: every computed form is built
    by ``exterior.stored`` or an ``exterior`` operator."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exterior.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for n in ast.walk(tree):
            imported = [a.name for a in n.names] if isinstance(n, ast.ImportFrom) else []
            if _name(n) == "_trusted" or "_trusted" in imported:
                found.append(f"{path.name}:{n.lineno} _trusted")
        found += sorted(
            f"{path.name}:{n.lineno} {_name(n.func)}("
            for n in _in_function_bodies(tree)
            if isinstance(n, ast.Call) and _name(n.func) in VALIDATING
        )
    assert found == []
