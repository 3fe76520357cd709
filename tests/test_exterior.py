import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5.errors import MissingDerivationError, ModeMismatchError, UnsupportedSymbolError
from acm5.exterior import (
    Form,
    TrigRules,
    coframe,
    d_squared_zero,
    dense2,
    dense3,
    e,
    ext_d,
    form,
    hodge,
    wedge,
)
from acm5.groups import build
from acm5.scalars import COS_F, SIN_F, SIN_G, TrigScalar

from helpers import (
    abelian_coframe,
    bits,
    evaluate,
    ext_d_oracle,
    hodge_oracle,
    interior,
    random_form,
    to_float_coframe,
    wedge_eval_oracle,
)

PHI = form(2, {(0, 1): 1, (2, 3): 1})
Z1 = form(2, {(0, 2): 1, (1, 3): -1})
F = form(2, {(0, 1): 1, (2, 3): -1})


# -- frozen examples ---------------------------------------------------------


def test_wedge_basis_product():
    assert wedge(e(1), e(2)) == form(2, {(0, 1): 1})


def test_wedge_nilpotency():
    assert wedge(e(1), e(1)).is_zero()


def test_wedge_fundamental_times_primitive_vanishes():
    # expand all four products by the oracle as well
    assert wedge(PHI, Z1).is_zero()
    for ids in itertools.permutations(range(5), 4):
        assert wedge_eval_oracle(PHI, Z1, list(ids)) == 0


def test_hodge_examples():
    assert hodge(wedge(e(1), e(2))) == form(3, {(2, 3, 4): 1})
    assert hodge(Z1) == form(3, {(0, 2, 4): 1, (1, 3, 4): -1})
    assert hodge(Z1) == wedge(e(5), Z1)
    assert hodge(F) == wedge(e(5), F).scale(-1)


def test_interior_examples():
    """The contraction of the tests' codifferential oracle."""
    a = form(3, {(0, 2, 4): 1, (1, 3, 4): -1})
    assert interior(5, a) == Z1
    assert interior(1, form(2, {(1, 2): 1})).is_zero()
    assert interior(1, form(2, {(0, 1): 1})) == e(2)


def test_ext_d_family_reeb_leg():
    inst = build(1, 0, 0, 0)
    assert ext_d(e(5), inst.coframe) == form(2, {(0, 2): -2, (1, 3): 2})


def test_ext_d_top_degree_and_leibniz_with_trig():
    inst = build(1, 0, 1, 0)
    cf = inst.coframe.with_trig_rules(df=form(1, {(5,): 1, (4,): 3}))
    top = form(5, {(0, 1, 2, 3, 4): Fraction(7, 2)})
    assert ext_d(top, cf).is_zero()
    # d(cos f (e1+e4)) = -sin f df ^ (e1+e4) + cos f d(e1+e4)
    beta = COS_F * (e(1) + e(4))
    df = form(1, {(5,): 1, (4,): 3})
    expected = wedge(df, e(1) + e(4)).scale(-SIN_F) + ext_d(e(1) + e(4), cf).scale(COS_F)
    assert ext_d(beta, cf) == expected


def test_ext_d_trig_without_rules_errors():
    inst = build(1, 0, 1, 0)
    with pytest.raises(MissingDerivationError):
        ext_d(SIN_F * e(1), inst.coframe)


def test_ext_d_df_rule_required():
    cf = build(1, 0, 1, 0).coframe.with_trig_rules(dg=e(5))
    with pytest.raises(MissingDerivationError, match="df rule required"):
        ext_d(SIN_F * e(1), cf)
    assert ext_d(SIN_G * e(1), cf) == ext_d_oracle(SIN_G * e(1), cf)


def test_ext_d_dg_rule_required():
    cf = build(1, 0, 1, 0).coframe.with_trig_rules(df=e(5))
    with pytest.raises(MissingDerivationError, match="dg rule required"):
        ext_d(SIN_G * e(1), cf)
    assert ext_d(SIN_F * e(1), cf) == ext_d_oracle(SIN_F * e(1), cf)


def test_ext_d_is_zero_above_degree_six_after_checking_rules():
    # seven symbols: d(e1) = e1^B leaves a degree-7 Leibniz piece, which wedge makes zero
    cf = coframe(
        {"e1": form(2, {(0, 6): 1}), "A": form(2, {(0, 1): 1})},
        auxiliary=("A", "B"),
        trig_rules=TrigRules(df=form(1, {(6,): 1})),
    )
    top = form(6, {(0, 1, 2, 3, 4, 5): COS_F})
    d = ext_d(top, cf)
    assert d.degree == 7 and d.terms == {}
    assert _entries(d) == _entries(ext_d_oracle(top, cf))
    with pytest.raises(MissingDerivationError, match="dg rule required"):
        ext_d(form(6, {(0, 1, 2, 3, 4, 5): SIN_G}), cf)


def test_d_squared_reports():
    assert d_squared_zero(abelian_coframe()).ok
    assert d_squared_zero(build(1, 1, 1, 1).coframe).ok
    # violating the parameter constraint breaks closure on the Reeb leg
    bad = coframe(
        {
            "e1": wedge(form(1, {(5,): 1}), e(2)) - 2 * wedge(e(3), e(5)) - wedge(e(4), e(5)),
            "e2": -1 * wedge(form(1, {(5,): 1}), e(1)) + 2 * wedge(e(4), e(5)) - wedge(e(3), e(5)),
            "e3": -1 * wedge(form(1, {(5,): 1}), e(4)) + 2 * wedge(e(1), e(5)) + wedge(e(2), e(5)),
            "e4": wedge(form(1, {(5,): 1}), e(3)) - 2 * wedge(e(2), e(5)) + wedge(e(1), e(5)),
            "e5": -2 * Z1 - (-2) * form(2, {(0, 3): 1, (1, 2): 1}),
            "A2": form(2, {}),
        },
        auxiliary=("A2",),
    )
    rep = d_squared_zero(bad)
    assert not rep.ok and "e5" in rep.failing


def test_hodge_rejects_auxiliary_symbols():
    inst = build(1, 0, 0, 0)
    bad = form(1, {(5,): 1})
    with pytest.raises(UnsupportedSymbolError):
        hodge(bad)
    with pytest.raises(UnsupportedSymbolError):
        ext_d(form(1, {(6,): 1}), inst.coframe)


def _entries(f):
    """Terms in storage order, each value with its type and float bits."""
    return [(idx, bits(v)) for idx, v in f.terms.items()]


def test_mode_rule_sums_reject_mixed_kinds_products_take_exact_factors():
    floaty = Form(1, {(1,): 0.5})
    # a sum may not mix the kinds: an exact term could survive into a float result
    with pytest.raises(ModeMismatchError):
        e(1) + floaty
    with pytest.raises(ModeMismatchError):
        e(1) - floaty
    # a product may take an exact factor, which multiplies without rounding
    unit = Form(1, {(0,): 1.0})
    assert _entries(wedge(e(1), floaty)) == _entries(wedge(unit, floaty)) == [((0, 1), bits(0.5))]
    assert _entries(wedge(floaty, e(1))) == _entries(wedge(floaty, unit)) == [((0, 1), bits(-0.5))]


# -- property-based checks ---------------------------------------------------


@st.composite
def forms(draw, degree=None, nsym=5):
    deg = degree if degree is not None else draw(st.integers(0, 3))
    monos = list(itertools.combinations(range(nsym), deg))
    chosen = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True)) if monos else []
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return form(deg, dict(zip(chosen, coeffs)))


@given(forms(), forms())
def test_graded_anticommutativity(a, b):
    lhs = wedge(a, b)
    rhs = wedge(b, a).scale(Fraction((-1) ** (a.degree * b.degree)))
    assert lhs == rhs


@given(forms(degree=1), forms(degree=1), forms(degree=2))
def test_associativity(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@given(forms(degree=2), forms(degree=2))
def test_wedge_against_evaluation_oracle(a, b):
    w = wedge(a, b)
    for ids in ((0, 1, 2, 3), (4, 3, 2, 1), (0, 2, 3, 4)):
        assert evaluate(w, *ids) == wedge_eval_oracle(a, b, ids)


@given(forms())
def test_double_hodge_is_identity(a):
    assert hodge(hodge(a)) == a


@given(forms(degree=2))
def test_hodge_matches_oracle(a):
    assert hodge(a) == hodge_oracle(a)


@given(forms(degree=2), forms(degree=2))
def test_monomial_pairing_via_star(a, b):
    # <a, b> = coefficient of the volume form in a ^ *b is the monomial pairing
    paired = wedge(a, hodge(b)).coefficient((0, 1, 2, 3, 4))
    expected = sum(
        (ca * b.coefficient(idx) for idx, ca in a.terms.items()), Fraction(0)
    )
    assert paired == expected


@given(forms())
def test_pairing_positive_definite_on_each_degree(a):
    n = wedge(a, hodge(a)).coefficient((0, 1, 2, 3, 4))
    assert n >= 0 and (n == 0) == a.is_zero()


RICH_COFRAME = build(1, 0, 2, 0).coframe
CLOSED_COFRAME = build(2, 3, 4, 6).coframe


@settings(max_examples=25, deadline=None)
@given(forms(degree=1, nsym=6), forms(degree=1, nsym=6))
def test_leibniz_rule_on_family_coframe(a, b):
    lhs = ext_d(wedge(a, b), RICH_COFRAME)
    rhs = wedge(ext_d(a, RICH_COFRAME), b) - wedge(a, ext_d(b, RICH_COFRAME))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(forms(degree=2, nsym=6))
def test_d_squared_vanishes_on_random_forms(a):
    assert d_squared_zero(CLOSED_COFRAME).ok
    assert ext_d(ext_d(a, CLOSED_COFRAME), CLOSED_COFRAME).is_zero()


def test_random_form_sanity():
    rng = random.Random(7)
    f = random_form(rng, 2)
    assert f.degree == 2


# -- ext_d against the wedge-based oracle --------------------------------------

# df and dg both use the auxiliary symbol A2 (id 5)
RULES = TrigRules(df=form(1, {(5,): 1, (4,): 3}), dg=form(1, {(0,): Fraction(1, 2), (5,): -2}))
# a1 a4 = a2 a3, so the family coframe is integrable
RULED_FAMILY = build(Fraction(1, 3), Fraction(-2, 5), Fraction(5, 7), Fraction(-6, 7)).coframe.with_trig_rules(
    RULES.df, RULES.dg
)
# de1 and dA2 contain e1 and A2 themselves: a Leibniz piece may keep the differentiated symbol
RULED_SOLVABLE = coframe(
    {
        "e1": form(2, {(0, 4): 1, (1, 5): Fraction(-3, 2)}),
        "e2": form(2, {(1, 4): 2, (0, 2): 1}),
        "A2": form(2, {(0, 5): 1, (2, 3): Fraction(1, 3)}),
    },
    auxiliary=("A2",),
    trig_rules=RULES,
)
EXACT_COFRAMES = st.sampled_from([RULED_FAMILY, RULED_SOLVABLE])
FLOAT_COFRAMES = st.sampled_from([to_float_coframe(RULED_FAMILY), to_float_coframe(RULED_SOLVABLE)])

rationals = st.fractions(-4, 4, max_denominator=7).filter(bool)
floats = st.floats(-1e3, 1e3, allow_nan=False)
trigs = st.builds(
    lambda q0, q1, kind, m, n: q0 + q1 * TrigScalar.atom(kind, m, n),
    st.fractions(-2, 2, max_denominator=3),
    rationals,
    st.sampled_from("cs"),
    st.integers(-2, 2),
    st.integers(-2, 2),
)


@st.composite
def one_kind_forms(draw, kinds):
    """A form of degree 0-5 on six symbols whose coefficients are all of one kind."""
    deg = draw(st.integers(0, 5))
    monos = list(itertools.combinations(range(6), deg))
    chosen = draw(st.lists(st.sampled_from(monos), max_size=5, unique=True))
    coef = draw(st.sampled_from(kinds))
    return form(deg, {idx: draw(coef) for idx in chosen})


def _check_against_oracle(a, c):
    d, want = ext_d(a, c), ext_d_oracle(a, c)
    assert d.degree == want.degree and _entries(d) == _entries(want)


@settings(max_examples=150, deadline=None)
@given(one_kind_forms([rationals, floats, trigs]), EXACT_COFRAMES)
def test_ext_d_matches_wedge_oracle_on_exact_coframes(a, c):
    _check_against_oracle(a, c)


@settings(max_examples=100, deadline=None)
@given(one_kind_forms([rationals, floats]), FLOAT_COFRAMES)
def test_ext_d_matches_wedge_oracle_on_float_coframes(a, c):
    _check_against_oracle(a, c)


# -- dense reads and the d^2-gate ---------------------------------------------


@st.composite
def dense_read_forms(draw):
    """A 2-form or 3-form on six symbols, coefficients of one kind; float
    coefficients include both zeros and a subnormal."""
    deg = draw(st.sampled_from([2, 3]))
    monos = list(itertools.combinations(range(6), deg))
    chosen = draw(st.lists(st.sampled_from(monos), max_size=8, unique=True))
    edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -1e300])
    coef = draw(st.sampled_from([rationals, floats | edge_floats, trigs]))
    return form(deg, {idx: draw(coef) for idx in chosen})


@settings(max_examples=120, deadline=None)
@given(dense_read_forms())
def test_dense_reads_equal_evaluate_entry_by_entry(f):
    """Value, type and float bits of the 5x5 (x5) table; terms on the sixth id
    are outside it, as evaluate never reads them there."""
    table = dense2(f) if f.degree == 2 else dense3(f)
    shape = (range(5),) * f.degree
    assert [len(table), len(table[0])] == [5, 5]
    for ids in itertools.product(*shape):
        got = functools.reduce(lambda t, i: t[i], ids, table)
        assert bits(got) == bits(evaluate(f, *ids)), ids


@st.composite
def constant_tables(draw):
    """A constant generator table of one kind on 5 to 12 symbols, integrable or not."""
    nsym = draw(st.integers(5, 12))
    coef = draw(st.sampled_from([rationals, floats]))
    pairs = list(itertools.combinations(range(nsym), 2))
    table = {}
    for sid in range(nsym):
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
        table[sid] = form(2, {idx: draw(coef) for idx in chosen})
    names = [f"e{i}" for i in range(1, 6)] + [f"a{i}" for i in range(6, nsym + 1)]
    return coframe({names[sid]: f for sid, f in table.items()}, auxiliary=names[5:])


@settings(max_examples=80, deadline=None)
@given(constant_tables())
def test_d_squared_gate_matches_ext_d_twice(c):
    """Every residual of the direct contraction is d(d(symbol)) through
    ext_d, term by term with float bits, at every symbol count."""
    rep = d_squared_zero(c)
    for sid in range(c.n_symbols):
        want = ext_d(ext_d(form(1, {(sid,): 1}), c), c)
        got = rep.residuals[c.name_of(sid)]
        assert {i: bits(v) for i, v in got.terms.items()} == {
            i: bits(v) for i, v in want.terms.items()
        }
