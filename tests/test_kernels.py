"""The exact tensor kernels and coordinate maps against the general code they replace.

``acms`` reads phi as a signed permutation and projects 2-forms by a fixed
coordinate map, ``torsionclass.classify`` reads module norms off an
orthogonal frame, and the d^2-gate contracts a constant table directly.
The oracles are the 5-term sums over PHI_MAT (``helpers.nabla_phi_oracle``,
``helpers.nijenhuis_oracle``), the general type projections
(``helpers.project_u2_complement_oracle``), the Gram-matrix solve
(``helpers.classify_norms_oracle``) and ext_d applied twice.  Entries are
compared with their Python type and floats bit for bit, so the float zeros
that the general code produces are pinned too.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5 import acms
from acm5.cli import _to_float_coframe, _working_scale, load_coframe
from acm5.exterior import (
    CoframeData,
    Form,
    d_squared_zero,
    ext_d,
    form,
    grid_form,
    standard_symbols,
)
from acm5.family import build
from acm5.frames import connection_from_structure
from acm5.scalars import narrow
from acm5.torsionclass import IntrinsicTorsion, classify, intrinsic_torsion
from helpers import (
    GOLDEN_FAMILY_POINTS,
    GOLDEN_INPUTS,
    bits,
    cayley,
    classify_norms_oracle,
    nabla_phi_oracle,
    nijenhuis_oracle,
    project_u2_complement_oracle,
    rotate,
    trig_coframe,
)


def _same(tensor, cube):
    """Entry by entry: floats with their type and bits, exact entries by value
    (a kernel entry may be an int, which is an exact rational too)."""

    def key(v):
        return bits(v) if isinstance(v, float) else Fraction(v)

    assert [key(v) for m in tensor.values for r in m for v in r] == [
        key(v) for m in cube for r in m for v in r
    ]


def _check_kernels(w):
    oracle = nabla_phi_oracle(w)
    fc = acms.FrameConnection(w, ())
    full = acms.np_full(w)
    _same(full, oracle["np_full"])
    _same(acms.np_gamma(acms.complement_forms(fc)), oracle["np_gamma"])
    np = full.values
    deta = acms.d_eta_form(fc)
    oracle = nijenhuis_oracle(np, deta)
    _same(acms.n_via_np(np), oracle["n_via_np"])
    _same(acms.n_cov(np, deta), oracle["cov"])


def _antisymmetric_cube(values):
    """w[i][j][k] = -w[j][i][k] from 50 values, one per (i < j, k)."""
    w = [[[Fraction(0)] * 5 for _ in range(5)] for _ in range(5)]
    it = iter(values)
    for i, j in itertools.combinations(range(5), 2):
        for k in range(5):
            v = next(it)
            w[i][j][k], w[j][i][k] = v, -v
    return w


def test_phi_map_reads_phi_mat():
    rebuilt = [[0] * 5 for _ in range(5)]
    for u, b, s in acms.PHI_ENTRIES:
        rebuilt[u][b] = s
    assert rebuilt == [list(row) for row in acms.PHI_MAT]
    assert [u for u, _, _ in acms.PHI_ENTRIES] == sorted(u for u, _, _ in acms.PHI_ENTRIES)
    for b in range(5):
        col = [(u, acms.PHI_MAT[u][b]) for u in range(5) if acms.PHI_MAT[u][b]]
        assert acms.PHI_COL[b] == (col[0] if col else (b, 0))


@pytest.mark.parametrize("mode", ["exact", "float", "integer"])
@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_kernels_match_oracles_on_golden_inputs(path, mode):
    c = load_coframe(str(path))
    if mode == "float":
        c = _to_float_coframe(c)
    if mode == "integer":
        c, _ = _working_scale(c)
    _check_kernels(acms.frame_connection(connection_from_structure(c)).base)


@pytest.mark.parametrize("point", GOLDEN_FAMILY_POINTS, ids=lambda p: "_".join(map(str, p)))
def test_kernels_match_oracles_on_golden_family_points(point):
    _check_kernels(acms.frame_connection(build(*point).omega_g).base)


rationals = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))
floats_and_zeros = st.one_of(
    st.just(Fraction(0)), st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
)


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=50, max_size=50))
def test_kernels_match_oracles_on_random_rational_cubes(values):
    _check_kernels(_antisymmetric_cube(values))


@settings(max_examples=30, deadline=None)
@given(st.lists(floats_and_zeros, min_size=50, max_size=50))
def test_kernels_match_oracles_on_random_float_cubes(values):
    _check_kernels(_antisymmetric_cube(values))


# -- the coordinate maps --------------------------------------------------------


def _terms(f: Form):
    return [(idx, bits(v)) for idx, v in f.terms.items()]


def _check_projection(beta):
    assert _terms(acms.project_u2_complement(beta)) == _terms(project_u2_complement_oracle(beta))


def _check_classify(gamma):
    """Float norms by their bits; exact norms by value and under the storage
    rule, an integral norm as an int (the oracle sums Fractions)."""
    report = classify(gamma)
    oracle = classify_norms_oracle(gamma)
    assert {k: bits(v) for k, v in report.norms.items()} == {
        k: bits(narrow(v)) for k, v in oracle.items()
    }


def _check_coordinate_maps(fc):
    for k in range(5):
        _check_projection(grid_form(lambda i, j: fc.base[i][j][k]))
    _check_classify(intrinsic_torsion(fc))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_coordinate_maps_match_oracles_on_golden_inputs(path, mode):
    c = load_coframe(str(path))
    if mode == "float":
        c = _to_float_coframe(c)
    _check_coordinate_maps(acms.frame_connection(connection_from_structure(c)))


@pytest.mark.parametrize("point", GOLDEN_FAMILY_POINTS, ids=lambda p: "_".join(map(str, p)))
def test_coordinate_maps_match_oracles_on_golden_family_points(point):
    _check_coordinate_maps(acms.frame_connection(build(*point).omega_g))


MONOMIALS = list(itertools.combinations(range(5), 2))
float_entries = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
rational_entries = st.one_of(st.none(), st.fractions(-3, 3, max_denominator=7).filter(bool))


def _two_forms(entries):
    """2-forms with a missing term wherever entries draws None."""
    return st.lists(entries, min_size=10, max_size=10).map(
        lambda values: Form(2, {m: v for m, v in zip(MONOMIALS, values) if v is not None})
    )


float_forms, rational_forms = _two_forms(float_entries), _two_forms(rational_entries)


@settings(max_examples=200, deadline=None)
@given(st.one_of(float_forms, rational_forms))
def test_projection_matches_type_projections_on_random_2forms(beta):
    _check_projection(beta)


@settings(max_examples=60, deadline=None)
@given(st.one_of(*(st.lists(f, min_size=5, max_size=5) for f in (float_forms, rational_forms))))
def test_classify_matches_gram_solve_on_random_torsion(betas):
    _check_classify(IntrinsicTorsion(tuple(acms.project_u2_complement(b) for b in betas)))


# -- the d^2-gate -------------------------------------------------------------


def _ext_d_twice(c):
    return {
        c.name_of(sid): ext_d(ext_d(Form(1, {(sid,): Fraction(1)}), c), c)
        for sid in range(c.n_symbols)
    }


def _check_d_squared(c):
    report = d_squared_zero(c)
    oracle = _ext_d_twice(c)

    def dicts(residuals):
        return {name: {idx: bits(v) for idx, v in f.terms.items()} for name, f in residuals.items()}

    assert dicts(report.residuals) == dicts(oracle)
    assert all(report.residuals[name].degree == 3 for name in oracle)
    assert report.failing == [name for name, f in oracle.items() if not f.is_zero()]
    assert report.ok == all(f.is_zero() for f in oracle.values())


coefficients = st.one_of(
    st.fractions(-3, 3, max_denominator=3).filter(bool),
    st.just(Fraction(1, 10**12)),
    st.builds(
        Fraction,
        st.integers(-9, 9).filter(bool),
        st.sampled_from([64, 65, 67, 71, 73, 65**2, 71 * 67, 73**3]),
    ),
)


@st.composite
def constant_tables(draw):
    """5 metric and 0-2 auxiliary symbols.  An integrable table takes every
    derivative from the wedges of a set of closed generators."""
    naux = draw(st.integers(0, 2))
    nsym = 5 + naux
    closed = set(range(nsym))
    if draw(st.booleans()):
        closed = set(draw(st.lists(st.integers(0, nsym - 1), min_size=2, max_size=nsym - 1, unique=True)))
    monos = list(itertools.combinations(sorted(closed), 2))
    table = {}
    for sid in range(nsym):
        if closed != set(range(nsym)) and sid in closed:
            terms = {}
        else:
            terms = draw(st.dictionaries(st.sampled_from(monos), coefficients, max_size=4))
        table[sid] = form(2, terms)
    return CoframeData(standard_symbols([f"A{i}" for i in range(naux)]), table)


@settings(max_examples=60, deadline=None)
@given(constant_tables())
def test_d_squared_matches_ext_d_twice_on_random_tables(c):
    _check_d_squared(c)
    _check_d_squared(_to_float_coframe(c))


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_d_squared_matches_ext_d_twice_on_rotated_golden_inputs(path):
    c = load_coframe(str(path))
    s = [[Fraction(0)] * 5 for _ in range(5)]
    for n, (i, j) in enumerate(itertools.combinations(range(5), 2)):
        s[i][j], s[j][i] = Fraction(n - 4, 3), -Fraction(n - 4, 3)
    for table in (c, rotate(c, cayley(s))):
        _check_d_squared(table)
        _check_d_squared(_to_float_coframe(table))
        assert d_squared_zero(table).ok


def test_d_squared_with_trig_coefficients_uses_ext_d():
    c = trig_coframe()
    _check_d_squared(c)
    assert d_squared_zero(c).failing == ["e1"]
