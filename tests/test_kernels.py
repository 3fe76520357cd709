"""The exact tensor kernels and coordinate maps against the general code they replace.

``acms`` reads phi as a signed permutation and runs every fixed-shape
kernel as an index plan, projects 2-forms by a fixed coordinate map,
``torsionclass.classify`` reads module norms off an orthogonal frame, and
the d^2-gate contracts a constant table directly.  The oracles are the
5-term sums over PHI_MAT (``helpers.nabla_phi_oracle``,
``helpers.nijenhuis_oracle``, also on nabla Phi cubes that hold -0.0), the
per-entry formulas that the plans of dPhi, gamma, phi_pullback, vartheta,
the predicates, the characteristic connection, ``torsion_type`` and
``cartan_decompose`` replaced (``helpers.d_phi_oracle`` and the others
below, on random cubes and on random family points), the general type
projections (``helpers.project_u2_complement_oracle``), the Gram-matrix
solve (``helpers.classify_norms_oracle``) and ext_d applied twice.  Entries
are compared with their Python type and floats bit for bit, so the float
zeros that the general code produces are pinned too.
"""

import ast
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5 import acms
from acm5.cli import _to_float_coframe, _working_scale, load_coframe
from acm5.connection import CharacteristicConnection, characteristic_connection, torsion_type
from acm5.errors import NotGeneralizedQuasiSasakiError
from acm5.exterior import (
    CoframeData,
    Form,
    d_squared_zero,
    ext_d,
    form,
    grid_form,
    standard_symbols,
)
from acm5.frames import connection_from_structure
from acm5.groups import build
from acm5.scalars import narrow, sis_zero
from acm5.torsionclass import IntrinsicTorsion, cartan_decompose, classify, intrinsic_torsion
from helpers import (
    GOLDEN_FAMILY_POINTS,
    GOLDEN_INPUTS,
    bits,
    cartan_decompose_oracle,
    cartan_parts,
    cayley,
    classify_norms_oracle,
    d_phi_oracle,
    difference_tensor_oracle,
    gamma_oracle,
    nabla_phi_oracle,
    nested,
    nijenhuis_oracle,
    phi_pullback_oracle,
    predicates_oracle,
    project_u2_complement,
    project_u2_complement_oracle,
    rotate,
    torsion_type_oracle,
    trig_coframe,
    u2_rotation,
    vartheta_oracle,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acm5"


def _key(v):
    """Floats with their type and bits, exact values by value (a kernel entry
    may be an int, which is an exact rational too)."""
    return bits(v) if isinstance(v, float) else Fraction(v)


def _same(tensor, cube):
    """Entry by entry, by ``_key``."""
    assert [_key(v) for m in nested(tensor) for r in m for v in r] == [
        _key(v) for m in cube for r in m for v in r
    ]


def _check_kernels(w):
    oracle = nabla_phi_oracle(nested(w))
    fc = acms.FrameConnection(w, ())
    full = acms.np_full(w)
    _same(full, oracle["np_full"])
    _same(acms.np_gamma(acms.torsion_view(fc)), oracle["np_gamma"])
    deta = acms.d_eta_form(fc)
    cube = nested(full)
    oracle = nijenhuis_oracle(cube, deta)
    nij = acms.n_via_np(full)
    _same(nij, oracle["n_via_np"])
    _same(acms.n_cov(full, deta), oracle["cov"])
    dphi = acms.d_phi_tensor(full)
    _same(dphi, d_phi_oracle(cube))
    nx = acms.nabla_xi_matrix(fc)
    verdicts = predicates_oracle(cube, nested(nij), nested(dphi), nx, acms.xi_is_killing(fc))
    assert {k: getattr(acms.predicates(fc), k) for k in verdicts} == verdicts


def _antisymmetric_cube(values):
    """w[i][j](e_k) = -w[j][i](e_k) from 50 values, one per (i < j, k), as a Tensor3."""
    w = [Fraction(0)] * 125
    it = iter(values)
    for i, j in itertools.combinations(range(5), 2):
        for k in range(5):
            v = next(it)
            w[acms.at(i, j, k)], w[acms.at(j, i, k)] = v, -v
    return acms.Tensor3(tuple(w))


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
    st.just(Fraction(0)),
    st.just(-0.0),  # 0 + -0.0 is 0.0: an entry that starts from the wrong zero shows
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
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
    assert _terms(project_u2_complement(beta)) == _terms(project_u2_complement_oracle(beta))


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
        _check_projection(grid_form(lambda i, j: fc.base.get(i + 1, j + 1, k + 1)))
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
    _check_classify(IntrinsicTorsion(tuple(project_u2_complement(b) for b in betas)))


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


# -- the planned kernels on random cubes and structures -------------------------


def _nest(values):
    """125 values in slot order as a nested [i][j][k] list."""
    return [[list(values[p + r : p + r + 5]) for r in range(0, 25, 5)] for p in range(0, 125, 25)]


def _flat(cube):
    return tuple(v for m in cube for r in m for v in r)


def _entry(rnd, floating):
    """Fraction(0), -0.0 or a float, a third each; or Fraction(0) or a
    rational, as ``rationals`` and ``floats_and_zeros`` draw them."""
    if floating:
        return rnd.choice([Fraction(0), -0.0, rnd.uniform(-1e3, 1e3)])
    return rnd.choice([Fraction(0), Fraction(rnd.randint(-3, 3), rnd.randint(1, 4))])


@st.composite
def cubes(draw, n=1):
    """n random 5x5x5 cubes, all of rational entries or all of floats and
    zeros, from one drawn seed (drawing 125 values one by one is slow)."""
    rnd, floating = random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.booleans())
    return [_nest([_entry(rnd, floating) for _ in range(125)]) for _ in range(n)]


# slot swaps: the last two, the first two, the outer two
LAST_TWO, FIRST_TWO, OUTER = (0, 2, 1), (1, 0, 2), (2, 1, 0)


def _antisymmetrized(v, swap):
    """v minus v with two of its slots swapped: antisymmetric in those slots."""
    out = [[[None] * 5 for _ in range(5)] for _ in range(5)]
    for idx in itertools.product(range(5), repeat=3):
        i, j, k = idx
        s, t, u = (idx[n] for n in swap)
        out[i][j][k] = v[i][j][k] - v[s][t][u]
    return out


@settings(max_examples=100, deadline=None)
@given(cubes())
def test_d_phi_matches_oracle_on_random_cubes(cube):
    (np,) = cube
    _same(acms.d_phi_tensor(acms.Tensor3(_flat(np))), d_phi_oracle(np))


@settings(max_examples=100, deadline=None)
@given(cubes(), st.one_of(float_forms, rational_forms))
def test_nijenhuis_matches_oracle_on_random_cubes(cube, deta):
    """Both N kernels on nabla Phi cubes that hold -0.0, which np_full never
    yields: each entry must start from the int 0."""
    np = acms.Tensor3(_flat(cube[0]))
    oracle = nijenhuis_oracle(cube[0], deta)
    _same(acms.n_via_np(np), oracle["n_via_np"])
    _same(acms.n_cov(np, deta), oracle["cov"])


def _memoized(**invariants):
    """A frame connection whose memo already holds the given invariants, as
    ``derived`` stores them, so a kernel reads random tensors."""
    fc = acms.FrameConnection(acms.Tensor3((0,) * 125), ())
    fc._memo.update(invariants)
    return fc


@st.composite
def predicate_inputs(draw):
    """nabla Phi, N, nabla xi and the Killing verdict; drawn nearly
    cosymplectic (np[a][c][b] = -np[b][c][a]) or with a vanishing horizontal
    part (generalized quasi-Sasaki when Killing) on demand."""
    np, nij, nx = draw(cubes(3))
    nx = nx[0]
    if draw(st.booleans()):
        np = _antisymmetrized(np, OUTER)
    if draw(st.booleans()):
        for x, y, z in itertools.product(range(4), repeat=3):
            np[x][y][z] = nij[x][y][z] = 0
    return np, nij, nx, draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(predicate_inputs())
def test_predicates_match_oracle_on_random_cubes(inputs):
    np, nij, nx, killing = inputs
    np_t, nij_t = acms.Tensor3(_flat(np)), acms.Tensor3(_flat(nij))
    fc = _memoized(
        nabla_phi=np_t,
        nijenhuis=nij_t,
        d_eta_form=form(2, {}),
        xi_is_killing=killing,
        nabla_xi_matrix=nx,
    )
    verdicts = predicates_oracle(np, nij, d_phi_oracle(np), nx, killing)
    assert {k: getattr(acms.predicates(fc), k) for k in verdicts} == verdicts


@st.composite
def gamma_inputs(draw):
    """nabla Phi antisymmetric in its last two slots (so dPhi(xi, ., xi) = 0),
    on demand with signed zeros where the first gamma expression reads it,
    and N agreeing with it on every entry that the second expression reads,
    or, when broken, off by one on one of them."""
    np, nij = draw(cubes(2))
    np = _antisymmetrized(np, LAST_TWO)
    if draw(st.booleans()):  # dPhi(xi, e1, e_y) = -0.0 - 0.0 + -0.0 = -0.0 for y = 3, 4
        for y in (2, 3):
            np[acms.XI][0][y], np[0][acms.XI][y], np[y][acms.XI][0] = -0.0, 0.0, -0.0
    first, _ = gamma_oracle(d_phi_oracle(np), nij)
    for (x, y), v in first.items():
        (u, s), (w, t) = acms.PHI_COL[x], acms.PHI_COL[y]
        if s * t:
            nij[u][w][acms.XI] = v if s * t > 0 else -v
    broken = draw(st.booleans())
    if broken:  # N(phi e1, phi e2, xi), read for the monomial (0, 1)
        nij[acms.PHI_COL[0][0]][acms.PHI_COL[1][0]][acms.XI] += 1
    return np, nij, broken


@settings(max_examples=100, deadline=None)
@given(gamma_inputs())
def test_gamma_form_matches_oracle_on_random_cubes(inputs):
    np, nij, broken = inputs
    gqs = acms.Predicates(*[True] * 9)
    fc = _memoized(
        predicates=gqs, nabla_phi=acms.Tensor3(_flat(np)), nijenhuis=acms.Tensor3(_flat(nij))
    )
    first, second = gamma_oracle(d_phi_oracle(np), nij)
    if broken:
        assert not all(sis_zero(first[k] - second[k]) for k in first)
        with pytest.raises(NotGeneralizedQuasiSasakiError):
            acms.gamma_form(fc)
        return
    assert _terms(acms.gamma_form(fc)) == _terms(grid_form(lambda x, y: first[x, y]))


@settings(max_examples=100, deadline=None)
@given(cubes())
def test_cartan_decompose_matches_oracle_on_random_cubes(cube):
    a = _antisymmetrized(cube[0], LAST_TWO)
    parts = cartan_decompose(acms.Tensor3(_flat(a)))
    oracle = cartan_decompose_oracle(a)
    for name, t in cartan_parts(parts).items():
        _same(t, oracle[name])
    assert list(map(_key, parts.vector)) == list(map(_key, oracle["vector"]))


@settings(max_examples=100, deadline=None)
@given(cubes())
def test_torsion_type_matches_oracle_on_random_cubes(cube):
    torsion = _antisymmetrized(cube[0], FIRST_TWO)
    cc = CharacteristicConnection(None, None, acms.Tensor3(_flat(torsion)), None)
    parts, _ = torsion_type(cc)
    oracle = torsion_type_oracle(torsion)
    for name, t in cartan_parts(parts).items():
        _same(t, oracle[name])
    assert list(map(_key, parts.vector)) == list(map(_key, oracle["vector"]))


family_points = st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3).map(
    lambda p: (p[0], p[1], p[2] * p[0], p[2] * p[1])  # a1 a4 = a2 a3
)


@settings(max_examples=25, deadline=None)
@given(family_points, st.sampled_from(["exact", "float"]), st.booleans())
def test_characteristic_connection_matches_oracles_on_random_family_points(point, mode, turn):
    """A and the torsion against the Fraction(1, 2) formula and its
    antisymmetrization, and the torsion's Cartan parts against the re-slotted
    oracle split; a U(2)x1 rotation makes the float entries non-dyadic."""
    c = build(*point).coframe
    if turn:
        c = rotate(c, u2_rotation(1, Fraction(1, 2), -1, 2))
    c, _ = _working_scale(_to_float_coframe(c) if mode == "float" else c)
    fc = acms.frame_connection(connection_from_structure(c))
    cc = characteristic_connection(fc)
    nij = nested(acms.derived(fc, acms.nijenhuis))
    a = difference_tensor_oracle(
        acms.derived(fc, acms.d_eta_form), acms.derived(fc, acms.gamma_form), nij
    )
    _same(cc.a_c, a)
    torsion = [[[a[x][y][z] - a[y][x][z] for z in range(5)] for y in range(5)] for x in range(5)]
    _same(cc.torsion, torsion)
    parts, _ = torsion_type(cc)
    oracle = torsion_type_oracle(torsion)
    for name, t in cartan_parts(parts).items():
        _same(t, oracle[name])


@settings(max_examples=100, deadline=None)
@given(st.one_of(float_forms, rational_forms))
def test_phi_pullback_and_vartheta_match_oracles_on_random_2forms(beta):
    assert _terms(acms.phi_pullback(beta)) == _terms(phi_pullback_oracle(beta))
    if beta.mode == "exact":
        _same(acms.vartheta(beta), vartheta_oracle(beta))


def test_tensor3_holds_its_values_in_slot_order():
    t = acms.Tensor3(tuple(range(125)))
    assert nested(t)[1][2][3] == t.get(2, 3, 4) == acms.at(1, 2, 3) == 38
    with pytest.raises(ValueError):
        acms.Tensor3(nested(t))


def test_no_per_entry_closures_left_in_src():
    """Every fixed-shape kernel is an index plan: no module of ``src/acm5``
    builds a Tensor3 by calling a closure per entry."""
    users = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "t3_from_func"
    ]
    assert not users, users


def test_no_nested_cube_reads_left_in_src():
    """The 5x5x5 layout is known only to ``Tensor3`` and ``at``: no line of
    ``src/acm5`` reads a nested ``.values`` view or names PointwiseFrameData."""
    nested = re.compile(r"\.values\b(?!\()|PointwiseFrameData")
    users = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if nested.search(line)
    ]
    assert not users, users
