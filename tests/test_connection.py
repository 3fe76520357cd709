import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5 import connection
from acm5.acms import (
    F,
    LAMBDA2_BASES,
    PAIRS,
    PHI,
    Y1,
    Y2,
    Z1,
    Z2,
    Tensor3,
    frame_connection,
    predicates,
    theta,
    vartheta,
)
from acm5.cli import _to_float_coframe, load_coframe
from acm5.linalg import nullspace, rank
from acm5.connection import (
    J,
    SpinorSpace,
    characteristic_connection,
    compatibility_report,
    connection_plus_tensor,
    curvature,
    parallel_spinor_check,
    spinor_kernel,
    spinor_space,
    torsion_type,
    _bracket_closure,
)
from acm5.errors import (
    ACM5Error, ModeMismatchError, NotGeneralizedQuasiSasakiError, SymbolicResidueError,
    UnsupportedSymbolError,
)
from acm5.exterior import (
    CoframeData, coframe, d_squared_zero, dense2, e, ext_d, form, stored, wedge, wedge_sum
)
from acm5.frames import ConnectionForms, connection_from_structure, verify_first_structure
from acm5.scalars import sis_zero
from acm5.groups import build

from helpers import (
    GAUSSIAN_GENERATORS,
    GOLDEN,
    GOLDEN_FAMILY_POINTS,
    GOLDEN_INPUTS,
    GaussianRational,
    abelian_coframe,
    bits,
    complexify,
    connection_forms,
    connection_plus_tensor_oracle,
    curvature_grid_oracle,
    curvature_readings_oracle,
    entry,
    first_structure_oracle,
    flatten_oracle,
    form_items,
    evaluate,
    gaussian_kernel,
    gaussian_parallel,
    matmul,
    nested,
    pointwise,
    random_fraction,
    realify,
    rotate,
    t3_scale,
    table_matrix,
    u2_rotation,
)

ABELIAN = abelian_coframe()
ABELIAN_OMEGA = connection_from_structure(ABELIAN)


def test_characteristic_connection_family_table():
    inst = build(1, 2, 3, 6)
    cc = characteristic_connection(inst.omega_g)
    a2 = form(1, {(5,): 1})
    assert entry(cc.omega_c, 1, 2) == a2
    assert entry(cc.omega_c, 3, 4) == -1 * a2
    for i in range(5):
        for j in range(i + 1, 5):
            if (i, j) not in ((0, 1), (2, 3)):
                assert cc.omega_c.omega[i][j].is_zero()


# the generalized quasi-Sasaki golden inputs without auxiliary symbols
GQS_METRIC_INPUTS = [
    p for p in GOLDEN_INPUTS if (c := load_coframe(str(p))).n_symbols == 5
    and predicates(connection_from_structure(c)).generalized_quasi_sasaki
]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("path", GQS_METRIC_INPUTS, ids=lambda p: p.stem)
def test_characteristic_connection_of_pointwise_values_equals_that_of_the_forms(path, mode):
    c = load_coframe(str(path))
    if mode == "float":
        c = _to_float_coframe(c)
    solved = connection_from_structure(c)
    assert characteristic_connection(pointwise(solved)) == characteristic_connection(solved)


def test_characteristic_connection_abelian_is_levi_civita():
    cc = characteristic_connection(ABELIAN_OMEGA)
    assert all(cc.omega_c.omega[i][j].is_zero() for i in range(5) for j in range(5))
    assert cc.a_c.is_zero() and cc.torsion.is_zero()


def test_compatibility_triple_vanishes():
    inst = build(1, 0, 2, 0)
    cc = characteristic_connection(inst.omega_g)
    rep = compatibility_report(cc.omega_c)
    assert rep.nabla_xi_zero and rep.nabla_eta_zero and rep.nabla_phi_zero


def test_not_generalized_quasi_sasaki_rejected():
    cf = coframe({"e1": wedge(e(4), e(5))})
    om = connection_from_structure(cf)
    from acm5.acms import predicates

    assert not predicates(om).generalized_quasi_sasaki
    with pytest.raises(NotGeneralizedQuasiSasakiError):
        characteristic_connection(om)


def test_uniqueness_any_embedding_perturbation_breaks_compatibility():
    inst = build(1, 0, 0, 0)
    cc = characteristic_connection(inst.omega_g)
    perturbations = [theta(b) for part in (1, 2, 3, 4) for b in LAMBDA2_BASES[part]]
    perturbations += [vartheta(b) for b in LAMBDA2_BASES[2]]
    assert len(perturbations) == 12
    for p in perturbations:
        omega_bad = connection_plus_tensor(cc.omega_c, t3_scale(p, Fraction(1, 2)))
        assert not compatibility_report(omega_bad).ok


def test_torsion_types_across_family():
    _, tag = torsion_type(characteristic_connection(build(1, 0, 0, 0).omega_g))
    assert tag == "skew"
    inst = build(0, 0, 1, 0)
    _, tag = torsion_type(characteristic_connection(inst.omega_g))
    assert tag == "traceless-cyclic"
    inst = build(1, 0, 2, 0)
    _, tag = torsion_type(characteristic_connection(inst.omega_g))
    assert tag == "mixed"
    cc = characteristic_connection(ABELIAN_OMEGA)
    _, tag = torsion_type(cc)
    assert tag == "zero"


def test_torsion_two_computation_paths():
    inst = build(2, 1, 4, 2)
    cc = characteristic_connection(inst.omega_g)
    torsion = nested(cc.torsion)
    for i in range(5):
        residual = ext_d(e(i + 1), inst.coframe)
        for j in range(5):
            residual = residual - wedge(cc.omega_c.omega[i][j], e(j + 1))
        for x in range(5):
            for y in range(5):
                assert torsion[x][y][i] == evaluate(residual, x, y)


def test_cartan_parts_of_torsion_sum_back():
    inst = build(1, 0, 2, 0)
    cc = characteristic_connection(inst.omega_g)
    parts, _ = torsion_type(cc)
    assert parts.vectorial + parts.skew + parts.cyclic == cc.torsion


def test_cartan_parts_of_pure_type_torsions():
    inst = build(1, 0, 0, 0)
    cc = characteristic_connection(inst.omega_g)
    parts, _ = torsion_type(cc)
    assert parts.skew == cc.torsion
    assert parts.vectorial.is_zero() and parts.cyclic.is_zero()
    inst = build(0, 0, 1, 0)
    cc = characteristic_connection(inst.omega_g)
    parts, _ = torsion_type(cc)
    assert parts.cyclic == cc.torsion
    assert parts.vectorial.is_zero() and parts.skew.is_zero()


# -- curvature -----------------------------------------------------------------


def test_family_curvature_exact_values():
    inst = build(1, 0, 0, 0)
    cc = characteristic_connection(inst.omega_g)
    cur = curvature(inst.coframe, cc.omega_c)
    assert inst.alpha == -4
    assert entry(cur, 1, 2) == -4 * F
    assert entry(cur, 3, 4) == 4 * F
    for i in range(5):
        for j in range(i + 1, 5):
            if (i, j) not in ((0, 1), (2, 3)):
                assert cur.curvature[i][j].is_zero()
    expected_ric = [[Fraction(0)] * 5 for _ in range(5)]
    for i in range(4):
        expected_ric[i][i] = Fraction(4)
    assert [list(r) for r in cur.ricci] == expected_ric
    assert len(cur.holonomy_basis) == 1
    hb = cur.holonomy_basis[0]
    ratio = hb.coefficient((0, 1))
    assert hb == F.scale(ratio) and ratio != 0


def test_curvature_degenerate_and_flat_cases():
    inst = build(1, 0, 1, 0)
    assert inst.alpha == 0
    cc = characteristic_connection(inst.omega_g)
    cur = curvature(inst.coframe, cc.omega_c)
    assert all(cur.curvature[i][j].is_zero() for i in range(5) for j in range(5))
    assert len(cur.holonomy_basis) == 0
    cur0 = curvature(ABELIAN, ABELIAN_OMEGA)
    assert all(cur0.curvature[i][j].is_zero() for i in range(5) for j in range(5))


def test_family_ricci_symmetric():
    inst = build(2, 3, 4, 6)
    cc = characteristic_connection(inst.omega_g)
    cur = curvature(inst.coframe, cc.omega_c)
    for i in range(5):
        for j in range(5):
            assert cur.ricci[i][j] == cur.ricci[j][i]


def test_levi_civita_curvature_of_family_keeps_residue():
    # unlike the compatible connection, the Levi-Civita curvature needs the
    # unknown frame expansion of A2, so the symbolic model must refuse it
    from acm5.errors import SymbolicResidueError

    inst = build(1, 0, 0, 0)
    with pytest.raises(SymbolicResidueError):
        curvature(inst.coframe, inst.omega_g)


def test_curvature_refuses_a_non_integrable_coframe():
    inst = build(1, 0, 0, 0)
    cf = inst.coframe
    doubled = CoframeData(cf.symbols, {**cf.d_table, 5: 2 * cf.d_table[5]})
    assert not d_squared_zero(doubled).ok
    with pytest.raises(ACM5Error, match=r"curvature needs an integrable coframe \(d\^2 = 0\)"):
        curvature(doubled, inst.omega_g)


def test_curvature_refuses_a_nonzero_block_beyond_the_coframe_symbols():
    """A view may hold blocks past the coframe's symbols: a zero one adds nothing, and one
    with a nonzero entry is refused."""
    c = load_coframe(str(GOLDEN / "inputs" / "heis5_sasakian.json"))
    view = connection_from_structure(c).view
    assert curvature(c, ConnectionForms(view + (0,) * 25)) == curvature(c, ConnectionForms(view))
    skew = (0, 1, 0, 0, 0, -1) + (0,) * 19  # w[1][2](E_6) = 1, 1-based
    with pytest.raises(UnsupportedSymbolError, match="^form uses symbols outside the coframe$"):
        curvature(c, ConnectionForms(view + skew))


def test_bracket_closure_grows_so3():
    e12 = form(2, {(0, 1): 1})
    e13 = form(2, {(0, 2): 1})
    closed = _bracket_closure([dense2(e12), dense2(e13)])
    assert len(closed) == 3


# -- spinors ---------------------------------------------------------------------


def test_gaussian_rational_arithmetic():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    z = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    w = z * z.conj()
    assert w == GaussianRational(Fraction(13, 16))
    assert (z / z) == GaussianRational(1)


def test_tables_are_the_realified_gaussian_generators():
    assert tuple(realify(g) for g in GAUSSIAN_GENERATORS) == connection.GENERATORS
    i = tuple(tuple(GaussianRational(0, int(r == c)) for c in range(4)) for r in range(4))
    assert realify(i) == J


def test_broken_generators_rejected():
    good = spinor_space().generators
    assert SpinorSpace(good).products == spinor_space().products
    bad = (good[0],) * 5  # g_i g_j + g_j g_i = -2 only on the diagonal
    with pytest.raises(ACM5Error):
        SpinorSpace(bad)
    with pytest.raises(ACM5Error):
        SpinorSpace(tuple(tuple((c, 2 * s) for c, s in g) for g in good))


def test_clifford_relations_hold():
    gens = [table_matrix(g) for g in spinor_space().generators]
    for i in range(5):
        for j in range(5):
            gij, gji = matmul(gens[i], gens[j]), matmul(gens[j], gens[i])
            for r in range(8):
                for c in range(8):
                    expected = -2 if (i == j and r == c) else 0
                    assert gij[r][c] + gji[r][c] == expected


def test_spinor_kernel_dimension_and_spectrum():
    space = spinor_space()
    m = space.action_of_2form(F)
    assert len(nullspace(m)) == 4 and spinor_kernel(space, F).dimension == 2
    # spectrum {0, 0, 2i, -2i} on C^4: m (m^2 + 4) = 0 on R^8, with real
    # nullities 4 for m and 4 for m^2 + 4
    m2 = matmul(m, m)
    plus4 = [[m2[r][c] + (4 if r == c else 0) for c in range(8)] for r in range(8)]
    assert all(v == 0 for row in matmul(m, plus4) for v in row)
    assert len(nullspace(plus4)) == 4


def test_spin_lift_annihilates_kernel_and_only_it():
    inst = build(1, 0, 0, 0)
    cc = characteristic_connection(inst.omega_g)
    space = spinor_space()
    ker = spinor_kernel(space, F)
    assert ker.dimension == 2
    assert parallel_spinor_check(space, cc.omega_c, ker.kernel_basis)
    # a spinor outside the kernel picks up a nonzero A2 component
    m = space.action_of_2form(F)
    non_kernel = next(
        v for v in ([Fraction(int(r == idx)) for r in range(8)] for idx in range(8))
        if any(sum(a * b for a, b in zip(row, v)) for row in m)
    )
    assert not parallel_spinor_check(space, cc.omega_c, [non_kernel])


def test_parallel_spinors_across_parameters():
    rng = random.Random(79)
    space = spinor_space()
    ker = spinor_kernel(space, F)
    for _ in range(4):
        a1, a2, t = (random_fraction(rng) for _ in range(3))
        inst = build(a1, a2, t * a1, t * a2)
        cc = characteristic_connection(inst.omega_g)
        assert parallel_spinor_check(space, cc.omega_c, ker.kernel_basis)


def test_kernel_off_the_complex_structure_is_rejected(monkeypatch):
    """Conjugating every generator by the swap of x_0 and x_2 keeps the
    Clifford relations but not complex linearity, so the kernel of F is no
    longer stable under J."""
    swap = tuple((c, 1) for c in (2, 1, 0, 3, 4, 5, 6, 7))
    swapped = tuple(
        connection._compose(connection._compose(swap, g), swap) for g in connection.GENERATORS
    )
    spinor_space.cache_clear()
    monkeypatch.setattr(connection, "GENERATORS", swapped)
    try:
        space = spinor_space()
        assert space.generators == swapped
        with pytest.raises(ACM5Error, match="internal consistency"):
            spinor_kernel(space, F)
    finally:
        spinor_space.cache_clear()


def _oracle_agrees(omega, beta=F):
    """The library and the Gaussian-rational oracle on the kernel of beta and
    the verdict of the spin lift of omega on it, on the whole kernel and on
    each real basis vector alone; returns the verdict on the kernel."""
    space = spinor_space()
    ker = spinor_kernel(space, beta)
    gker = gaussian_kernel(beta)
    assert ker.dimension == len(gker)
    verdict = parallel_spinor_check(space, omega, ker.kernel_basis)
    assert verdict == gaussian_parallel(omega, gker)
    for v in ker.kernel_basis:
        assert parallel_spinor_check(space, omega, [v]) == gaussian_parallel(omega, [complexify(v)])
    return verdict


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_spinors_match_oracle_on_golden_inputs(path, mode):
    c = load_coframe(str(path))
    if mode == "float":
        c = _to_float_coframe(c)
    omega = connection_from_structure(c)
    _oracle_agrees(omega)
    fc = frame_connection(omega)
    if predicates(fc).generalized_quasi_sasaki:
        cc = characteristic_connection(fc)
        verdict = _oracle_agrees(cc.omega_c)
        assert verdict is (path.stem not in ("ch2_x_R", "heis5_sasakian"))
        if mode == "exact":
            cur = curvature(c, cc.omega_c)
            for beta in (*cur.holonomy_basis, *(f for row in cur.curvature for f in row)):
                if not beta.is_zero():
                    _oracle_agrees(cc.omega_c, beta)


def _connection(parts):
    """The connection forms sum_k beta_k (x) alpha_k for (2-form, 1-form) pairs."""
    entries = {}
    for beta, alpha in parts:
        for (i, j), coef in beta.terms.items():
            entries[i + 1, j + 1] = entries.get((i + 1, j + 1), form(1, {})) + alpha.scale(coef)
    return connection_forms(entries)


@pytest.mark.parametrize(
    "beta, parallel",
    [
        (F, True),
        (Y1, True),
        (Y2, True),
        (PHI, False),
        (Z1, False),
        (Z2, False),
        (form(2, {(0, 4): 1}), False),
    ],
    ids=["F", "Y1", "Y2", "PHI", "Z1", "Z2", "e15"],
)
def test_spin_lift_verdict_per_so5_direction(beta, parallel):
    """ker F is the half-spinor space that the su(2) spanned by F, Y1, Y2
    kills; every other direction moves it."""
    assert _oracle_agrees(_connection([(beta, form(1, {(0,): 1, (4,): 2}))])) is parallel


def _one_forms(coefficients):
    return st.lists(coefficients, min_size=6, max_size=6).map(
        lambda cs: form(1, {(k,): v for k, v in enumerate(cs) if v})
    )


rationals = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))
dyadic_floats = st.integers(-12, 12).map(lambda n: n / 4)


@settings(max_examples=25, deadline=None)
@given(_one_forms(rationals))
def test_u1_connection_along_f_matches_oracle(alpha):
    assert _oracle_agrees(_connection([(F, alpha)])) is True


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([rationals, dyadic_floats]).flatmap(
        lambda coefficients: st.lists(
            st.one_of(st.just(form(1, {})), _one_forms(coefficients)), min_size=6, max_size=6
        )
    )
)
def test_connection_with_su2_parts_matches_oracle(alphas):
    _oracle_agrees(_connection(list(zip((F, Y1, Y2, PHI, Z1, Z2), alphas))))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=10, max_size=10))
def test_kernel_dimension_matches_oracle_on_random_2forms(coefs):
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    beta = form(2, {p: Fraction(c) for p, c in zip(pairs, coefs) if c})
    _oracle_agrees(connection_forms({}), beta)


# -- one term table per entry, against the Form chains it replaced ---------------------------


@functools.cache
def _integrable_coframe(name, mode):
    """A golden input, or the family coframe (1, 0, 2, 0) with its auxiliary symbol."""
    c = build(1, 0, 2, 0).coframe if name == "family+A2" else load_coframe(str(name))
    return _to_float_coframe(c) if mode == "float" else c


SCALARS = {
    "int": st.integers(-3, 3),
    "fraction": st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
    "float": st.one_of(st.just(0.0), st.floats(-3, 3, allow_nan=False)),
}


@st.composite
def connection_cases(draw):
    """An integrable coframe with 0 or 1 auxiliary channel, a random antisymmetric
    connection on all of its symbols and a random tensor, of one kind of scalar."""
    kind = draw(st.sampled_from(sorted(SCALARS)))
    name = draw(st.sampled_from(["family+A2", *GOLDEN_INPUTS]))
    c = _integrable_coframe(name, "float" if kind == "float" else "exact")
    values = SCALARS[kind]
    legs = st.lists(st.one_of(st.none(), values), min_size=c.n_symbols, max_size=c.n_symbols)
    entries = {
        (i, j): form(1, {(k,): v for k, v in enumerate(draw(legs)) if v is not None})
        for i in range(1, 6)
        for j in range(i + 1, 6)
        if draw(st.booleans())
    }
    upper = iter(draw(st.lists(values, min_size=50, max_size=50)))
    cube = [[[0] * 5 for _ in range(5)] for _ in range(5)]  # antisymmetric in its last two slots
    for x, y, z in itertools.product(range(5), repeat=3):
        if y < z:
            cube[x][y][z] = next(upper)
            cube[x][z][y] = -cube[x][y][z]
    a = Tensor3(tuple(v for m in cube for r in m for v in r))
    return c, connection_forms(entries), a


def _grid_items(grid):
    return [[form_items(f) for f in row] for row in grid]


@settings(max_examples=40, deadline=None)
@given(connection_cases())
def test_one_table_per_entry_matches_the_form_chains(case):
    """Each curvature entry as one wedge_sum and the first-structure residuals read off the
    view give the keys, the key order, the values and their types (floats by repr) and the
    kind that the chains of Form operators gave.  The compatible connection's view,
    written slot by slot, is the flattened Form chain, type and bits per slot, auxiliary
    blocks included, and each of its forms w[i][j], i < j, has the chain's keys and values."""
    c, omega, a = case
    w = omega.omega
    fused = [
        [wedge_sum(ext_d(w[i][j], c), ((w[i][k], w[k][j]) for k in range(5))) for j in range(5)]
        for i in range(5)
    ]
    assert _grid_items(fused) == _grid_items(curvature_grid_oracle(c, omega))
    plus, chain = connection_plus_tensor(omega, a), connection_plus_tensor_oracle(omega, a)
    flat = flatten_oracle(chain, len(plus.view) // 25)
    assert [bits(v) for v in plus.view] == [bits(v) for v in flat]
    upper = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert _values([[plus.omega[i][j] for i, j in upper]]) == _values(
        [[chain[i][j] for i, j in upper]]
    )
    residuals = verify_first_structure(c, omega).residuals
    oracle = first_structure_oracle(c, omega)
    assert {n: form_items(f) for n, f in residuals.items()} == {
        n: form_items(f) for n, f in oracle.items()
    }


@settings(max_examples=40, deadline=None)
@given(connection_cases(), st.data())
def test_view_equality_gives_the_verdict_of_the_forms(case, data):
    """For two connections of one kind, == on the views gives the verdict of Form ==
    on all 25 entries: the drawn connection against itself with one upper entry
    dropped, or changed by one term of the same kind (a zero or, for floats, one
    within FLOAT_RTOL or just above it), or with every auxiliary leg dropped, so that
    an auxiliary block that one side lacks reads as zeros."""
    c, omega, a = case
    floats = any(type(v) is float for v in a.flat)
    tiny = st.sampled_from([1e-10, -1e-10, 2e-9])
    values = st.one_of(SCALARS["float"], tiny) if floats else SCALARS["fraction"]
    upper = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    entries = {(i + 1, j + 1): omega.omega[i][j] for i, j in upper}
    i, j = data.draw(st.sampled_from(upper))
    change = data.draw(st.sampled_from(["drop", "add", "metric legs only"]))
    if change == "drop":
        entries[i + 1, j + 1] = form(1, {})
    elif change == "add":
        k, v = data.draw(st.integers(0, c.n_symbols - 1)), data.draw(values)
        entries[i + 1, j + 1] = entries[i + 1, j + 1] + form(1, {(k,): v})
    else:  # every auxiliary leg goes
        entries = {p: form(1, {k: v for k, v in f.terms.items() if k[0] < 5})
                   for p, f in entries.items()}
    other = connection_forms(entries)
    verdict = all(omega.omega[p][q] == other.omega[p][q] for p in range(5) for q in range(5))
    assert (omega == other, other == omega, omega != other) == (verdict, verdict, not verdict)


def test_view_equality_on_a_float_near_an_exact_value_and_on_a_missing_channel():
    """The one deliberate difference from Form ==, which never equates an exact and a
    float form that both hold terms: the views compare slot by slot by sis_zero(a - b).
    An auxiliary block that one side lacks reads as zeros."""
    exact = connection_forms({(1, 2): form(1, {(0,): 1}), (3, 4): form(1, {(0,): 1})})
    near = connection_forms({(1, 2): form(1, {(0,): 1}), (3, 4): form(1, {(0,): 1 + 1e-12})})
    assert exact.omega[2][3] != near.omega[2][3]
    assert exact == near and near == exact
    far = connection_forms({(1, 2): form(1, {(0,): 1}), (3, 4): form(1, {(0,): 1 + 2e-9})})
    assert exact != far and far != exact
    zeros = connection_forms({(1, 2): form(1, {(0,): 1.0, (5,): 0.0})})
    assert len(zeros.view) == 150 and zeros == connection_forms({(1, 2): form(1, {(0,): 1.0})})
    assert connection_forms({}) != connection_forms({(1, 2): form(1, {(5,): 1})})


def test_connections_that_are_equal_hash_alike():
    """== allows FLOAT_RTOL per slot and mixes kinds, so the hash reads no slot: the exact
    and near connections above, and an exact and a float connection at 1 and 1.0, are
    equal and hash alike, and a set keeps one of each pair."""
    exact = connection_forms({(1, 2): form(1, {(0,): 1}), (3, 4): form(1, {(0,): 1})})
    near = connection_forms({(1, 2): form(1, {(0,): 1}), (3, 4): form(1, {(0,): 1 + 1e-12})})
    one = connection_forms({(1, 2): form(1, {(0,): 1})})
    one_float = connection_forms({(1, 2): form(1, {(0,): 1.0})})
    for a, b in ((exact, near), (one, one_float)):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("coframe_mode, connection_mode", [("float", "exact"), ("exact", "float")])
def test_curvature_refuses_a_coframe_and_a_connection_of_two_kinds(coframe_mode, connection_mode):
    """On heis5_sasakian, a float coframe with the exact Levi-Civita connection, and the
    exact coframe with the float one, raise ModeMismatchError instead of a mixed grid."""
    path = GOLDEN / "inputs" / "heis5_sasakian.json"
    omega = connection_from_structure(_integrable_coframe(path, connection_mode))
    c = _integrable_coframe(path, coframe_mode)
    curvature(_integrable_coframe(path, connection_mode), omega)  # one kind: computed
    with pytest.raises(ModeMismatchError) as info:
        curvature(c, omega)
    assert str(info.value) == (
        f"curvature mixes a {coframe_mode} coframe with a {connection_mode} connection"
    )


def _chopped(f):
    kept = {idx: v for idx, v in f.terms.items() if not sis_zero(v)}
    return f if len(kept) == len(f.terms) else stored(f.degree, kept)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_curvature_matches_the_dense_table_oracles(path, mode):
    """On each generalized quasi-Sasaki golden structure, exact and float, the
    curvature entries, the Ricci matrix and the holonomy basis are those of the
    Form chains, the 25 dense tables and the closure over every ordered pair."""
    c = _integrable_coframe(path, mode)
    fc = frame_connection(connection_from_structure(c))
    if not predicates(fc).generalized_quasi_sasaki:
        return
    omega = characteristic_connection(fc).omega_c
    cur = curvature(c, omega)
    grid = [[_chopped(f) for f in row] for row in curvature_grid_oracle(c, omega)]
    assert _grid_items(cur.curvature) == _grid_items(grid)
    ricci, holonomy = curvature_readings_oracle(grid)
    assert [list(map(bits, row)) for row in cur.ricci] == [list(map(bits, row)) for row in ricci]
    assert [form_items(f) for f in cur.holonomy_basis] == [form_items(f) for f in holonomy]


def _values(grid):
    """Each entry of a 5x5 grid of Forms as {key: (type, repr)}: the key set, and each
    value's type and bits, without the key order."""
    return [[{k: (type(v), repr(v)) for k, v in f.terms.items()} for f in row] for row in grid]


@settings(max_examples=25, deadline=None)
@given(connection_cases())
def test_matrix_curvature_matches_the_form_chain_on_random_connections(case):
    """On random connections, of ints, fractions or floats, over coframes with and without
    the auxiliary channel A2, the matrix path gives each entry's keys and each value's type
    and bits of the chopped Form chain, its Ricci bits and its holonomy dimension, and it
    refuses an auxiliary residue exactly when a chopped entry of the chain keeps one."""
    c, omega, _ = case
    grid = [[_chopped(f) for f in row] for row in curvature_grid_oracle(c, omega)]
    if any(s > 4 for row in grid for f in row for s in f.symbols_used()):
        with pytest.raises(SymbolicResidueError):
            curvature(c, omega)
        return
    cur = curvature(c, omega)
    assert _values(cur.curvature) == _values(grid)
    ricci, holonomy = curvature_readings_oracle(grid)
    assert [list(map(bits, row)) for row in cur.ricci] == [list(map(bits, row)) for row in ricci]
    assert len(cur.holonomy_basis) == len(holonomy)


def test_holonomy_takes_no_candidate_twice_when_a_stored_row_has_a_residue():
    """On the float ch2_x_R coframe, a connection with entries 1.0 and 2**-24 gives a stored
    holonomy row whose entry 2**-48 is zero at the tolerance but reads 2**-24 once the row is
    scaled: the closure must not count that entry again, so a candidate that equals a basis
    element is not new, and the dimension is the oracle's 3."""
    c = _integrable_coframe(next(p for p in GOLDEN_INPUTS if p.stem == "ch2_x_R"), "float")
    omega = connection_forms({(2, 3): form(1, {(4,): 1.0}), (2, 5): form(1, {(1,): 2.0**-24}),
                              (4, 5): form(1, {(1,): 1.0})})
    cur = curvature(c, omega)
    grid = [[_chopped(f) for f in row] for row in curvature_grid_oracle(c, omega)]
    assert len(cur.holonomy_basis) == len(curvature_readings_oracle(grid)[1]) == 3


def _invariance_cases():
    """The generalized quasi-Sasaki golden inputs, exact, and the golden family points
    turned by one U(2)x1 rotation, each with its compatible connection."""
    coframes = {p.stem: load_coframe(str(p)) for p in GOLDEN_INPUTS}
    turn = u2_rotation(1, Fraction(1, 2), -1, 2)
    for point in GOLDEN_FAMILY_POINTS:
        coframes["family_turned_" + "_".join(map(str, point))] = rotate(build(*point).coframe, turn)
    for name, c in coframes.items():
        fc = frame_connection(connection_from_structure(c))
        if predicates(fc).generalized_quasi_sasaki:
            yield pytest.param(c, characteristic_connection(fc).omega_c, id=name)


@pytest.mark.parametrize("c, omega", _invariance_cases())
def test_holonomy_is_closed_under_the_connection_matrices(c, omega):
    """The holonomy algebra of an invariant connection is the smallest one that holds
    every R(E_a, E_b) and is closed under [M_s, .] for each symbol matrix M_s[i][j] =
    w[i][j](E_s) (Kobayashi-Nomizu II, Ch. X).  The bracket closure of the R(E_a, E_b)
    already is, for every matrix of the compatible connection, metric and auxiliary."""
    basis = curvature(c, omega).holonomy_basis
    rows = [[f.coefficient(p) for p in PAIRS] for f in basis]
    for s in range(c.n_symbols):
        m = [[omega.omega[i][j].coefficient((s,)) for j in range(5)] for i in range(5)]
        for h in map(dense2, basis):
            mh, hm = matmul(m, h), matmul(h, m)
            bracket = [mh[i][j] - hm[i][j] for i, j in PAIRS]
            assert rank([*rows, bracket]) == len(basis), (s, h)
