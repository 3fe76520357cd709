import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5 import connection
from acm5.acms import (
    F,
    LAMBDA2_BASES,
    PHI,
    Y1,
    Y2,
    Z1,
    Z2,
    frame_connection,
    predicates,
    theta,
    vartheta,
)
from acm5.cli import _to_float_coframe, load_coframe
from acm5.linalg import nullspace
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
from acm5.errors import ACM5Error, NotGeneralizedQuasiSasakiError
from acm5.exterior import CoframeData, coframe, d_squared_zero, e, ext_d, form, wedge
from acm5.frames import connection_forms, connection_from_structure
from acm5.groups import build

from helpers import (
    GAUSSIAN_GENERATORS,
    GOLDEN_INPUTS,
    GaussianRational,
    abelian_coframe,
    complexify,
    entry,
    evaluate,
    gaussian_kernel,
    gaussian_parallel,
    matmul,
    nested,
    random_fraction,
    realify,
    table_matrix,
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


def test_characteristic_connection_needs_connection_forms():
    inst = build(1, 0, 0, 0)
    pointwise = frame_connection(inst.omega_g).base
    with pytest.raises(TypeError, match="connection forms"):
        characteristic_connection(pointwise)


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
        omega_bad = connection_plus_tensor(cc.omega_c, p.scale(Fraction(1, 2)))
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
    doubled = CoframeData(cf.symbols, {**cf.d_table, 5: 2 * cf.d_table[5]}, cf.orientation)
    assert not d_squared_zero(doubled).ok
    with pytest.raises(ACM5Error, match=r"curvature needs an integrable coframe \(d\^2 = 0\)"):
        curvature(doubled, inst.omega_g)


def test_bracket_closure_grows_so3():
    e12 = form(2, {(0, 1): 1})
    e13 = form(2, {(0, 2): 1})
    closed = _bracket_closure([e12, e13])
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
