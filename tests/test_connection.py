import random
from fractions import Fraction

import pytest

from acm5.acms import F, LAMBDA2_BASES, theta, vartheta
from acm5.linalg import nullspace
from acm5.connection import (
    GaussianRational,
    characteristic_connection,
    compatibility_report,
    connection_plus_tensor,
    curvature,
    parallel_spinor_check,
    spin_lift_matrices,
    spinor_kernel,
    spinor_space,
    torsion_type,
    _bracket_closure,
    _mat_mul,
    apply_matrix,
)
from acm5.errors import NotGeneralizedQuasiSasakiError
from acm5.exterior import abelian_coframe, coframe, e, ext_d, form, wedge
from acm5.family import build
from acm5.frames import connection_from_structure

from helpers import random_fraction

ABELIAN = abelian_coframe()
ABELIAN_OMEGA = connection_from_structure(ABELIAN)


def test_characteristic_connection_family_table():
    inst = build(1, 2, 3, 6)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    a2 = form(1, {(5,): 1})
    assert cc.omega_c.entry(1, 2) == a2
    assert cc.omega_c.entry(3, 4) == -1 * a2
    for i in range(5):
        for j in range(i + 1, 5):
            if (i, j) not in ((0, 1), (2, 3)):
                assert cc.omega_c.omega[i][j].is_zero()


def test_characteristic_connection_abelian_is_levi_civita():
    cc = characteristic_connection(ABELIAN, ABELIAN_OMEGA)
    assert all(cc.omega_c.omega[i][j].is_zero() for i in range(5) for j in range(5))
    assert cc.a_c.is_zero() and cc.torsion.is_zero()


def test_compatibility_triple_vanishes():
    inst = build(1, 0, 2, 0)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    rep = compatibility_report(cc.omega_c)
    assert rep.nabla_xi_zero and rep.nabla_eta_zero and rep.nabla_phi_zero


def test_not_generalized_quasi_sasaki_rejected():
    cf = coframe({"e1": wedge(e(4), e(5))})
    om = connection_from_structure(cf)
    from acm5.acms import predicates

    assert not predicates(om).generalized_quasi_sasaki
    with pytest.raises(NotGeneralizedQuasiSasakiError):
        characteristic_connection(cf, om)


def test_uniqueness_any_embedding_perturbation_breaks_compatibility():
    inst = build(1, 0, 0, 0)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    perturbations = [theta(b) for part in (1, 2, 3, 4) for b in LAMBDA2_BASES[part]]
    perturbations += [vartheta(b) for b in LAMBDA2_BASES[2]]
    assert len(perturbations) == 12
    for p in perturbations:
        omega_bad = connection_plus_tensor(cc.omega_c, p.scale(Fraction(1, 2)))
        assert not compatibility_report(omega_bad).ok


def test_torsion_types_across_family():
    _, tag = torsion_type(characteristic_connection(build(1, 0, 0, 0).coframe, build(1, 0, 0, 0).omega_g))
    assert tag == "skew"
    inst = build(0, 0, 1, 0)
    _, tag = torsion_type(characteristic_connection(inst.coframe, inst.omega_g))
    assert tag == "traceless-cyclic"
    inst = build(1, 0, 2, 0)
    _, tag = torsion_type(characteristic_connection(inst.coframe, inst.omega_g))
    assert tag == "mixed"
    cc = characteristic_connection(ABELIAN, ABELIAN_OMEGA)
    _, tag = torsion_type(cc)
    assert tag == "zero"


def test_torsion_two_computation_paths():
    inst = build(2, 1, 4, 2)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    for i in range(5):
        residual = ext_d(e(i + 1), inst.coframe)
        for j in range(5):
            residual = residual - wedge(cc.omega_c.omega[i][j], e(j + 1))
        for x in range(5):
            for y in range(5):
                assert cc.torsion.values[x][y][i] == residual.evaluate(x, y)


def test_cartan_parts_of_torsion_sum_back():
    inst = build(1, 0, 2, 0)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    parts, _ = torsion_type(cc)
    assert parts.vectorial + parts.skew + parts.cyclic == cc.torsion


def test_cartan_parts_of_pure_type_torsions():
    inst = build(1, 0, 0, 0)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    parts, _ = torsion_type(cc)
    assert parts.skew == cc.torsion
    assert parts.vectorial.is_zero() and parts.cyclic.is_zero()
    inst = build(0, 0, 1, 0)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    parts, _ = torsion_type(cc)
    assert parts.cyclic == cc.torsion
    assert parts.vectorial.is_zero() and parts.skew.is_zero()


# -- curvature -----------------------------------------------------------------


def test_family_curvature_exact_values():
    inst = build(1, 0, 0, 0)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    cur = curvature(inst.coframe, cc.omega_c)
    assert inst.alpha == -4
    assert cur.entry(1, 2) == -4 * F
    assert cur.entry(3, 4) == 4 * F
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
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    cur = curvature(inst.coframe, cc.omega_c)
    assert all(cur.curvature[i][j].is_zero() for i in range(5) for j in range(5))
    assert len(cur.holonomy_basis) == 0
    cur0 = curvature(ABELIAN, ABELIAN_OMEGA)
    assert all(cur0.curvature[i][j].is_zero() for i in range(5) for j in range(5))


def test_family_ricci_symmetric():
    inst = build(2, 3, 4, 6)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
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


def test_broken_generators_rejected():
    from acm5.connection import ID4, SpinorSpace, _mat_scale
    from acm5.errors import ACM5Error

    good = spinor_space().generators
    bad = (good[0],) * 5  # g_i g_j + g_j g_i = -2 only on the diagonal
    with pytest.raises(ACM5Error):
        SpinorSpace(bad)
    with pytest.raises(ACM5Error):
        SpinorSpace(tuple(_mat_scale(2, g) for g in good))
    assert _mat_scale(0, ID4) is not None


def test_clifford_relations_hold():
    space = spinor_space()
    for i in range(5):
        for j in range(5):
            anti = [
                [
                    sum(
                        (
                            space.generators[i][r][k] * space.generators[j][k][c]
                            + space.generators[j][r][k] * space.generators[i][k][c]
                            for k in range(4)
                        ),
                        GaussianRational(0),
                    )
                    for c in range(4)
                ]
                for r in range(4)
            ]
            for r in range(4):
                for c in range(4):
                    expected = GaussianRational(-2 if (i == j and r == c) else 0)
                    assert anti[r][c] == expected


def test_spinor_kernel_dimension_and_spectrum():
    space = spinor_space()
    m = space.action_of_2form(F)
    ker = nullspace(m)
    assert len(ker) == 2
    # spectrum {0, 0, 2i, -2i}: m (m - 2i)(m + 2i) = 0 and the rank pattern
    two_i = GaussianRational(0, 2)
    id4 = [[GaussianRational(1 if r == c else 0) for c in range(4)] for r in range(4)]

    def shift(mat, lam):
        return [[mat[r][c] - (lam if r == c else GaussianRational(0)) for c in range(4)] for r in range(4)]

    assert len(nullspace(shift(m, two_i))) == 1
    assert len(nullspace(shift(m, -two_i))) == 1
    m2 = _mat_mul(tuple(tuple(r) for r in m), tuple(tuple(r) for r in m))
    plus4 = [[m2[r][c] + GaussianRational(4 if r == c else 0) for c in range(4)] for r in range(4)]
    assert len(nullspace(plus4)) == 2


def test_spin_lift_annihilates_kernel_and_only_it():
    inst = build(1, 0, 0, 0)
    cc = characteristic_connection(inst.coframe, inst.omega_g)
    space = spinor_space()
    ker = spinor_kernel(space, F)
    assert ker.dimension == 2
    assert parallel_spinor_check(space, cc.omega_c, ker.kernel_basis)
    # a spinor outside the kernel picks up a nonzero A2 component
    non_kernel = None
    for idx in range(4):
        cand = tuple(GaussianRational(1 if i == idx else 0) for i in range(4))
        if any(apply_matrix(space.action_of_2form(F), cand)):
            non_kernel = cand
            break
    assert non_kernel is not None
    lifts = spin_lift_matrices(space, cc.omega_c)
    assert any(any(apply_matrix(m, non_kernel)) for m in lifts.values())


def test_parallel_spinors_across_parameters():
    rng = random.Random(79)
    space = spinor_space()
    ker = spinor_kernel(space, F)
    for _ in range(4):
        a1, a2, t = (random_fraction(rng) for _ in range(3))
        inst = build(a1, a2, t * a1, t * a2)
        cc = characteristic_connection(inst.coframe, inst.omega_g)
        assert parallel_spinor_check(space, cc.omega_c, ker.kernel_basis)
