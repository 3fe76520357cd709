import itertools
import random
from fractions import Fraction

import pytest

from acm5 import linalg
from acm5.acms import (
    ETA,
    F,
    L24,
    NEARLY,
    PHI,
    PHI_MAT,
    XI,
    Y1,
    Y2,
    Z1,
    Z2,
    Tensor3,
    at,
    contract,
    d_eta_form,
    d_phi_tensor,
    frame_connection,
    gamma_form,
    inner_form,
    nabla_phi,
    nabla_xi_matrix,
    nijenhuis,
    predicates,
    theta,
    vartheta,
    xi_is_killing,
)
from acm5.errors import (
    NotGeneralizedQuasiSasakiError,
    SymbolicResidueError,
)
from acm5.exterior import e, form, hodge, wedge
from acm5.frames import connection_from_structure
from acm5.groups import build
from acm5.scalars import sis_zero

from helpers import (
    GOLDEN,
    AmbiguityError,
    abelian_coframe,
    codifferential,
    connection_forms,
    d_form_via_connection,
    evaluate,
    inner,
    lambda2_project,
    nearly_cosymplectic_oracle,
    nested,
    phi_invariance_type,
    pr_w,
    project_u2,
    project_u2_complement,
    random_form,
    random_fraction,
    random_pointwise,
    t3_get,
)

ABELIAN_OMEGA = connection_from_structure(abelian_coframe())


# -- adapted structure invariants ---------------------------------------------


def test_phi_squared_is_minus_id_plus_reeb():
    P = PHI_MAT
    for i in range(5):
        for j in range(5):
            sq = sum(P[i][k] * P[k][j] for k in range(5))
            expected = (-1 if i == j else 0) + (1 if i == j == XI else 0)
            assert sq == expected


def test_phi_kills_reeb_and_metric_compatibility():
    P = PHI_MAT
    assert all(P[i][XI] == 0 for i in range(5))
    for i in range(5):
        for j in range(5):
            g_phi = sum(P[k][i] * P[k][j] for k in range(5))
            expected = (1 if i == j else 0) - (1 if i == j == XI else 0)
            assert g_phi == expected


def test_fundamental_form_compatibility():
    # Phi(e_i, e_j) = g(e_i, phi e_j) holds by construction of the matrix
    assert evaluate(PHI, 0, 1) == 1 and evaluate(PHI, 2, 3) == 1
    # the structure's orientation, the volume form of hodge: eta ^ Phi ^ Phi = 2 e1^...^e5
    assert wedge(ETA, wedge(PHI, PHI)) == form(5, {(0, 1, 2, 3, 4): 2})


# -- 2-form type decomposition -------------------------------------------------


def test_lambda2_projection_examples():
    assert lambda2_project(PHI, 1) == PHI
    for part in (2, 3, 4):
        assert lambda2_project(PHI, part).is_zero()
    # membership conditions computed through wedge and star
    assert wedge(PHI, Z1).is_zero() and hodge(Z1) == wedge(ETA, Z1)
    assert lambda2_project(Z1, 2) == Z1
    assert all(lambda2_project(Z1, p).is_zero() for p in (1, 3, 4))
    assert hodge(F) == wedge(ETA, F).scale(-1)
    assert lambda2_project(F, 3) == F
    assert all(lambda2_project(F, p).is_zero() for p in (1, 2, 4))


def test_lambda2_completeness_idempotence_orthogonality():
    rng = random.Random(11)
    for _ in range(40):
        beta = random_form(rng, 2)
        parts = [lambda2_project(beta, p) for p in (1, 2, 3, 4)]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert total == beta
        for p_idx, p_form in zip((1, 2, 3, 4), parts):
            assert lambda2_project(p_form, p_idx) == p_form
        for i in range(4):
            for j in range(i + 1, 4):
                assert inner_form(parts[i], parts[j]) == 0


def test_lambda2_dimensions_by_rank():
    basis10 = [form(2, {(i, j): 1}) for i in range(5) for j in range(i + 1, 5)]
    coords = lambda f: [f.coefficient((i, j)) for i in range(5) for j in range(i + 1, 5)]
    for part, dim in ((1, 1), (2, 2), (3, 3), (4, 4)):
        rows = [coords(lambda2_project(b, part)) for b in basis10]
        assert linalg.rank(rows) == dim


def test_u2_and_complement_split():
    for b in (PHI, F, Y1, Y2):
        assert project_u2(b) == b and project_u2_complement(b).is_zero()
    for b in (Z1, Z2, *L24):
        assert project_u2_complement(b) == b and project_u2(b).is_zero()
    # every so(5) basis 2-form splits consistently, and the Reeb-leg ones
    # sit entirely in the complement
    for i in range(5):
        for j in range(i + 1, 5):
            b = form(2, {(i, j): 1})
            assert project_u2(b) + project_u2_complement(b) == b
            if j == XI:
                assert project_u2_complement(b) == b


def test_lambda2_project_rejects_auxiliary_symbols():
    from acm5.errors import UnsupportedSymbolError

    with pytest.raises(UnsupportedSymbolError):
        lambda2_project(form(2, {(0, 5): 1}), 2)


def test_phi_invariance_types():
    assert phi_invariance_type(PHI) == 1
    assert phi_invariance_type(Z2) == -1
    assert phi_invariance_type(form(2, {(0, 4): 1})) == 0
    assert phi_invariance_type(F) == 1 and phi_invariance_type(Y1) == 1
    assert phi_invariance_type(Z1) == -1
    with pytest.raises(AmbiguityError):
        phi_invariance_type(Z1 + form(2, {(0, 4): 1}))


# -- equivariant embeddings ----------------------------------------------------


def test_theta_first_slot_recovers_primitive_form():
    t = theta(Z1)
    assert t.component_form(5) == Z1  # e5 contraction of eta ^ Z1
    v = vartheta(Z1)
    assert v.component_form(5) == 2 * Z1


def test_pr_w_fixes_image_of_primitive_but_not_fundamental():
    t_phi = theta(PHI)
    assert pr_w(t_phi) != t_phi
    t_z1 = theta(Z1)
    assert pr_w(t_z1) == t_z1
    v_z1 = vartheta(Z1)
    assert pr_w(v_z1) == v_z1


def test_theta_vartheta_images_are_orthogonal_on_primitive_forms():
    for a in (Z1, Z2):
        for b in (Z1, Z2):
            assert inner(theta(a), vartheta(b)) == 0


# -- derivative tensors ---------------------------------------------------------


def test_nabla_phi_abelian_vanishes():
    assert nabla_phi(ABELIAN_OMEGA).is_zero()


@pytest.mark.parametrize("slot", [(0, 1, 2), (4, 3, 0), (2, 2, 4)])
def test_frame_connection_rejects_values_not_antisymmetric_in_i_j(slot):
    flat = list(random_pointwise(random.Random(19)).flat)
    view = frame_connection(Tensor3(tuple(flat))).view
    assert len(view) == 125 and all(view[at(k, i, j)] == flat[at(i, j, k)]
                                    for i, j, k in itertools.product(range(5), repeat=3))
    flat[at(*slot)] += 1
    with pytest.raises(ValueError, match=r"^pointwise data must be antisymmetric in \(i, j\)$"):
        frame_connection(Tensor3(tuple(flat)))


def test_nabla_phi_two_paths_agree_on_random_values():
    rng = random.Random(23)
    for _ in range(10):
        nabla_phi(random_pointwise(rng))  # raises on internal disagreement


def test_nabla_phi_against_commutator_oracle():
    rng = random.Random(29)
    P = PHI_MAT
    for _ in range(5):
        pw = random_pointwise(rng)
        w = nested(pw)
        np = nested(nabla_phi(pw))
        for k in range(5):
            for b in range(5):
                for c in range(5):
                    # (nabla_k phi)(e_b) = nabla_k(phi e_b) - phi(nabla_k e_b)
                    direct = sum(P[u][b] * w[u][c][k] for u in range(5)) - sum(
                        w[b][j][k] * P[c][j] for j in range(5)
                    )
                    assert np[k][c][b] == direct


def test_system_identities_on_random_values():
    rng = random.Random(31)
    P = PHI_MAT
    for _ in range(10):
        pw = random_pointwise(rng)
        fc = frame_connection(pw)
        np = nested(nabla_phi(fc))
        nx = nabla_xi_matrix(fc)
        for x in range(5):
            for y in range(5):
                rhs = sum(P[u][y] * np[x][XI][u] for u in range(5))
                assert nx[x][y] == rhs
        nijenhuis(fc)  # the N identity is asserted inside


def test_nijenhuis_family_values():
    inst = build(1, 0, 0, 0)
    n = nijenhuis(inst.omega_g)
    # totally skew alternation of 2 d eta ^ eta
    expected = form(3, {(0, 2, 4): -4, (1, 3, 4): 4})
    values = nested(n)
    for x in range(5):
        for y in range(5):
            for z in range(5):
                assert values[x][y][z] == evaluate(expected, x, y, z)
    assert n.is_totally_skew()

    inst2 = build(0, 0, 1, 0)
    n2 = nijenhuis(inst2.omega_g)
    assert t3_get(n2, 5, 1, 3) == 4
    v2 = nested(n2)
    cyc = all(
        v2[x][y][z] + v2[y][z][x] + v2[z][x][y] == 0
        for x in range(5)
        for y in range(5)
        for z in range(5)
    )
    assert cyc and not n2.is_totally_skew()

    assert nijenhuis(ABELIAN_OMEGA).is_zero()


def test_gamma_examples():
    assert gamma_form(build(1, 0, 0, 0).omega_g) == 4 * Z1
    inst = build(0, 0, 1, 0)
    g = gamma_form(inst.omega_g)
    assert g == 2 * Z1 and g == d_eta_form(frame_connection(inst.omega_g))
    assert gamma_form(ABELIAN_OMEGA).is_zero()


def test_gamma_requires_generalized_quasi_sasaki():
    rng = random.Random(37)
    pw = random_pointwise(rng)
    assert not predicates(pw).generalized_quasi_sasaki
    with pytest.raises(NotGeneralizedQuasiSasakiError):
        gamma_form(pw)


def test_codifferential_examples():
    inst = build(1, 0, 0, 0)
    assert codifferential(ETA, inst.omega_g).is_zero()
    assert codifferential(PHI, inst.omega_g).is_zero()
    rng = random.Random(43)
    assert codifferential(random_form(rng, 2), ABELIAN_OMEGA).is_zero()
    assert codifferential(form(0, {(): 3}), inst.omega_g).is_zero()


def test_codifferential_linearity_on_random_values():
    rng = random.Random(47)
    pw = random_pointwise(rng)
    a = random_form(rng, 2)
    b = random_form(rng, 2)
    lhs = codifferential(a + b.scale(Fraction(3, 2)), pw)
    rhs = codifferential(a, pw) + codifferential(b, pw).scale(Fraction(3, 2))
    assert lhs == rhs


def test_codifferential_auxiliary_residue_detected():
    inst = build(1, 0, 0, 0)
    with pytest.raises(SymbolicResidueError):
        codifferential(e(1), inst.omega_g)


def test_predicate_examples():
    assert predicates(build(-5, 0, 1, 0).omega_g).nearly_cosymplectic
    assert not predicates(build(1, 0, 0, 0).omega_g).nearly_cosymplectic
    assert predicates(build(-2, 0, 1, 0).omega_g).quasi_cosymplectic
    ab = predicates(ABELIAN_OMEGA)
    assert all(ab.as_dict().values())


def _last_two_antisymmetric_cube(value, nearly):
    """A nested 5x5x5 cube np[k][a][b] = -np[k][b][a] of values value(); totally
    antisymmetric, so nearly cosymplectic, when ``nearly``."""
    np = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    if nearly:
        for k, a, b in itertools.combinations(range(5), 3):
            v = value()
            for x, y, z in ((k, a, b), (a, b, k), (b, k, a)):
                np[x][y][z], np[x][z][y] = v, -v
    else:
        for k in range(5):
            for a, b in itertools.combinations(range(5), 2):
                v = value()
                np[k][a][b], np[k][b][a] = v, -v
    return np


def _break_one_pair(np, rng, value):
    """Add v != 0 to np[k][a][b] and -v to np[k][b][a] for distinct k, a, b: of the condition's
    entries, only four with distinct first two slots change."""
    k, a, b = rng.sample(range(5), 3)
    v = value() or 1
    np[k][a][b], np[k][b][a] = np[k][a][b] + v, np[k][b][a] - v


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_nearly_plan_tests_each_unordered_pair_once(kind):
    """NEARLY holds the 75 entries a <= b of the 125 of the condition, and its zero verdict
    is the verdict over all 125: on random cubes antisymmetric in their last two slots, on
    nearly cosymplectic ones and on those broken at one pair of slots off the diagonal, and
    on the nabla Phi of random pointwise connections."""
    assert len(NEARLY) == 75
    rng = random.Random(31)
    value = (lambda: random_fraction(rng)) if kind == "exact" else (lambda: rng.uniform(-3, 3))
    verdicts = []
    for trial in range(60):
        np = _last_two_antisymmetric_cube(value, nearly=trial % 3 != 0)
        if trial % 3 == 2:
            _break_one_pair(np, rng, value)
        flat = tuple(v for plane in np for row in plane for v in row)
        verdict = all(map(sis_zero, contract(NEARLY, flat)))
        assert verdict == nearly_cosymplectic_oracle(np) == (trial % 3 == 1)
        verdicts.append(verdict)
    for _ in range(10):
        pw = random_pointwise(rng)
        expected = nearly_cosymplectic_oracle(nested(nabla_phi(pw)))
        assert predicates(pw).nearly_cosymplectic == expected


def test_killing_and_deta_on_family():
    inst = build(2, 3, 4, 6)
    fc = frame_connection(inst.omega_g)
    assert xi_is_killing(fc)
    deta = d_eta_form(fc)
    assert deta == (-2 * (2 - 4)) * Z1 + (-2 * (3 - 6)) * Z2


def test_dphi_tensor_alternation_matches_ext_d():
    from acm5.exterior import ext_d

    inst = build(1, 0, 2, 0)
    fc = frame_connection(inst.omega_g)
    dphi = d_phi_tensor(nabla_phi(fc))
    via_d = ext_d(PHI, inst.coframe)
    values = nested(dphi)
    for x in range(5):
        for y in range(5):
            for z in range(5):
                assert values[x][y][z] == evaluate(via_d, x, y, z)


def test_d_via_connection_matches_ext_d_for_valid_coframes():
    from acm5.exterior import coframe, ext_d

    cf = coframe(
        {
            "e1": -1 * wedge(e(2), e(3)),
            "e2": -1 * wedge(e(3), e(1)),
            "e3": -1 * wedge(e(1), e(2)),
        }
    )
    fc = frame_connection(connection_from_structure(cf))
    rng = random.Random(97)
    for _ in range(5):
        a = random_form(rng, 2)
        assert d_form_via_connection(fc, a) == ext_d(a, cf)
    # forms moved by the auxiliary channel are indeterminate in this model
    inst = build(2, 1, 4, 2)
    with pytest.raises(SymbolicResidueError):
        d_form_via_connection(frame_connection(inst.omega_g), form(2, {(0, 2): 1}))


def test_d_via_connection_in_float_mode():
    from acm5.cli import _to_float_coframe, load_coframe
    from acm5.exterior import ext_d

    exact = load_coframe(str(GOLDEN / "inputs" / "su2_block.json"))
    c = _to_float_coframe(exact)
    fc = frame_connection(connection_from_structure(c))
    for alpha in (form(1, {(0,): 1.0}), form(2, {(0, 1): 1.0, (2, 4): -0.5})):
        got = d_form_via_connection(fc, alpha)
        assert got.mode == "float"
        assert (got - ext_d(alpha, c)).is_zero()
    want = ext_d(form(1, {(0,): 1}), exact)
    got = d_form_via_connection(fc, form(1, {(0,): 1.0}))
    assert set(got.terms) >= set(want.terms)
    assert all(abs(got.coefficient(idx) - float(want.coefficient(idx))) < 1e-12 for idx in got.terms)


def test_nabla_phi_rejects_auxiliary_outside_stabilizer():
    from acm5.exterior import form as mkform

    bad = connection_forms({(1, 3): mkform(1, {(5,): 1})})
    with pytest.raises(SymbolicResidueError):
        nabla_phi(bad)
