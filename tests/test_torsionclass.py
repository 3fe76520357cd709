import random
from fractions import Fraction

import pytest

from acm5 import linalg, torsionclass
from acm5.acms import (
    F,
    PHI,
    XI,
    Y1,
    Y2,
    Z1,
    Z2,
    d_phi_tensor,
    frame_connection,
    nabla_phi,
    nijenhuis,
    predicates,
    theta,
    vartheta,
    xi_is_killing,
)
from acm5.errors import ACM5Error
from acm5.exterior import form
from acm5.family import build
from acm5.frames import connection_from_structure
from acm5.scalars import COS_F, SIN_F
from acm5.torsionclass import (
    MODULE_NAMES,
    IntrinsicTorsion,
    cartan_decompose,
    classify,
    intrinsic_torsion,
    module_frames,
    tensor_to_w,
    w_subspaces,
)

from helpers import (
    abelian_coframe,
    as_coords,
    cartan_parts,
    evaluate,
    inner,
    inner_w,
    lin_comb,
    nested,
    norm_sq,
    pointwise_from_upper,
    random_fraction,
    residual_basis,
    t3_from_func,
    torsion_from_coords,
)


def torsion_to_pointwise(gamma: IntrinsicTorsion, rng=None, junk=True):
    """Embed a torsion-space element as pointwise connection values, optionally
    adding a random stabilizer-algebra component per direction."""
    u2_basis = (PHI, F, Y1, Y2)
    upper = {}
    for k in range(5):
        total = gamma.components[k]
        if junk and rng is not None:
            for b in u2_basis:
                total = total + b.scale(random_fraction(rng, span=2, den=2))
        for i in range(5):
            for j in range(i + 1, 5):
                v = evaluate(total, i, j)
                if v:
                    upper[(i + 1, j + 1, k + 1)] = v
    return pointwise_from_upper(upper)


def random_in_span(rng, vectors):
    return lin_comb(*((random_fraction(rng, span=3, den=2), v) for v in vectors))


# -- intrinsic torsion extraction ----------------------------------------------


def test_family_torsion_components():
    a1, a2, a3, a4 = Fraction(2), Fraction(3), Fraction(4), Fraction(6)
    inst = build(a1, a2, a3, a4)
    gamma = intrinsic_torsion(inst.omega_g)
    assert gamma.components[4] == (a1 + 2 * a3) * Z1 + (a2 + 2 * a4) * Z2
    e35 = form(2, {(2, 4): 1})
    e45 = form(2, {(3, 4): 1})
    assert gamma.components[0] == (a1 - a3) * e35 + (a2 - a4) * e45


def test_abelian_torsion_vanishes():
    om = connection_from_structure(abelian_coframe())
    assert intrinsic_torsion(om).is_zero()


def test_intrinsic_torsion_rejects_auxiliary_outside_stabilizer():
    import pytest

    from acm5.errors import SymbolicResidueError
    from acm5.frames import connection_forms

    bad = connection_forms({(1, 3): form(1, {(5,): 1})})
    with pytest.raises(SymbolicResidueError):
        intrinsic_torsion(bad)


def test_two_construction_paths_agree():
    inst = build(3, 4, 0, 0)
    via_table = intrinsic_torsion(inst.omega_g)
    via_solve = intrinsic_torsion(connection_from_structure(inst.coframe))
    assert via_table == via_solve


def test_family_torsion_is_theta_vartheta_combination():
    a1, a2, a3, a4 = Fraction(1), Fraction(2), Fraction(2), Fraction(4)
    inst = build(a1, a2, a3, a4)
    gamma = intrinsic_torsion(inst.omega_g)
    expected = lin_comb(
        (a1, tensor_to_w(theta(Z1))),
        (a2, tensor_to_w(theta(Z2))),
        (a3, tensor_to_w(vartheta(Z1))),
        (a4, tensor_to_w(vartheta(Z2))),
    )
    assert gamma == expected


# -- submodule geometry ----------------------------------------------------------


def test_submodule_dimensions():
    subs = w_subspaces()
    dims = {}
    for name, vecs in subs.items():
        rows = [as_coords(v) for v in vecs]
        dims[name] = linalg.rank(rows)
    assert dims == {"W3": 1, "W4": 2, "W5": 3, "W6": 4, "W7": 2}
    assert sum(dims.values()) == 12
    assert len(residual_basis()) == 18


def test_w4_perp_w7_gram_matrix_zero():
    subs = w_subspaces()
    for u in subs["W4"]:
        for v in subs["W7"]:
            assert inner_w(u, v) == 0


def test_all_submodules_mutually_orthogonal():
    subs = w_subspaces()
    names = list(MODULE_NAMES)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            for u in subs[a]:
                for v in subs[b]:
                    assert inner_w(u, v) == 0
    for vecs in subs.values():
        for u in vecs:
            for r in residual_basis():
                assert inner_w(u, r) == 0


def test_module_frames_hold_each_basis_with_its_gram_diagonal():
    frames = module_frames()
    assert {name: [b for b, _ in frame] for name, frame in frames.items()} == {
        name: list(basis) for name, basis in w_subspaces().items()
    }
    assert {name: [g for _, g in frame] for name, frame in frames.items()} == {
        "W3": [4], "W4": [6, 6], "W5": [4, 4, 4], "W6": [1, 1, 1, 1], "W7": [12, 12]
    }


def test_module_frames_reject_a_basis_that_is_not_orthogonal(monkeypatch):
    subs = dict(w_subspaces())
    b0, b1 = subs["W4"]
    subs["W4"] = (b0, lin_comb((1, b0), (1, b1)))
    monkeypatch.setattr(torsionclass, "w_subspaces", lambda: subs)
    module_frames.cache_clear()
    try:
        with pytest.raises(ACM5Error, match="W4 basis is not orthogonal"):
            module_frames()
    finally:
        module_frames.cache_clear()


def test_projection_restricted_to_embeddings_has_rank_12():
    from acm5.acms import LAMBDA2_BASES
    from helpers import pr_w

    images = []
    for part in (1, 2, 3, 4):
        for b in LAMBDA2_BASES[part]:
            images.append(as_coords(tensor_to_w(pr_w(theta(b)))))
    for b in LAMBDA2_BASES[2]:
        images.append(as_coords(tensor_to_w(pr_w(vartheta(b)))))
    assert len(images) == 12 and linalg.rank(images) == 12


# -- classification ---------------------------------------------------------------


def test_classify_family_examples():
    r = classify(intrinsic_torsion(build(1, 0, 0, 0).omega_g))
    assert r.class_tags == ("W4",)
    r = classify(intrinsic_torsion(build(0, 0, 1, 0).omega_g))
    assert r.class_tags == ("W7",)
    r = classify(intrinsic_torsion(build(1, 0, 2, 0).omega_g))
    assert r.class_tags == ("W4", "W7") and r.norms["residual"] == 0


def test_classify_norms_sum_to_total():
    rng = random.Random(53)
    for _ in range(15):
        coords = [random_fraction(rng) for _ in range(30)]
        gamma = torsion_from_coords(coords)
        r = classify(gamma)
        total = Fraction(0)
        for v in r.norms.values():
            assert v >= 0
            total += v
        assert total == norm_sq(gamma) == r.total_norm_sq


def test_classify_reads_trig_norms():
    """A caller-built torsion with trig coefficients (the library's own path
    refuses trig connection values): each module norm is the square of its
    basis element's coefficient times that element's Gram diagonal."""
    subs = w_subspaces()
    gamma = lin_comb((COS_F, subs["W4"][0]), (SIN_F, subs["W7"][1]), (COS_F, subs["W6"][2]))
    r = classify(gamma)
    cos2, sin2 = COS_F * COS_F, SIN_F * SIN_F
    assert r.norms == {"W3": 0, "W4": cos2 * 6, "W5": 0, "W6": cos2, "W7": sin2 * 12, "residual": 0}
    assert r.class_tags == ("W4", "W6", "W7") and r.total_norm_sq == norm_sq(gamma)


def test_classify_integrable_flag():
    r = classify(intrinsic_torsion(connection_from_structure(abelian_coframe())))
    assert r.integrable and r.class_tags == ()


# -- Cartan decomposition ----------------------------------------------------------


def test_cartan_vectorial_example():
    # A(X, Y, Z) = g(X, Y) g(Z, V) - g(X, Z) g(Y, V) with V = e1
    a = t3_from_func(
        lambda x, y, z: Fraction((1 if x == y and z == 0 else 0) - (1 if x == z and y == 0 else 0))
    )
    parts = cartan_decompose(a)
    assert parts.vectorial == a
    assert parts.skew.is_zero() and parts.cyclic.is_zero()
    assert parts.vector == (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))


def test_cartan_skew_example():
    tri = form(3, {(0, 1, 2): 1})
    a = t3_from_func(lambda x, y, z: evaluate(tri, x, y, z))
    parts = cartan_decompose(a)
    assert parts.skew == a and parts.vectorial.is_zero() and parts.cyclic.is_zero()


def random_tensor3(rng):
    vals = [[[Fraction(0)] * 5 for _ in range(5)] for _ in range(5)]
    for x in range(5):
        for y in range(5):
            for z in range(y + 1, 5):
                v = random_fraction(rng)
                vals[x][y][z] = v
                vals[x][z][y] = -v
    return t3_from_func(lambda x, y, z: vals[x][y][z])


def test_cartan_projector_algebra():
    rng = random.Random(59)
    for _ in range(20):
        a = random_tensor3(rng)
        parts = cartan_decompose(a)
        assert parts.vectorial + parts.skew + parts.cyclic == a
        # idempotence and mutual annihilation
        for name, p in cartan_parts(parts).items():
            again = cartan_decompose(p)
            for other, q in cartan_parts(again).items():
                if other == name:
                    assert q == p
                else:
                    assert q.is_zero()
        # orthogonality
        assert inner(parts.vectorial, parts.skew) == 0
        assert inner(parts.vectorial, parts.cyclic) == 0
        assert inner(parts.skew, parts.cyclic) == 0
        # defining conditions
        v = nested(parts.cyclic)
        assert all(
            v[x][y][z] + v[y][z][x] + v[z][x][y] == 0
            for x in range(5)
            for y in range(5)
            for z in range(5)
        )
        assert all(sum(v[i][i][z] for i in range(5)) == 0 for z in range(5))


def test_cartan_dimensions_by_rank():
    rng = random.Random(61)
    samples = [random_tensor3(rng) for _ in range(60)]

    def coords(t):
        t = nested(t)
        return [t[x][y][z] for x in range(5) for y in range(5) for z in range(y + 1, 5)]

    for attr, dim in (("vectorial", 5), ("skew", 10), ("cyclic", 35)):
        rows = [coords(getattr(cartan_decompose(a), attr)) for a in samples]
        assert linalg.rank(rows) == dim


# -- membership equivalences -------------------------------------------------------


def _conditions(pw):
    fc = frame_connection(pw)
    nij = nijenhuis(fc)
    dphi = nested(d_phi_tensor(nabla_phi(fc)))
    killing = xi_is_killing(fc)
    n_skew = nij.is_totally_skew()
    xi_dphi_zero = all(
        dphi[XI][y][z] == 0 for y in range(5) for z in range(5)
    )
    gqs = predicates(fc).generalized_quasi_sasaki
    return n_skew, killing, xi_dphi_zero, gqs


def test_membership_equivalences_inside():
    rng = random.Random(67)
    subs = w_subspaces()
    for _ in range(6):
        inside_a = random_in_span(
            rng, subs["W3"] + subs["W4"] + subs["W5"] + subs["W6"]
        )
        pw = torsion_to_pointwise(inside_a, rng)
        n_skew, killing, _, _ = _conditions(pw)
        assert n_skew and killing

        inside_b = random_in_span(rng, subs["W3"] + subs["W5"] + subs["W6"])
        pw = torsion_to_pointwise(inside_b, rng)
        n_skew, _, xi_dphi_zero, _ = _conditions(pw)
        assert n_skew and xi_dphi_zero

        inside_c = random_in_span(
            rng, subs["W3"] + subs["W4"] + subs["W5"] + subs["W7"]
        )
        pw = torsion_to_pointwise(inside_c, rng)
        assert _conditions(pw)[3]


def test_membership_equivalences_outside():
    rng = random.Random(71)
    subs = w_subspaces()
    outside_a = subs["W7"] + residual_basis()
    outside_b = subs["W4"] + subs["W7"] + residual_basis()
    outside_c = subs["W6"] + residual_basis()
    for _ in range(6):
        base = random_in_span(rng, subs["W3"] + subs["W5"])
        for pool, which in ((outside_a, 0), (outside_b, 1), (outside_c, 2)):
            bad = rng.choice(pool)
            gamma = lin_comb((1, base), (random_fraction(rng, span=2, den=1) or Fraction(1), bad))
            pw = torsion_to_pointwise(gamma, rng)
            n_skew, killing, xi_dphi_zero, gqs = _conditions(pw)
            if which == 0:
                assert not (n_skew and killing)
            elif which == 1:
                assert not (n_skew and xi_dphi_zero)
            else:
                assert not gqs


def test_extracted_torsion_roundtrip():
    rng = random.Random(73)
    subs = w_subspaces()
    gamma = random_in_span(rng, subs["W4"] + subs["W7"] + subs["W3"])
    pw = torsion_to_pointwise(gamma, rng)
    assert intrinsic_torsion(pw) == gamma
