"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact (rational zero tests); nothing is tolerance-tuned.
"""

import itertools
import random
from fractions import Fraction

import pytest

from acm5.acms import (
    F,
    PHI_MAT,
    XI,
    d_phi_tensor,
    frame_connection,
    lambda2_project,
    inner_form,
    nabla_phi,
    nabla_xi_matrix,
    nijenhuis,
    predicates,
    xi_is_killing,
)
from acm5.connection import (
    characteristic_connection,
    compatibility_report,
    curvature,
    parallel_spinor_check,
    spinor_kernel,
    spinor_space,
    torsion_type,
)
from acm5.errors import IntegrabilityError
from acm5.exterior import d_squared_zero, form
from acm5.family import build, identify_group, verify_identities
from acm5.frames import canonical_algebra, frame_change_verify
from acm5.torsionclass import (
    cartan_decompose,
    classify,
    inner_w,
    intrinsic_torsion,
    w_subspaces,
)
from acm5 import linalg

from helpers import random_fraction, random_form, random_pointwise, residual_basis
from test_torsionclass import random_in_span, random_tensor3, torsion_to_pointwise

REPLAY_SET = [
    (1, 0, 0, 0),
    (0, 0, 1, 0),
    (-5, 0, 1, 0),
    (-2, 0, 1, 0),
    (1, 0, 2, 0),
    (3, 4, 0, 0),
    (0, 0, 3, 4),
    (1, 0, 1, 0),
    (-1, 0, 2, 0),
    (0, 0, 0, 0),
]


def _line(num, desc, ok):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def random_valid_params(rng):
    kind = rng.randrange(4)
    if kind == 0:
        a1, a2, t = (random_fraction(rng) for _ in range(3))
        return (a1, a2, t * a1, t * a2)
    if kind == 1:
        return (random_fraction(rng), random_fraction(rng), Fraction(0), Fraction(0))
    if kind == 2:
        return (Fraction(0), Fraction(0), random_fraction(rng), random_fraction(rng))
    t, a3, a4 = (random_fraction(rng) for _ in range(3))
    return (t * a3, t * a4, a3, a4)


def test_criterion_1_family_curvature():
    inst = build(1, 0, 0, 0)
    cc = characteristic_connection(inst.omega_g)
    cur = curvature(inst.coframe, cc.omega_c)
    ok = inst.alpha == -4
    ok = ok and cur.entry(1, 2) == -4 * F and cur.entry(3, 4) == 4 * F
    nonzero = [
        (i, j)
        for i in range(5)
        for j in range(i + 1, 5)
        if not cur.curvature[i][j].is_zero()
    ]
    ok = ok and nonzero == [(0, 1), (2, 3)]
    for i in range(5):
        for j in range(5):
            expected = Fraction(4) if (i == j and i < 4) else Fraction(0)
            ok = ok and cur.ricci[i][j] == expected
    ok = ok and len(cur.holonomy_basis) == 1
    hb = cur.holonomy_basis[0]
    ok = ok and hb == F.scale(hb.coefficient((0, 1))) and hb.coefficient((0, 1)) != 0
    _line(1, "alpha=-4, R(1,2)=-4F, R(3,4)=4F, Ric=diag(4,4,4,4,0), holonomy={F}", ok)


def test_criterion_2_spinor_kernel():
    rng = random.Random(101)
    space = spinor_space()
    ker = spinor_kernel(space, F)
    ok = ker.dimension == 2
    for _ in range(10):
        params = random_valid_params(rng)
        inst = build(*params)
        cc = characteristic_connection(inst.omega_g)
        ok = ok and parallel_spinor_check(space, cc.omega_c, ker.kernel_basis)
    _line(2, "Clifford kernel of F is 2-dim and the spin lift kills it (10 runs)", ok)


def test_criterion_3_classification_table():
    rng = random.Random(103)
    ok = True
    seen_w4_only = seen_w7_only = False
    for _ in range(50):
        a1, a2, a3, a4 = random_valid_params(rng)
        report = classify(intrinsic_torsion(build(a1, a2, a3, a4).omega_g))
        ok = ok and report.norms["residual"] == 0
        ok = ok and report.norms["W3"] == 0
        ok = ok and report.norms["W5"] == 0
        ok = ok and report.norms["W6"] == 0
        ok = ok and (report.norms["W7"] == 0) == (a3 == 0 and a4 == 0)
        ok = ok and (report.norms["W4"] == 0) == (a1 == 0 and a2 == 0)
        seen_w4_only = seen_w4_only or ((a1, a2) != (0, 0) and (a3, a4) == (0, 0))
        seen_w7_only = seen_w7_only or ((a1, a2) == (0, 0) and (a3, a4) != (0, 0))
    ok = ok and seen_w4_only and seen_w7_only
    _line(3, "50 random parameter vectors: residual/W3/W5/W6 zero, W4/W7 iff-pattern", ok)


def test_criterion_4_identity_replay():
    ok = True
    for params in REPLAY_SET:
        rep = verify_identities(build(*params))
        if not rep.ok:
            print(f"  replay failed at {params}: {rep.failing}")
            ok = False
    _line(4, f"identity replay all-pass on {len(REPLAY_SET)} parameter points", ok)


def test_criterion_5_integrability_gate():
    grid = [Fraction(n, 2) for n in range(-4, 5)]
    ok = True
    n_valid = 0
    for a1, a2, a3, a4 in itertools.product(grid, repeat=4):
        constraint = a1 * a4 == a2 * a3
        if constraint:
            inst = build(a1, a2, a3, a4)
            gate = d_squared_zero(inst.coframe)
            ok = ok and gate.ok and len(gate.residuals) == 6
            n_valid += 1
        else:
            try:
                build(a1, a2, a3, a4)
                ok = False
            except IntegrabilityError:
                pass
    ok = ok and n_valid == 545
    _line(5, "9^4 grid: construction fails exactly off the constraint; d^2=0 otherwise", ok)


def test_criterion_6_pointwise_identity_suite():
    rng = random.Random(107)
    P = PHI_MAT
    ok = True
    for _ in range(100):
        pw = random_pointwise(rng)
        fc = frame_connection(pw)
        w = pw.values
        np = nabla_phi(fc).values  # internally cross-checked against its projection
        nx = nabla_xi_matrix(fc)
        for x in range(5):
            for y in range(5):
                rhs = sum(P[u][y] * np[x][XI][u] for u in range(5))
                ok = ok and nx[x][y] == rhs
        for k in range(5):
            for b in range(5):
                for c in range(5):
                    direct = sum(P[u][b] * w[u][c][k] for u in range(5)) - sum(
                        w[b][j][k] * P[c][j] for j in range(5)
                    )
                    ok = ok and np[k][c][b] == direct
        nijenhuis(fc)  # raises if the two Nijenhuis expressions disagree
    _line(6, "the three derivative identities hold on 100 random pointwise values", ok)


def test_criterion_7_membership_equivalences():
    rng = random.Random(109)
    subs = w_subspaces()
    res = residual_basis()
    cases = [
        ("N skew and xi Killing", subs["W3"] + subs["W4"] + subs["W5"] + subs["W6"],
         subs["W7"] + res),
        ("N skew and xi . dPhi = 0", subs["W3"] + subs["W5"] + subs["W6"],
         subs["W4"] + subs["W7"] + res),
        ("generalized quasi-Sasaki", subs["W3"] + subs["W4"] + subs["W5"] + subs["W7"],
         subs["W6"] + res),
    ]

    def conditions(pw, which):
        fc = frame_connection(pw)
        if which == 0:
            return nijenhuis(fc).is_totally_skew() and xi_is_killing(fc)
        if which == 1:
            dphi = d_phi_tensor(nabla_phi(fc))
            return nijenhuis(fc).is_totally_skew() and all(
                dphi.values[XI][y][z] == 0 for y in range(5) for z in range(5)
            )
        return predicates(fc).generalized_quasi_sasaki

    ok = True
    for which, (_, inside, outside) in enumerate(cases):
        for _ in range(10):
            gamma = random_in_span(rng, inside)
            ok = ok and conditions(torsion_to_pointwise(gamma, rng), which)
        for _ in range(10):
            gamma = random_in_span(rng, inside)
            bad = rng.choice(outside)
            scale = random_fraction(rng, span=2, den=1) or Fraction(1)
            ok = ok and not conditions(
                torsion_to_pointwise(gamma + bad.scale(scale), rng), which
            )
    _line(7, "subspace membership <=> tensor conditions, both directions, 3 statements", ok)


def test_criterion_8_characteristic_connection():
    ok = True
    for params in REPLAY_SET:
        a1, a2, a3, a4 = (Fraction(v) for v in params)
        inst = build(*params)
        cc = characteristic_connection(inst.omega_g)
        ok = ok and compatibility_report(cc.omega_c).ok
        _, tag = torsion_type(cc)
        ok = ok and (tag in ("skew", "zero")) == (a3 == 0 and a4 == 0)
        ok = ok and (tag in ("traceless-cyclic", "zero")) == (a1 == 0 and a2 == 0)
    _line(8, "compatible connection parallelizes the structure; torsion type pattern", ok)


def test_criterion_9_group_certificates():
    targets = {
        (3, 4, 0, 0): "su2+su2",
        (0, 0, 3, 4): "sl2+sl2",
        (1, 0, 1, 0): "abelian6",
        (-1, 0, 2, 0): "heis5+R",
    }
    ok = True
    for params, tag in targets.items():
        g = identify_group(params)
        ok = ok and g.tag == tag and g.frame_change is not None
        ok = ok and frame_change_verify(g.coframe, g.frame_change, canonical_algebra(tag))
    _line(9, "frame-change certificates verify, including the trig-scalar cases", ok)


def test_criterion_10_projector_algebra():
    rng = random.Random(113)
    ok = True
    for _ in range(200):
        beta = random_form(rng, 2)
        parts = [lambda2_project(beta, p) for p in (1, 2, 3, 4)]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        ok = ok and total == beta
        for p_idx, p_form in zip((1, 2, 3, 4), parts):
            ok = ok and lambda2_project(p_form, p_idx) == p_form
        for i in range(4):
            for j in range(i + 1, 4):
                ok = ok and inner_form(parts[i], parts[j]) == 0

        t = random_tensor3(rng)
        cparts = cartan_decompose(t)
        ok = ok and cparts.vectorial + cparts.skew + cparts.cyclic == t
        again = cartan_decompose(cparts.skew)
        ok = ok and again.skew == cparts.skew and again.vectorial.is_zero()
        ok = ok and cparts.vectorial.inner(cparts.skew) == 0
        ok = ok and cparts.vectorial.inner(cparts.cyclic) == 0
        ok = ok and cparts.skew.inner(cparts.cyclic) == 0

    basis10 = [form(2, {(i, j): 1}) for i in range(5) for j in range(i + 1, 5)]
    coords = lambda f: [f.coefficient((i, j)) for i in range(5) for j in range(i + 1, 5)]
    for part, dim in ((1, 1), (2, 2), (3, 3), (4, 4)):
        rows = [coords(lambda2_project(b, part)) for b in basis10]
        ok = ok and linalg.rank(rows) == dim

    samples = [random_tensor3(rng) for _ in range(60)]

    def t_coords(t):
        return [t.values[x][y][z] for x in range(5) for y in range(5) for z in range(y + 1, 5)]

    for attr, dim in (("vectorial", 5), ("skew", 10), ("cyclic", 35)):
        rows = [t_coords(getattr(cartan_decompose(a), attr)) for a in samples]
        ok = ok and linalg.rank(rows) == dim

    subs = w_subspaces()
    for u in subs["W4"]:
        for v in subs["W7"]:
            ok = ok and inner_w(u, v) == 0

    from acm5.acms import LAMBDA2_BASES, theta, vartheta
    from helpers import pr_w
    from acm5.torsionclass import tensor_to_w

    images = []
    for part in (1, 2, 3, 4):
        for b in LAMBDA2_BASES[part]:
            images.append(tensor_to_w(pr_w(theta(b))).as_coords())
    for b in LAMBDA2_BASES[2]:
        images.append(tensor_to_w(pr_w(vartheta(b))).as_coords())
    ok = ok and linalg.rank(images) == 12
    _line(10, "type and Cartan projectors complete/idempotent/orthogonal; ranks pin dims", ok)
