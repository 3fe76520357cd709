"""The four-parameter family of generalized quasi-Sasaki coframes.

Parameters (a1, a2, a3, a4) with a1*a4 = a2*a3 determine a 6-symbol
coframe (five metric legs plus one auxiliary 1-form A2) through the
structure equations

    de1 = A2^e2 - (2a1+a3) e3^e5 - (2a2+a4) e4^e5
    de2 = -A2^e1 + (2a1+a3) e4^e5 - (2a2+a4) e3^e5
    de3 = -A2^e4 + (2a1+a3) e1^e5 + (2a2+a4) e2^e5
    de4 = A2^e3 - (2a1+a3) e2^e5 + (2a2+a4) e1^e5
    de5 = -2(a1-a3) (e13 - e24) - 2(a2-a4) (e14 + e23)
    dA2 = alpha (e12 - e34),  alpha = -2((a1-a3)(2a1+a3) + (a2-a4)(2a2+a4)),

which are integrable exactly under the parameter constraint.  The module
also replays the family's catalog of identities from first principles and
identifies the ambient 6-dimensional Lie group whenever a parameter
vanishes, emitting a verifiable frame-change certificate when the needed
radicals are rational.

The replay states each identity once, as a comparison of whole objects
through the library's own exact ``==``: connection forms entry by entry,
trilinear tensors over all 125 entries, tuples of forms element-wise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, product
from typing import NamedTuple

from .acms import (
    ETA,
    F,
    HORIZONTAL,
    XI,
    Z1,
    Z2,
    Tensor3,
    at,
    contract,
    d_eta_form,
    derived,
    frame_connection,
    gamma_form,
    nabla_phi,
    nijenhuis,
    phi_pullback,
    predicates,
    t3_from_form3,
)
from .connection import (
    characteristic_connection,
    curvature,
    kernel_of_f,
    parallel_spinor_check,
    spinor_space,
    torsion_type,
)
from .errors import DegenerateInputError, IntegrabilityError
from .exterior import (
    CoframeData,
    Frozen,
    coframe,
    dense2,
    e,
    ext_d,
    form,
    proportionality,
    wedge,
    zero_form,
)
from .frames import (
    ConnectionForms,
    FrameChange,
    canonical_algebra,
    connection_forms,
    connection_from_structure,
    frame_change_verify,
    verify_first_structure,
)
from .scalars import COS_F, COS_G, SIN_F, SIN_G, div, narrow, rat
from .torsionclass import SKEW, VEC, classify, intrinsic_torsion

A2 = form(1, {(5,): 1})
# the metric legs, and the same legs with the 34-plane rotated, which implements
# the parameter swap (a1, a2, a3, a4) -> (a2, a1, a4, a3) on the structure equations
STD_BASIS = (e(1), e(2), e(3), e(4), e(5))
TILDE_BASIS = (e(1), e(2), e(4), -1 * e(3), e(5))
QUADRATIC_NOTE = "requires quadratic extension - certificate not emitted"


class FamilyParams(Frozen):
    a1: int | Fraction  # an int when integral, by the storage rule of scalars.narrow
    a2: int | Fraction
    a3: int | Fraction
    a4: int | Fraction
    _compared = ("a1", "a2", "a3", "a4")

    def __init__(self, a1, a2, a3, a4):
        if a1 * a4 != a2 * a3:
            raise IntegrabilityError(
                "structure equations are integrable only when a1*a4 == a2*a3 "
                "(otherwise d(d e5) != 0)"
            )
        self.__dict__.update(a1=a1, a2=a2, a3=a3, a4=a4)

    def as_tuple(self):
        return (self.a1, self.a2, self.a3, self.a4)


class FamilyInstance(NamedTuple):
    params: FamilyParams
    coframe: CoframeData
    alpha: int | Fraction  # dA2 = alpha F; an int when integral
    omega_g: ConnectionForms


def family_params(a1, a2, a3, a4) -> FamilyParams:
    """The parameters as exact rationals, an integral one as an int."""
    return FamilyParams(*(narrow(rat(a)) for a in (a1, a2, a3, a4)))


def build(a1, a2, a3, a4) -> FamilyInstance:
    """Construct and validate a family coframe."""
    params = family_params(a1, a2, a3, a4)
    a1, a2, a3, a4 = params.as_tuple()
    p = 2 * a1 + a3
    q = 2 * a2 + a4
    alpha = -2 * ((a1 - a3) * p + (a2 - a4) * q)
    d_table = {
        "e1": wedge(A2, e(2)) - p * wedge(e(3), e(5)) - q * wedge(e(4), e(5)),
        "e2": -1 * wedge(A2, e(1)) + p * wedge(e(4), e(5)) - q * wedge(e(3), e(5)),
        "e3": -1 * wedge(A2, e(4)) + p * wedge(e(1), e(5)) + q * wedge(e(2), e(5)),
        "e4": wedge(A2, e(3)) - p * wedge(e(2), e(5)) + q * wedge(e(1), e(5)),
        "e5": (-2 * (a1 - a3)) * Z1 + (-2 * (a2 - a4)) * Z2,
        "A2": alpha * F,
    }
    cf = coframe(d_table, auxiliary=("A2",))
    report = cf.d_squared_gate
    if not report.ok:
        raise IntegrabilityError(f"d^2 != 0 on {report.failing}")
    omega_g = connection_forms(
        {
            (1, 2): A2,
            (3, 4): -1 * A2,
            (1, 3): (a1 + 2 * a3) * e(5),
            (1, 4): (a2 + 2 * a4) * e(5),
            (2, 3): (a2 + 2 * a4) * e(5),
            (2, 4): (-(a1 + 2 * a3)) * e(5),
            (1, 5): (-(a1 - a3)) * e(3) - (a2 - a4) * e(4),
            (2, 5): (-(a2 - a4)) * e(3) + (a1 - a3) * e(4),
            (3, 5): (a1 - a3) * e(1) + (a2 - a4) * e(2),
            (4, 5): (a2 - a4) * e(1) - (a1 - a3) * e(2),
        }
    )
    fs = verify_first_structure(cf, omega_g)
    if not fs.ok:
        raise IntegrabilityError(f"first structure equation fails on {fs.failing}")
    return FamilyInstance(params, cf, alpha, omega_g)


# ---------------------------------------------------------------------------
# identity replay


class IdentityReplayReport(NamedTuple):
    items: tuple  # (name, ok, detail)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.items)

    @property
    def failing(self):
        return [name for name, ok, _ in self.items if not ok]


def verify_identities(inst: FamilyInstance) -> IdentityReplayReport:
    """Replay the family's catalog of identities from first principles.

    Every quantity is recomputed through the generic machinery (structure
    solve, torsion projection, tensor formulas); the stored tables only
    supply expected values.
    """
    a1, a2, a3, a4 = inst.params.as_tuple()
    cf = inst.coframe
    items = []

    def check(name, ok, detail=""):
        items.append((name, bool(ok), detail))

    solved = connection_from_structure(cf)
    check("levi-civita solve matches the tabulated connection", solved == inst.omega_g)
    fc = frame_connection(solved)

    deta = derived(fc, d_eta_form)
    check("d eta from values matches d(e5)", deta == ext_d(e(5), cf))
    gamma = derived(fc, gamma_form)
    check("gamma + 2 d eta = 6 a3 Z1 + 6 a4 Z2", gamma + 2 * deta == (6 * a3) * Z1 + (6 * a4) * Z2)
    check("gamma - d eta = 6 a1 Z1 + 6 a2 Z2", gamma - deta == (6 * a1) * Z1 + (6 * a2) * Z2)
    check(
        "consistency: (gamma + 2 d eta) - (gamma - d eta) = 3 d eta",
        3 * deta == (-6 * (a1 - a3)) * Z1 + (-6 * (a2 - a4)) * Z2,
    )

    nij = derived(fc, nijenhuis)
    check("N(xi, ., .) = 2 d eta", nij.component_form(XI + 1) == 2 * deta)

    skew_expected = a3 == 0 and a4 == 0
    cyclic_expected = a1 == 0 and a2 == 0
    nv = nij.flat
    n_skew = nij.is_totally_skew()
    cyc_sum_zero = all(v == 0 for v in contract(SKEW, nv))  # N(x, y, z) + N(y, z, x) + N(z, x, y)
    traces_zero = all(v == 0 for v in contract(VEC, nv + (0,)))
    n_cyclic = cyc_sum_zero and traces_zero
    check("N totally skew iff a3 = a4 = 0", n_skew == skew_expected or nij.is_zero())
    check("N traceless cyclic iff a1 = a2 = 0", n_cyclic == cyclic_expected or nij.is_zero())
    if skew_expected:
        check("skew case: N = 2 (d eta ^ eta)", nij == t3_from_form3(2 * wedge(deta, ETA)))
        check("skew case: N + gamma ^ eta = 0", (nij + t3_from_form3(wedge(gamma, ETA))).is_zero())
    if cyclic_expected:
        check("cyclic case: gamma = d eta", gamma == deta)
        eta, de = [ETA.coefficient((x,)) for x in range(5)], dense2(deta)
        cyc_expected = Tensor3(
            tuple(
                2 * eta[x] * de[y][z] + eta[y] * de[x][z] - eta[z] * de[x][y]
                for x, y, z in product(range(5), repeat=3)
            )
        )
        check("cyclic case: N = 2 eta (x) d eta + eta-weighted tail", nij == cyc_expected)

    check("d F = 0", ext_d(F, cf).is_zero())
    check("d eta is phi-anti-invariant", phi_pullback(deta) == -1 * deta)

    preds = derived(fc, predicates)
    check("generalized quasi-Sasaki", preds.generalized_quasi_sasaki)
    check("semi-cosymplectic", preds.semi_cosymplectic)
    torsion = intrinsic_torsion(fc)
    gamma_zero = torsion.is_zero()
    check("normal iff integrable", preds.normal == gamma_zero)
    check("almost cosymplectic iff integrable", preds.almost_cosymplectic == gamma_zero)
    check(
        "nearly cosymplectic iff a1 = -5 a3 and a2 = -5 a4",
        preds.nearly_cosymplectic == (a1 == -5 * a3 and a2 == -5 * a4),
    )
    check(
        "quasi-cosymplectic iff a1 = -2 a3 and a2 = -2 a4",
        preds.quasi_cosymplectic == (a1 == -2 * a3 and a2 == -2 * a4),
    )

    npv = derived(fc, nabla_phi).flat
    # (nabla_xi Phi)(e_b, e_a) in slot at(XI, b, a) against entry [a][b] of the display
    disp1 = dense2((-2 * a2 - 4 * a4) * Z1 + (2 * a1 + 4 * a3) * Z2)
    check("display: nabla_xi phi", npv[at(XI, 0, 0) :] == tuple(chain(*zip(*disp1))))
    disp2 = dense2((a2 - a4) * Z1 + (-(a1 - a3)) * Z2)
    check("display: nabla phi of xi", npv[at(0, 0, XI) :: 5] == tuple(chain(*disp2)))
    check(
        "display: horizontal phi-twisted derivative vanishes",
        all(v == 0 for v in contract(HORIZONTAL, npv)),
    )

    cc = characteristic_connection(fc)
    expected_c = connection_forms({(1, 2): A2, (3, 4): -1 * A2})
    check("A2 determines the compatible connection", cc.omega_c == expected_c)
    check("compatible connection parallelizes xi, eta, phi", cc.compatibility.ok)

    _, tag = torsion_type(cc)
    check("torsion skew iff a3 = a4 = 0", (tag in ("skew", "zero")) == skew_expected)
    check(
        "torsion traceless cyclic iff a1 = a2 = 0",
        (tag in ("traceless-cyclic", "zero")) == cyclic_expected,
    )

    cur = curvature(cf, cc.omega_c)
    alpha_f = inst.alpha * F
    r_expected = [[zero_form(2)] * 5 for _ in range(5)]
    r_expected[0][1] = r_expected[3][2] = alpha_f
    r_expected[1][0] = r_expected[2][3] = -alpha_f
    check("curvature = alpha F (x) F", cur.curvature == tuple(map(tuple, r_expected)))
    ric_expected = tuple(
        tuple(-inst.alpha if i == j < 4 else 0 for j in range(5)) for i in range(5)
    )
    check("Ricci = -alpha diag(1,1,1,1,0)", cur.ricci == ric_expected)
    if inst.alpha != 0:
        check(
            "holonomy algebra is the line through e12 - e34",
            len(cur.holonomy_basis) == 1
            and proportionality(cur.holonomy_basis[0], F) is not None,
        )
    else:
        check("holonomy algebra is trivial (flat case)", len(cur.holonomy_basis) == 0)

    ker = kernel_of_f()
    check("spinor kernel of F has dimension 2", ker.dimension == 2)
    check(
        "spin lift annihilates the kernel",
        parallel_spinor_check(spinor_space(), cc.omega_c, ker.kernel_basis),
    )

    report = classify(torsion)
    check(
        "class is W4 + W7 with empty residual",
        report.norms["residual"] == 0
        and report.norms["W3"] == 0
        and report.norms["W5"] == 0
        and report.norms["W6"] == 0,
    )
    check("W4 component iff (a1, a2) != 0", (report.norms["W4"] != 0) == (a1 != 0 or a2 != 0))
    check("W7 component iff (a3, a4) != 0", (report.norms["W7"] != 0) == (a3 != 0 or a4 != 0))
    return IdentityReplayReport(tuple(items))


# ---------------------------------------------------------------------------
# group identification


class GroupIdentification(NamedTuple):
    tag: str
    frame_change: FrameChange | None
    coframe: CoframeData | None
    certificate_verified: bool
    reconstructed: bool
    note: str


def rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, narrowed (an int when
    integral), or None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return narrow(Fraction(rn, rd))
    return None


def _pair_cert(k, a, b, c, p, basis, baux):
    """The frames k(x +- c b4), k(y +- c b3), baux +- p b5 with x = a b1 + b b2,
    y = -b b1 + a b2: the block frames and the diagonal frames of the simple cases."""
    b1, b2, b3, b4, b5 = basis
    x = a * b1 + b * b2
    y = -b * b1 + a * b2
    return FrameChange(
        (k * (x + c * b4), k * (y + c * b3), baux + p * b5,
         k * (x - c * b4), k * (y - c * b3), baux - p * b5)
    )


def _phase_pair(cos, sin, u, v):
    """(u, v) rotated by the phase with cosine cos and sine sin."""
    return cos * u + (-sin) * v, sin * u + cos * v


def _trig_abelian_cert(x1, basis, baux):
    b1, b2, b3, b4, b5 = basis
    u1, u2 = _phase_pair(COS_F, SIN_F, b1 + b4, b2 + b3)
    u3, u4 = _phase_pair(COS_G, SIN_G, b1 - b4, b2 - b3)
    df = baux + (3 * x1) * b5
    dg = baux - (3 * x1) * b5
    return FrameChange((u1, u2, u3, u4, df, dg)), {"df": df, "dg": dg}


def _trig_heis_cert(x1, basis, baux):
    b1, b2, b3, b4, b5 = basis
    u1, u2 = _phase_pair(COS_F, SIN_F, b1 + b4, b2 + b3)
    u4, u3 = _phase_pair(COS_F, SIN_F, b1 - b4, b2 - b3)
    u5 = div(-2, 3 * x1) * b5
    return FrameChange((u1, u2, u3, u4, u5, baux)), {"df": baux}


def identify_group(params_or_tuple) -> GroupIdentification:
    """Identify the ambient group when at least one parameter vanishes.

    Emits a frame change onto a cataloged algebra and verifies it; when the
    certificate needs an irrational radical it is withheld with a note.
    Cases with the roles of (a1, a3) and (a2, a4) swapped reuse the primary
    frames through a rotation of the 34-plane and are flagged as
    reconstructed.
    """
    params = params_or_tuple
    if not isinstance(params, FamilyParams):
        params = family_params(*params)
    a1, a2, a3, a4 = params.as_tuple()
    if a1 == a2 == a3 == a4 == 0:
        raise DegenerateInputError("all parameters vanish; the coframe is abelian")
    if all(v != 0 for v in (a1, a2, a3, a4)):
        return GroupIdentification(
            "unclassified-here", None, None, False, False,
            "identification requires at least one vanishing parameter",
        )
    inst = build(a1, a2, a3, a4)

    def finish(tag, fc, note, reconstructed, rules=None):
        cf = inst.coframe if rules is None else inst.coframe.with_trig_rules(**rules)
        ok = frame_change_verify(cf, fc, canonical_algebra(tag))
        return GroupIdentification(tag, fc, cf, ok, reconstructed, note)

    def no_cert(tag, reconstructed=False):
        return GroupIdentification(tag, None, inst.coframe, False, reconstructed, QUADRATIC_NOTE)

    if a3 == 0 and a4 == 0:
        c = rational_sqrt(a1 * a1 + a2 * a2)
        if c is None:
            return no_cert("su2+su2")
        return finish("su2+su2", _pair_cert(2, a1, a2, c, 2 * c, STD_BASIS, A2),
                      "compact block frames", False)
    if a1 == 0 and a2 == 0:
        c = rational_sqrt(a3 * a3 + a4 * a4)
        if c is None:
            return no_cert("sl2+sl2")
        return finish("sl2+sl2", _pair_cert(1, a3, a4, c, c, STD_BASIS, A2),
                      "hyperbolic block frames", False)

    def diagonal_case(x1, x3, basis, reconstructed):
        if x1 == x3:
            fc, rules = _trig_abelian_cert(x1, basis, A2)
            return finish("abelian6", fc, "phase-rotated flat frame", reconstructed, rules)
        if x3 == -2 * x1:
            fc, rules = _trig_heis_cert(x1, basis, A2)
            return finish("heis5+R", fc, "phase-rotated Heisenberg frame", reconstructed, rules)
        p = 2 * x1 + x3
        disc = (x1 - x3) * p
        if disc > 0:
            tag, k = "su2+su2", rational_sqrt(2 * disc)
            note = "diagonal frames scaled by sqrt(2(a1-a3)(2a1+a3))"
        else:
            tag, k = "sl2+sl2", rational_sqrt(-disc)
            note = "diagonal frames scaled by sqrt(-(a1-a3)(2a1+a3))"
        if k is None:
            return no_cert(tag, reconstructed)
        return finish(tag, _pair_cert(k, 1, 0, 1, p, basis, A2), note, reconstructed)

    if a2 == 0 and a4 == 0:
        return diagonal_case(a1, a3, STD_BASIS, False)
    # remaining case: a1 == 0 and a3 == 0, parameters carried by (a2, a4)
    return diagonal_case(a2, a4, TILDE_BASIS, True)
