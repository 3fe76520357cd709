"""The four-parameter family of generalized quasi-Sasaki coframes and their groups.

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
also identifies the ambient 6-dimensional Lie group whenever a parameter
vanishes, emitting a verifiable frame-change certificate when the needed
radicals are rational.  It runs on exterior and frames alone; the identity
replay, which runs every layer, is :mod:`acm5.family`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateInputError, IntegrabilityError
from .exterior import CoframeData, Frozen, coframe, e, form, stored
from .frames import (
    ConnectionForms,
    FrameChange,
    at,
    canonical_algebra,
    frame_change_verify,
    verify_first_structure,
)
from .scalars import COS_F, COS_G, SIN_F, SIN_G, div, narrow, rat

A2 = form(1, {(5,): 1})
# the A2 block of the tabulated connection, by rows: w[1][2](A2) = 1, w[3][4](A2) = -1 (1-based)
A2_CHANNEL = (0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
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
    """Construct and validate a family coframe, its table written term by term (A2 has id 5)
    with the keys, order, values and types of the equations' Form chain (family_table_oracle)."""
    params = family_params(a1, a2, a3, a4)
    a1, a2, a3, a4 = params.as_tuple()
    p, q, b, c = 2 * a1 + a3, 2 * a2 + a4, a1 - a3, a2 - a4
    alpha = narrow(-2 * (b * p + c * q))
    cf = coframe({name: stored(2, terms) for name, terms in (
        ("e1", {(1, 5): -1, (2, 4): -p, (3, 4): -q}), ("e2", {(0, 5): 1, (3, 4): p, (2, 4): -q}),
        ("e3", {(3, 5): 1, (0, 4): p, (1, 4): q}), ("e4", {(2, 5): -1, (1, 4): -p, (0, 4): q}),
        ("e5", {(0, 2): -2 * b, (1, 3): 2 * b, (0, 3): -2 * c, (1, 2): -2 * c}),
        ("A2", {(0, 1): alpha, (2, 3): -alpha}),
    )}, auxiliary=("A2",))
    if not (report := cf.d_squared_gate).ok:
        raise IntegrabilityError(f"d^2 != 0 on {report.failing}")
    view = [0] * 125 + list(A2_CHANNEL)
    for (i, j, k), v in {  # w[i][j](e_k), 0-based, i < j; the A2 legs are A2_CHANNEL
        (0, 2, 4): a1 + 2 * a3, (0, 3, 4): a2 + 2 * a4, (1, 2, 4): a2 + 2 * a4,
        (1, 3, 4): -(a1 + 2 * a3), (0, 4, 2): -b, (0, 4, 3): -c, (1, 4, 2): -c, (1, 4, 3): b,
        (2, 4, 0): b, (2, 4, 1): c, (3, 4, 0): c, (3, 4, 1): -b,
    }.items():
        view[at(k, i, j)], view[at(k, j, i)] = narrow(v), narrow(-v)
    omega_g = ConnectionForms(tuple(view))
    if not (fs := verify_first_structure(cf, omega_g)).ok:
        raise IntegrabilityError(f"first structure equation fails on {fs.failing}")
    return FamilyInstance(params, cf, alpha, omega_g)


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
