"""Connection-level frame machinery.

Connection forms follow the convention w[i][j](X) = g(nabla_X e_i, e_j),
under which the first structure equation for a torsion-free metric
connection on a left-invariant orthonormal coframe reads

    d e_i = sum_j w[i][j] ^ e_j.

The Levi-Civita forms come from one closed form: the Koszul formula for a
left-invariant metric on the metric channels, and a direct read of the
structure table on each auxiliary channel.  The antisymmetric solution is
unique whenever it exists, and its existence is two checks on the table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import RankError, UnsupportedSymbolError
from .exterior import (
    METRIC_IDS,
    CoframeData,
    Frozen,
    ResidualReport,
    dense2,
    e,
    ext_d,
    stored,
    wedge,
    wedge_all,
    zero_form,
)
from .scalars import div_const, sis_zero


class ConnectionForms(Frozen):
    """Antisymmetric 5x5 matrix of connection 1-forms."""

    omega: tuple  # 5x5 tuple of degree-1 Forms
    _compared = ("omega",)

    def __init__(self, omega):
        for i in range(5):
            for j in range(i, 5):
                a, b = omega[i][j].terms, omega[j][i].terms
                if not all(sis_zero(a.get(k, 0) + b.get(k, 0)) for k in a.keys() | b.keys()):
                    raise ValueError("connection forms must be antisymmetric")
        self.__dict__["omega"] = omega


def connection_forms(entries):
    """Build ConnectionForms from a {(i, j): Form} dict, 1-based upper pairs:
    f goes to (i, j) and -f to (j, i); every other entry is zero."""
    zero = zero_form(1)
    grid = [[zero] * 5 for _ in range(5)]
    for (i, j), f in entries.items():
        grid[i - 1][j - 1] = f
        grid[j - 1][i - 1] = -f
    return ConnectionForms(tuple(tuple(row) for row in grid))


def connection_from_structure(c: CoframeData) -> ConnectionForms:
    """Levi-Civita connection forms: the antisymmetric solution of the first structure equation.

    The metric channels follow the Koszul formula for a left-invariant metric,

        2 w[b][c](e_a) = de_a(e_b, e_c) + de_b(e_a, e_c) - de_c(e_a, e_b),

    and each auxiliary channel is read off directly, w[b][c](A) = de_b(A, e_c).
    A solution exists, and is then unique, exactly when no de_i has an
    auxiliary ^ auxiliary term and de_i(A, e_j) is antisymmetric in (i, j);
    otherwise RankError.
    """
    n = c.name_of
    for i in range(5):
        for (s, t), v in c.d_table[i].terms.items():
            if s not in METRIC_IDS and not sis_zero(v):
                raise RankError(f"no Levi-Civita solution: d{n(i)} has a term in {n(s)}^{n(t)}")
    d = [dense2(c.d_table[i], c.n_symbols, 5) for i in range(5)]  # d[i][a][b] = de_i(e_a, e_b), b < 5
    aux = range(5, c.n_symbols)
    for a in aux:
        for i in range(5):
            for j in range(i, 5):
                if not sis_zero(d[i][a][j] + d[j][a][i]):
                    raise RankError(
                        f"no Levi-Civita solution: d{n(i)}, d{n(j)} disagree on the {n(a)} channel"
                    )
    entries = {}
    for b in range(5):
        for cc in range(b + 1, 5):
            values = [
                div_const(d[a][b][cc] + d[b][a][cc] - d[cc][a][b], 2) for a in range(5)
            ] + [d[b][a][cc] for a in aux]
            # unlike the storage rule, `if v` drops a float 0.0: the golden --float outputs pin it
            entries[(b + 1, cc + 1)] = stored(1, {(a,): v for a, v in enumerate(values) if v})
    return connection_forms(entries)


def verify_first_structure(c: CoframeData, omega: ConnectionForms):
    """Residuals de_i - sum_j w[i][j] ^ e_j per metric generator."""
    residuals = {}
    for i in range(5):
        acc = c.d_table[i]
        for j in range(5):
            acc = acc - wedge(omega.omega[i][j], e(j + 1))
        residuals[c.name_of(i)] = acc
    return ResidualReport(residuals)


# ---------------------------------------------------------------------------
# canonical 6-dimensional algebras and frame-change certificates


class CanonicalAlgebra(NamedTuple):
    """A 6-generator Lie coframe given by its structure table dg_i = sum c^i_(jk) g_j ^ g_k."""

    tag: str
    d_coeffs: Mapping[int, Mapping[tuple, Fraction]]


def _cyclic(block, coef3):
    """su(2)/sl(2)-type block on (i, j, k): dg_i = -g_j^g_k, dg_j = -g_k^g_i,
    dg_k = coef3 g_i^g_j, stored over sorted monomials."""
    i, j, k = block
    return {
        i: {(j, k): Fraction(-1)},
        j: {(i, k): Fraction(1)},
        k: {(i, j): Fraction(coef3)},
    }


def canonical_algebra(tag: str) -> CanonicalAlgebra:
    """Catalog of target algebras used by the group-identification certificates.

    sl2+sl2 is normalized with dg_3 = 2 g_1 ^ g_2 per block so that all
    certificate frames stay inside the rational/trig scalar tower.
    """
    if tag == "abelian6":
        table = {i: {} for i in range(6)}
    elif tag == "su2+su2":
        table = {**_cyclic((0, 1, 2), -1), **_cyclic((3, 4, 5), -1)}
    elif tag == "sl2+sl2":
        table = {**_cyclic((0, 1, 2), 2), **_cyclic((3, 4, 5), 2)}
    elif tag == "heis5+R":
        table = {i: {} for i in range(6)}
        table[4] = {(0, 1): Fraction(2), (2, 3): Fraction(2)}
    else:
        raise KeyError(f"unknown algebra tag {tag!r}")
    return CanonicalAlgebra(tag, table)


class FrameChange(NamedTuple):
    """Six new 1-forms, ordered to match the target algebra's generators."""

    new_forms: tuple  # 6 Forms over the source coframe symbols


def frame_change_verify(c: CoframeData, fc: FrameChange, target: CanonicalAlgebra):
    """Check d(new_i) = sum c^i_(jk) new_j ^ new_k exactly.

    Comparing both sides in the source basis is equivalent to re-expressing
    d(new_i) through the new basis because the new forms are verified to be
    linearly independent first (top wedge nonzero).
    """
    if c.n_symbols != 6:
        raise UnsupportedSymbolError("frame changes are defined on 6-symbol coframes")
    if len(fc.new_forms) != 6:
        raise ValueError("need six new forms")
    top = wedge_all(fc.new_forms)
    if top.is_zero():
        raise RankError("new forms are linearly dependent")
    for i in range(6):
        lhs = ext_d(fc.new_forms[i], c)
        rhs = zero_form(2)
        for (j, k), coef in target.d_coeffs.get(i, {}).items():
            rhs = rhs + wedge(fc.new_forms[j], fc.new_forms[k]).scale(coef)
        if not (lhs - rhs).is_zero():
            return False
    return True
