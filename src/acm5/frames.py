"""Connection-level frame machinery.

Connection forms follow the convention w[i][j](X) = g(nabla_X e_i, e_j),
under which the first structure equation for a torsion-free metric
connection on a left-invariant orthonormal coframe reads

    d e_i = sum_j w[i][j] ^ e_j.

A left-invariant connection is its Nomizu map: one antisymmetric 5x5 matrix
M_s[i][j] = w[i][j](E_s) per coframe symbol s.  Its flat view holds the blocks
M_s row-major, w[i][j](E_s) at slot ``at(s, i, j)`` = 25 s + 5 i + j, the metric
symbols first, then each auxiliary symbol by id.  The Levi-Civita forms come from
one closed form: the Koszul formula for a left-invariant metric on the metric
blocks, and a direct read of the structure table on each auxiliary block.  The
antisymmetric solution is unique whenever it exists, and its existence is two
checks on the table.  The solve writes the solution's view straight from the
table.  ``ConnectionForms(flat)`` builds every connection of the library from
such a view, checked once (its shape, no trig value, antisymmetry per block), and
compares connections by their views, as every ``exterior.View`` does; it keeps
the memo that ``acms.derived`` fills, and its forms are a cache built when first read.
``verify_first_structure`` reads its residuals off the view too, and builds no form.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Mapping, NamedTuple

from .errors import RankError, UnsupportedSymbolError
from .exterior import (
    CoframeData, ResidualReport, View, ext_d, stored, sum_tables, wedge_all, wedge_sum, zero_form,
)
from .scalars import EXACT, TrigScalar, div_const, is_float, narrow, sis_zero, table_kind


def at(i, j, k):
    """The slot of entry [i][j][k] of a 5x5x5 cube in its flat view; in a connection's
    view, that of w[j][k](E_i)."""
    return 25 * i + 5 * j + k


# the entry pairs ([i][j], [j][i]), i <= j, of a 5x5 block by rows
ANTISYMMETRIC = tuple((at(0, i, j), at(0, j, i)) for i in range(5) for j in range(i, 5))


class ConnectionForms(View):
    """Antisymmetric connection by its flat view, M_s[i][j] = w[i][j](E_s) at slot
    ``at(s, i, j)`` for s = 0, 1, ...: the five metric symbols, then the auxiliary ones; with
    the memo of its invariants, and its forms built when first read.  ``==``, the hash and the
    repr are those of every ``View``, so a block that one side lacks reads as zeros."""

    _memo: dict  # fn name -> fn(self), filled by ``acms.derived``
    _shape = (range(125, sys.maxsize, 25),
              "a connection view is 25 values per symbol, the 5 metric ones first")

    def __init__(self, flat):
        super().__init__(flat)
        if TrigScalar in map(type, flat):
            raise UnsupportedSymbolError("trig-valued connection entries are out of scope")
        if not all(flat[o + a] == -flat[o + b] or sis_zero(flat[o + a] + flat[o + b])
                   for o in range(0, len(flat), 25) for a, b in ANTISYMMETRIC):
            raise ValueError("pointwise data must be antisymmetric in (i, j)")
        self.__dict__["_memo"] = {}

    @cached_property
    def omega(self):
        """The forms of the view by ``_grid``: w[i][j], i < j, under the storage rule."""
        v = self.flat
        return _grid({(i, j): stored(1, {(s,): x for s, x in enumerate(v[5 * i + j :: 25])})
                      for i in range(5) for j in range(i + 1, 5)})


def _grid(entries):
    """The 5x5 forms with f at (i, j) and -f at (j, i) for each 0-based {(i, j): f}, else zero."""
    grid = [[zero_form(1)] * 5 for _ in range(5)]
    for (i, j), f in entries.items():
        grid[i][j], grid[j][i] = f, -f
    return tuple(map(tuple, grid))


# w[b][c](e_a), b < c: its slot, w[c][b](e_a)'s, and those of de_a(b, c), de_b(a, c), de_c(a, b)
KOSZUL = tuple((at(a, b, c), at(a, c, b), at(a, b, c), at(b, a, c), at(c, a, b))
               for b in range(5) for c in range(b + 1, 5) for a in range(5))


def connection_from_structure(c: CoframeData) -> ConnectionForms:
    """Levi-Civita connection forms: the antisymmetric solution of the first structure equation.

    The metric blocks follow the Koszul formula for a left-invariant metric,

        2 w[b][c](e_a) = de_a(e_b, e_c) + de_b(e_a, e_c) - de_c(e_a, e_b),

    and each auxiliary block is read off directly, w[b][c](A) = de_b(A, e_c).
    A solution exists, and is then unique, exactly when no de_i has an
    auxiliary ^ auxiliary term and de_i(A, e_j) is antisymmetric in (i, j);
    otherwise RankError; a trig-valued table is refused after those checks.
    The solve writes the view, one block per coframe symbol, from the table's terms.
    """
    n = c.name_of
    d = [0] * 125  # de_i(e_p, e_q) at slot at(i, p, q), metric p and q
    view = [0] * (25 * c.n_symbols)
    for i in range(5):
        o = at(i, 0, 0)
        for (s, t), v in c.d_table[i].terms.items():
            if t < 5:
                d[o + 5 * s + t], d[o + 5 * t + s] = v, -v
            elif s < 5:
                view[at(t, i, s)] = -v  # de_i(A, e_s), A of id t
            elif not sis_zero(v):
                raise RankError(f"no Levi-Civita solution: d{n(i)} has a term in {n(s)}^{n(t)}")
    for a in range(5, c.n_symbols):  # checked, then rewritten: w[i][j](A), i < j, and -w
        o = at(a, 0, 0)
        for up, low in ANTISYMMETRIC:
            if not sis_zero(view[o + up] + view[o + low]):
                i, j = divmod(up, 5)
                raise RankError(
                    f"no Levi-Civita solution: d{n(i)}, d{n(j)} disagree on the {n(a)} channel"
                )
            v = narrow(view[o + up]) if up != low else 0
            view[o + up], view[o + low] = (v, -v) if v else (0, 0)
    if TrigScalar in map(type, chain(*(c.d_table[i].terms.values() for i in range(5)))):
        raise UnsupportedSymbolError("trig-valued connection entries are out of scope")
    for up, low, x, y, z in KOSZUL:
        # unlike the storage rule, `if v` drops a float 0.0: the golden --float outputs pin it
        if v := div_const(d[x] + d[y] - d[z], 2):
            view[up], view[low] = v, -v
    return ConnectionForms(tuple(view))


def verify_first_structure(c: CoframeData, omega: ConnectionForms):
    """Residuals de_i - sum_j w[i][j] ^ e_j per metric generator, read off the view.  The term
    e_j ^ w[i][j] puts w[i][j](E_k) on e_j ^ e_k, w[i][j] read as ``omega`` builds it: the
    upper slots under the storage rule, negated below the diagonal; ``sum_tables`` adds the
    terms as ``wedge_sum`` would, so keys, order, values and kinds agree."""
    rows = [[(2, {}, EXACT) for _ in range(5)] for _ in range(5)]  # e_j ^ w[i][j]; w[i][i] = 0
    for i in range(5):
        for j in range(i + 1, 5):  # the terms (k, w[i][j](E_k)) that ``omega`` keeps, their kind
            kept = [(k, narrow(v)) for k, v in enumerate(omega.flat[5 * i + j :: 25])
                    if v or is_float(v)]
            kind = table_kind(v for _, v in kept)
            rows[i][j] = 2, {(j, k) if j < k else (k, j): 0 + v * (1 if j < k else -1)
                             for k, v in kept if k != j}, kind  # 0 + v as _accumulate adds v
            rows[j][i] = 2, {(i, k) if i < k else (k, i): 0 + v * (-1 if i < k else 1)  # -w[i][j]
                             for k, v in kept if k != i}, kind
    return ResidualReport({c.name_of(i): sum_tables(c.d_table[i], rows[i]) for i in range(5)})


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
        rhs = wedge_sum(zero_form(2), (
            (fc.new_forms[j].scale(coef), fc.new_forms[k])
            for (j, k), coef in target.d_coeffs.get(i, {}).items()))
        if not (lhs - rhs).is_zero():
            return False
    return True
