"""Connection-level frame machinery.

Connection forms follow the convention w[i][j](X) = g(nabla_X e_i, e_j),
under which the first structure equation for a torsion-free metric
connection on a left-invariant orthonormal coframe reads

    d e_i = sum_j w[i][j] ^ e_j.

The Levi-Civita forms come from one closed form: the Koszul formula for a
left-invariant metric on the metric channels, and a direct read of the
structure table on each auxiliary channel.  The antisymmetric solution is
unique whenever it exists, and its existence is two checks on the table.
The solve writes the solution's flat view, w[i][j](e_k) and one matrix per
auxiliary channel, straight from the table.  ``ConnectionForms(flat, channels)``
builds every connection of the library from such a view, checked once (its shape,
no trig value, antisymmetry), and compares connections by their views; it keeps the
memo that ``acms.derived`` fills, and its forms are a cache built when first read.
``verify_first_structure`` reads its residuals off the view too, and builds no form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Mapping, NamedTuple

from .errors import RankError, UnsupportedSymbolError
from .exterior import (
    METRIC_IDS, CoframeData, Frozen, ResidualReport, ext_d, stored, sum_tables, wedge_all,
    wedge_sum, zero_form,
)
from .scalars import EXACT, TrigScalar, div_const, is_float, narrow, sis_zero, table_kind


# (w[i][j](e_k), w[j][i](e_k)) slots for i <= j, and the entry pairs i <= j of a channel matrix
PAIR_SLOTS = tuple((25 * i + 5 * j + k, 25 * j + 5 * i + k)
                   for i in range(5) for j in range(i, 5) for k in METRIC_IDS)
UPPER = tuple((i, j) for i in range(5) for j in range(i, 5))
ZERO_MATRIX = ((0,) * 5,) * 5


class ConnectionForms(Frozen):
    """Antisymmetric connection by its flat ``view``: (w[i][j](e_k) at slot 25 i + 5 j + k,
    ((aux_id, 5x5 matrix [i][j]), ...) in increasing id order), with the memo of its
    invariants; its forms are built when first read.  ``==`` compares the views slot by slot
    by ``sis_zero(a - b)``, a channel that one side lacks reading as zeros, and the repr
    reads the view; the hash is the class's, so connections that are == hash alike."""

    view: tuple
    _memo: dict  # fn name -> fn(self), filled by ``acms.derived``
    _compared = ("view",)

    def __init__(self, flat, channels=()):
        ids = [a for a, _ in channels]
        if len(flat) != 125 or ids != sorted(set(ids)) or any(a < 5 for a in ids):
            raise ValueError("a connection view is 125 values and its channels by increasing "
                             "auxiliary id")
        mats = [m for _, m in channels]
        if TrigScalar in map(type, chain(flat, *chain.from_iterable(mats))):
            raise UnsupportedSymbolError("trig-valued connection entries are out of scope")
        if not (all(flat[a] == -flat[b] or sis_zero(flat[a] + flat[b]) for a, b in PAIR_SLOTS)
                and all(m[i][j] == -m[j][i] or sis_zero(m[i][j] + m[j][i])
                        for m in mats for i, j in UPPER)):
            raise ValueError("pointwise data must be antisymmetric in (i, j)")
        self.__dict__.update(view=(flat, channels), _memo={})

    def __eq__(self, other):
        if type(other) is not ConnectionForms:
            return NotImplemented
        (f, cs), (g, ds) = self.view, other.view
        cs, ds = dict(cs), dict(ds)
        return all(sis_zero(a - b) for a, b in chain(zip(f, g), *(
            zip(chain(*cs.get(s, ZERO_MATRIX)), chain(*ds.get(s, ZERO_MATRIX)))
            for s in cs.keys() | ds.keys())))

    def __hash__(self):  # == reads no slot exactly, so every == pair shares only the class
        return hash(ConnectionForms)

    @cached_property
    def omega(self):
        """The forms of the view by ``_grid``: w[i][j], i < j, under the storage rule."""
        flat, channels = self.view
        return _grid({(i, j): stored(1, {(k,): v for k, v in chain(
            enumerate(flat[25 * i + 5 * j : 25 * i + 5 * j + 5]),
            ((a, m[i][j]) for a, m in channels))}) for i in range(5) for j in range(i + 1, 5)})


def _grid(entries):
    """The 5x5 forms with f at (i, j) and -f at (j, i) for each 0-based {(i, j): f}, else zero."""
    grid = [[zero_form(1)] * 5 for _ in range(5)]
    for (i, j), f in entries.items():
        grid[i][j], grid[j][i] = f, -f
    return tuple(map(tuple, grid))


# w[b][c](e_a), b < c: its slot, w[c][b](e_a)'s, and those of de_a(b, c), de_b(a, c), de_c(a, b)
KOSZUL = tuple((25 * b + 5 * c + a, 25 * c + 5 * b + a, 25 * a + 5 * b + c, 25 * b + 5 * a + c,
                25 * c + 5 * a + b) for b in range(5) for c in range(b + 1, 5) for a in range(5))


def connection_from_structure(c: CoframeData) -> ConnectionForms:
    """Levi-Civita connection forms: the antisymmetric solution of the first structure equation.

    The metric channels follow the Koszul formula for a left-invariant metric,

        2 w[b][c](e_a) = de_a(e_b, e_c) + de_b(e_a, e_c) - de_c(e_a, e_b),

    and each auxiliary channel is read off directly, w[b][c](A) = de_b(A, e_c).
    A solution exists, and is then unique, exactly when no de_i has an
    auxiliary ^ auxiliary term and de_i(A, e_j) is antisymmetric in (i, j);
    otherwise RankError; a trig-valued table is refused after those checks.
    The solve writes the flat view from the table's terms.
    """
    n = c.name_of
    d = [0] * 125  # de_i(e_p, e_q) at slot 25 i + 5 p + q, metric p and q
    aux = {a: [[0] * 5 for _ in range(5)] for a in range(5, c.n_symbols)}  # [i][j] = de_i(e_a, e_j)
    for i in range(5):
        for (s, t), v in c.d_table[i].terms.items():
            if t < 5:
                d[25 * i + 5 * s + t], d[25 * i + 5 * t + s] = v, -v
            elif s < 5:
                aux[t][i][s] = -v
            elif not sis_zero(v):
                raise RankError(f"no Levi-Civita solution: d{n(i)} has a term in {n(s)}^{n(t)}")
    channels = []
    for a, m in aux.items():  # checked, then rewritten as the channel: w[i][j](A), i < j, and -w
        for i in range(5):
            for j in range(i, 5):
                if not sis_zero(m[i][j] + m[j][i]):
                    raise RankError(
                        f"no Levi-Civita solution: d{n(i)}, d{n(j)} disagree on the {n(a)} channel"
                    )
                v = narrow(m[i][j]) if i < j else 0
                m[i][j], m[j][i] = (v, -v) if v else (0, 0)
        channels += [(a, tuple(map(tuple, m)))] if any(map(any, m)) else []
    if TrigScalar in map(type, chain(*(c.d_table[i].terms.values() for i in range(5)))):
        raise UnsupportedSymbolError("trig-valued connection entries are out of scope")
    flat = [0] * 125
    for up, low, x, y, z in KOSZUL:
        # unlike the storage rule, `if v` drops a float 0.0: the golden --float outputs pin it
        if v := div_const(d[x] + d[y] - d[z], 2):
            flat[up], flat[low] = v, -v
    return ConnectionForms(tuple(flat), tuple(channels))


def verify_first_structure(c: CoframeData, omega: ConnectionForms):
    """Residuals de_i - sum_j w[i][j] ^ e_j per metric generator, read off the view.  The term
    e_j ^ w[i][j] puts w[i][j](E_k) on e_j ^ e_k (a channel's on e_j ^ A), w[i][j] read as
    ``omega`` builds it: the upper slots under the storage rule, negated below the diagonal;
    ``sum_tables`` adds the terms as ``wedge_sum`` would, so keys, order, values and kinds agree."""
    flat, channels = omega.view
    rows = [[(2, {}, EXACT) for _ in range(5)] for _ in range(5)]  # e_j ^ w[i][j]; w[i][i] = 0
    for i in range(5):
        for j in range(i + 1, 5):  # the terms (k, w[i][j](E_k)) that ``omega`` keeps, their kind
            row = chain(enumerate(flat[25 * i + 5 * j : 25 * i + 5 * j + 5]),
                        ((a, m[i][j]) for a, m in channels))
            kept = [(k, narrow(v)) for k, v in row if v or is_float(v)]
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
