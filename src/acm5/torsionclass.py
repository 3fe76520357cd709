"""Intrinsic torsion extraction and its module classification.

The torsion takes values in (1-forms) tensor (complement of the stabilizer
algebra), a 30-dimensional space.  Five irreducible submodules, here
labeled W3..W7 (Chinea & Gonzalez, Ann. Mat. Pura Appl. 156, 1990), are
constructed by pushing the four 2-form types through the two equivariant
embeddings and projecting; the orthogonal complement of their sum is
reported as a residual without further decomposition.

An ``IntrinsicTorsion`` is one flat torsion view: 8 values per direction
on ``acms.COMPLEMENT_MONOMIALS``, read off 125 values by an index plan
(``acms.complement_view``).  Each
basis is orthogonal, so ``classify`` reads each module norm as sum c_i^2 g_ii
with c_i = <b_i, gamma>/g_ii and solves no linear system.  <b_i, gamma> runs
the dot plan of b_i, its nonzero slots with their values on ints: b_i times
a power of two m (2 on W6, else 1), with g_ii times m^2 (diagonals W3: 4;
W4: 6; W5: 4; W6: 4; W7: 12), so a float keeps its bits.  Float order
rule: a product of two views sums as ``acms.inner_form`` on their 2-forms,
per direction from the int 0 in slot order, then over the directions from
the int 0; the exact zeros that a view holds and a 2-form does not add an
exact zero, which leaves such a sum as it is.  So every float keeps its bits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from .acms import (
    LAMBDA2_BASES,
    SYM_12,
    SYM_23,
    T_COMPLEMENT,
    Tensor3,
    at,
    complement_view,
    contract,
    derived,
    frame_connection,
    plan,
    require_aux_vanish,
    theta,
    torsion_view,
    vartheta,
)
from .errors import ACM5Error
from .exterior import Frozen
from .scalars import EXACT, div, div_const, narrow, sis_zero, table_kind

MODULE_NAMES = ("W3", "W4", "W5", "W6", "W7")
ROWS = range(0, 40, 8)  # the first slot of each direction in a torsion view


class IntrinsicTorsion(Frozen):
    """Five 2-forms, one per frame direction, each valued in the complement of the
    stabilizer algebra, as their torsion view.  ``==`` compares the views slot by slot
    by ``sis_zero(a - b)``, as ``Tensor3`` does, and like it has no hash."""

    flat: tuple  # 40 values, 8 per direction on COMPLEMENT_MONOMIALS
    _compared = ("flat",)

    def __init__(self, flat):
        if len(flat) != 40:
            raise ValueError("a torsion view is 40 values, 8 per direction")
        self.__dict__["flat"] = flat

    def __eq__(self, other):
        if not isinstance(other, IntrinsicTorsion):
            return NotImplemented
        return all(sis_zero(a - b) for a, b in zip(self.flat, other.flat))

    def is_zero(self):
        return all(map(sis_zero, self.flat))


def tensor_to_w(a: Tensor3) -> IntrinsicTorsion:
    """Read a last-two-antisymmetric tensor as a torsion-space element,
    projecting each first-slot 2-form."""
    return IntrinsicTorsion(complement_view(T_COMPLEMENT, a.flat))


def intrinsic_torsion(source) -> IntrinsicTorsion:
    """Project the connection values onto the complement of the stabilizer
    algebra, direction by direction.

    Auxiliary-symbol blocks must sit inside the stabilizer algebra, i.e.
    project to zero; otherwise the input is outside scope.
    """
    fc = frame_connection(source)
    require_aux_vanish(fc, "contributes to the intrinsic torsion",
                       lambda m: complement_view(T_COMPLEMENT[:6], m))  # M_s as a direction
    return IntrinsicTorsion(derived(fc, torsion_view))


@lru_cache(maxsize=1)
def w_subspaces() -> Mapping[str, tuple]:
    """Spanning sets of the five constructed submodules, as torsion-space
    elements; dimensions (1, 2, 3, 4, 2).  W3..W6 embed the 2-form types 1..4
    by theta, W7 embeds type 2 by vartheta; ``tensor_to_w`` projects."""
    embedded = (("W3", theta, 1), ("W4", theta, 2), ("W5", theta, 3), ("W6", theta, 4))
    return {
        name: tuple(tensor_to_w(emb(b)) for b in LAMBDA2_BASES[part])
        for name, emb, part in (*embedded, ("W7", vartheta, 2))
    }


def dot_plan(b: IntrinsicTorsion) -> tuple:
    """Per direction, the (slot, value) pairs of the nonzero slots of b's view."""
    v = b.flat
    return tuple(tuple((s, v[s]) for s in range(r, r + 8) if v[s]) for r in ROWS)


def dot(plan, view):
    """<b, gamma> from the dot plan of b and the view of gamma, by the float order rule."""
    acc = 0
    for group in plan:
        part = 0
        for s, c in group:
            part += c * view[s]
        acc += part
    return acc


@lru_cache(maxsize=1)
def module_frames() -> Mapping[str, tuple]:
    """Each basis element of ``w_subspaces()`` with its Gram diagonal g_ii;
    ACM5Error unless every basis is orthogonal."""
    out = {}
    for name, basis in w_subspaces().items():
        if any(dot(dot_plan(bi), bj.flat) != 0 for i, bi in enumerate(basis) for bj in basis[:i]):
            raise ACM5Error(f"internal consistency: the {name} basis is not orthogonal")
        out[name] = tuple((b, narrow(dot(dot_plan(b), b.flat))) for b in basis)
    return out


@lru_cache(maxsize=1)
def norm_plans() -> tuple:
    """Per module, in MODULE_NAMES order: the lcm G of its diagonals on ints, and each
    basis element's dot plan on ints, times the lcm m of its denominators (a power
    of two), with the diagonal m^2 g of the scaled element."""
    out = []
    for name in MODULE_NAMES:
        ints = []
        for b, g in module_frames()[name]:
            p = dot_plan(b)
            m = math.lcm(*(Fraction(c).denominator for grp in p for _, c in grp))
            assert m & (m - 1) == 0, f"{name}: a scale m that is not a power of two"
            ints.append((tuple(tuple((s, narrow(c * m)) for s, c in grp) for grp in p), m * m * g))
        out.append((name, math.lcm(*(g for _, g in ints)), tuple(ints)))
    return tuple(out)


class ClassReport(NamedTuple):
    norms: Mapping[str, object]  # W3..W7 plus "residual" -> squared norms
    class_tags: tuple
    total_norm_sq: object

    @property
    def integrable(self):
        return not self.class_tags and sis_zero(self.total_norm_sq)


def classify(gamma: IntrinsicTorsion) -> ClassReport:
    """Orthogonal projection norms per submodule plus residual."""
    view = gamma.flat
    exact = table_kind(view) == EXACT
    total = 0
    for r in ROWS:  # gamma.gamma by the order rule
        part = 0
        for v in view[r : r + 8]:
            part += v * v
        total += part
    total = narrow(total)
    norms = {}
    accounted = 0
    for name, lcm, plans in norm_plans():
        if exact:  # sum c_i^2 g_i as sum (G/g_i) d_i^2 / G, on ints (d * d: TrigScalar has no **)
            n = div(sum(lcm // g * (d := dot(p, view)) * d for p, g in plans), lcm)
        else:  # the dot of a plan scaled by m, a power of two, and m^2 g keep c * c * g's bits
            n = 0
            for p, g in plans:
                c = div(dot(p, view), g)
                n += c * c * g
        norms[name] = narrow(n)
        accounted += n
    norms["residual"] = narrow(total - accounted)
    tags = tuple(name for name in (*MODULE_NAMES, "residual") if not sis_zero(norms[name]))
    return ClassReport(norms, tags, total)


# ---------------------------------------------------------------------------
# Cartan decomposition of trilinear tensors antisymmetric in the last slots


class CartanParts(NamedTuple):
    vectorial: Tensor3
    vector: tuple  # the defining vector of the vectorial part
    skew: Tensor3
    cyclic: Tensor3


def cartan_decompose(a: Tensor3, first_two=False) -> CartanParts:
    """Split into vectorial, totally skew-symmetric and traceless cyclic parts.

    The three pieces are orthogonal projections of dimensions (5, 10, 35).
    With first_two, a is a torsion T, antisymmetric in its first two slots:
    the parts of T(y, z, x), read in T's slot order by plans that compose it.
    """
    slots, sym, vec_plan, vectorial_plan = CARTAN_PLANS[first_two]
    if not all(map(sis_zero, contract(sym, a.flat))):
        raise ValueError(f"Cartan decomposition needs antisymmetry in the {slots} two slots")
    vec = [div_const(v, 4) for v in contract(vec_plan, a.flat + (0,))]
    vectorial = Tensor3(tuple(contract(vectorial_plan, (*vec, 0))))
    skew = Tensor3(tuple(div_const(v, 3) for v in contract(SKEW, a.flat)))
    cyclic = a - vectorial - skew
    return CartanParts(vectorial, tuple(vec), skew, cyclic)


VEC = plan(lambda z: (125, tuple((1, at(i, i, z), None) for i in range(5))), rank=1)  # the traces
# vec[z] where x = y, minus vec[y] where x = z, from the int 0 in slot 5 after the vector
VECTORIAL = plan(lambda x, y, z: (5, ((1, z, None),) * (x == y) + ((-1, y, None),) * (x == z)))
# the same two plans on T with T(y, z, x) in the last-two convention: the traces T(i, z, i), and
# VECTORIAL at (z, x, y); SKEW's cyclic sum is the same in both conventions
VEC_12 = plan(lambda z: (125, tuple((1, at(i, z, i), None) for i in range(5))), rank=1)
VECTORIAL_12 = plan(lambda x, y, z: (5, ((1, y, None),) * (z == x) + ((-1, x, None),) * (z == y)))
# by convention: the paired slots, their antisymmetry test, the trace and the vectorial plan
CARTAN_PLANS = {False: ("last", SYM_23, VEC, VECTORIAL),
                True: ("first", SYM_12, VEC_12, VECTORIAL_12)}
SKEW = plan(lambda x, y, z: (at(x, y, z), ((1, at(y, z, x), None), (1, at(z, x, y), None))))
