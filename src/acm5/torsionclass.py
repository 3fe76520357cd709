"""Intrinsic torsion extraction and its module classification.

The torsion takes values in (1-forms) tensor (complement of the stabilizer
algebra), a 30-dimensional space.  Five irreducible submodules, here
labeled W3..W7 (Chinea & Gonzalez, Ann. Mat. Pura Appl. 156, 1990), are
constructed by pushing the four 2-form types through the two equivariant
embeddings and projecting; the orthogonal complement of their sum is
reported as a residual without further decomposition.

An ``IntrinsicTorsion`` holds one flat torsion view: 8 values per direction
on ``acms.COMPLEMENT_MONOMIALS``, read off 125 values by an index plan
(``acms.complement_view``); its 2-forms are built from it when read.  Each
basis is orthogonal (Gram diagonals W3: 4; W4: 6, 6; W5: 4, 4, 4; W6: 1,
1, 1, 1; W7: 12, 12), so ``classify`` reads each module norm as sum c_i^2
g_ii with c_i = <b_i, gamma>/g_ii, and solves no linear system; an exact
view sums the same norm on ints.  <b_i, gamma> runs the dot plan of b_i,
its nonzero slots with their values, built once per process.  Float order
rule: a product of two views sums as ``acms.inner_form`` on their 2-forms,
per direction from the int 0 in slot order, then over the directions from
the int 0; the exact zeros that a view holds and a 2-form does not add an
exact zero, which leaves such a sum as it is.  So every float keeps its bits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from typing import Mapping, NamedTuple

from .acms import (
    COMPLEMENT_MONOMIALS,
    LAMBDA2_BASES,
    T_COMPLEMENT,
    Tensor3,
    at,
    complement_view,
    contract,
    derived,
    frame_connection,
    inner_form,
    plan,
    theta,
    torsion_view,
    vartheta,
)
from .errors import ACM5Error, SymbolicResidueError
from .exterior import Frozen, stored
from .scalars import EXACT, div, div_const, narrow, sis_zero, table_kind

_U2_BASIS = LAMBDA2_BASES[1] + LAMBDA2_BASES[3]

MODULE_NAMES = ("W3", "W4", "W5", "W6", "W7")
ROWS = range(0, 40, 8)  # the first slot of each direction in a torsion view


class IntrinsicTorsion(Frozen):
    """Five 2-forms, one per frame direction, each valued in the complement of
    the stabilizer algebra, held as their torsion view; the view drops what
    a validated 2-form holds off the complement, within the float tolerance."""

    flat: tuple  # 40 values, 8 per direction on COMPLEMENT_MONOMIALS
    _compared = ("components",)

    def __init__(self, components):
        for f in components:
            if any(i > 4 for i in f.symbols_used()):
                raise SymbolicResidueError("torsion components must be numeric 2-forms")
            if not all(sis_zero(inner_form(f, b)) for b in _U2_BASIS):
                raise ValueError("torsion components must avoid the stabilizer algebra")
        flat = (narrow(f.coefficient(m)) for f in components for m in COMPLEMENT_MONOMIALS)
        self.__dict__["flat"] = tuple(flat)

    @cached_property
    def components(self):
        """The five 2-forms of the view, under the storage rule."""
        v = self.flat
        return tuple(stored(2, dict(zip(COMPLEMENT_MONOMIALS, v[r : r + 8]))) for r in ROWS)

    def is_zero(self):
        return all(map(sis_zero, self.flat))


def _torsion(flat) -> IntrinsicTorsion:
    """The IntrinsicTorsion of a view that the library computed, without re-validation."""
    t = object.__new__(IntrinsicTorsion)
    t.__dict__["flat"] = flat
    return t


def tensor_to_w(a: Tensor3) -> IntrinsicTorsion:
    """Read a last-two-antisymmetric tensor as a torsion-space element,
    projecting each first-slot 2-form."""
    return _torsion(complement_view(T_COMPLEMENT, a.flat))


def intrinsic_torsion(source) -> IntrinsicTorsion:
    """Project the connection values onto the complement of the stabilizer
    algebra, direction by direction.

    Auxiliary-symbol channels must sit inside the stabilizer algebra, i.e.
    project to zero; otherwise the input is outside scope.
    """
    fc = frame_connection(source)
    for sid, mat in fc.channels:  # the channel as the first-slot 2-form of a Tensor3
        if not all(map(sis_zero, complement_view(T_COMPLEMENT, (*chain(*mat), *(0,) * 100)))):
            raise SymbolicResidueError(
                f"auxiliary symbol id {sid} contributes to the intrinsic torsion"
            )
    return _torsion(derived(fc, torsion_view))


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
    """Per module, in MODULE_NAMES order: each basis element's dot plan with its
    Gram diagonal g; and, for an exact view, the lcm G of the diagonals on ints
    with each plan on ints and its weight G/g."""
    out = []
    for name in MODULE_NAMES:
        frame = tuple((dot_plan(b), g) for b, g in module_frames()[name])
        ints = []
        for p, g in frame:  # p times the lcm m of its denominators, with the diagonal m^2 g
            m = math.lcm(*(Fraction(c).denominator for grp in p for _, c in grp))
            ints.append((tuple(tuple((s, narrow(c * m)) for s, c in grp) for grp in p), m * m * g))
        big = math.lcm(*(g for _, g in ints))
        out.append((name, frame, big, tuple((p, big // g) for p, g in ints)))
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
    for name, frame, lcm, on_ints in norm_plans():
        if exact:  # sum c_i^2 g_i as sum w_i d_i^2 / G, on ints (d * d: TrigScalar has no **)
            n = div(sum(w * (d := dot(p, view)) * d for p, w in on_ints), lcm)
        else:
            n = 0
            for p, g in frame:
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


def cartan_decompose(a: Tensor3) -> CartanParts:
    """Split into vectorial, totally skew-symmetric and traceless cyclic parts.

    The three pieces are orthogonal projections of dimensions (5, 10, 35).
    """
    if not a.is_antisymmetric_last_two():
        raise ValueError("Cartan decomposition needs antisymmetry in the last two slots")
    vec = [div_const(v, 4) for v in contract(VEC, a.flat + (0,))]
    vectorial = Tensor3(tuple(contract(VECTORIAL, (*vec, 0))))
    skew = Tensor3(tuple(div_const(v, 3) for v in contract(SKEW, a.flat)))
    cyclic = a - vectorial - skew
    return CartanParts(vectorial, tuple(vec), skew, cyclic)


VEC = plan(lambda z: (125, tuple((1, at(i, i, z), None) for i in range(5))), rank=1)  # the traces
# vec[z] where x = y, minus vec[y] where x = z, from the int 0 in slot 5 after the vector
VECTORIAL = plan(lambda x, y, z: (5, ((1, z, None),) * (x == y) + ((-1, y, None),) * (x == z)))
SKEW = plan(lambda x, y, z: (at(x, y, z), ((1, at(y, z, x), None), (1, at(z, x, y), None))))
