"""Intrinsic torsion extraction and its module classification.

The torsion takes values in (1-forms) tensor (complement of the stabilizer
algebra), a 30-dimensional space.  Five irreducible submodules, here
labeled W3..W7, are constructed by pushing the four 2-form types through
the two equivariant embeddings and projecting; the orthogonal complement
of their sum is reported as a residual without further decomposition.

Each basis is orthogonal (Gram diagonals W3: 4; W4: 6, 6; W5: 4, 4, 4;
W6: 1, 1, 1, 1; W7: 12, 12), so ``classify`` reads each module norm as
sum c_i^2 g_ii with c_i = <b_i, gamma>/g_ii, and solves no linear system.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, NamedTuple

from .acms import (
    COMPLEMENT_FRAME,
    LAMBDA2_BASES,
    Tensor3,
    at,
    complement_forms,
    contract,
    derived,
    frame_connection,
    inner_form,
    plan,
    project_u2_complement,
    theta,
    vartheta,
)
from .errors import ACM5Error, SymbolicResidueError
from .exterior import Frozen, grid_form
from .scalars import div, div_const, narrow, sis_zero

_U2_BASIS = LAMBDA2_BASES[1] + LAMBDA2_BASES[3]

MODULE_NAMES = ("W3", "W4", "W5", "W6", "W7")


class IntrinsicTorsion(Frozen):
    """Five 2-forms, one per frame direction, each valued in the
    complement of the stabilizer algebra."""

    components: tuple  # 5 Forms of degree 2
    _compared = ("components",)

    def __init__(self, components):
        for f in components:
            if any(i > 4 for i in f.symbols_used()):
                raise SymbolicResidueError("torsion components must be numeric 2-forms")
            if not all(sis_zero(inner_form(f, b)) for b in _U2_BASIS):
                raise ValueError("torsion components must avoid the stabilizer algebra")
        self.__dict__["components"] = components

    def as_coords(self):
        return [
            div_const(inner_form(f, b), nb) for f in self.components for b, nb in COMPLEMENT_FRAME
        ]

    def norm_sq(self):
        return inner_w(self, self)

    def __add__(self, other):
        return IntrinsicTorsion(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return IntrinsicTorsion(tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, s):
        return IntrinsicTorsion(tuple(f.scale(s) for f in self.components))

    def is_zero(self):
        return all(f.is_zero() for f in self.components)


def inner_w(u: IntrinsicTorsion, v: IntrinsicTorsion):
    acc = 0
    for a, b in zip(u.components, v.components):
        acc += inner_form(a, b)
    return acc


def tensor_to_w(a: Tensor3) -> IntrinsicTorsion:
    """Read a last-two-antisymmetric tensor as a torsion-space element,
    projecting each first-slot 2-form."""
    return IntrinsicTorsion(tuple(project_u2_complement(a.component_form(i)) for i in range(1, 6)))


def intrinsic_torsion(source) -> IntrinsicTorsion:
    """Project the connection values onto the complement of the stabilizer
    algebra, direction by direction.

    Auxiliary-symbol channels must sit inside the stabilizer algebra, i.e.
    project to zero; otherwise the input is outside scope.
    """
    fc = frame_connection(source)
    for sid, mat in fc.channels:
        chan = grid_form(lambda i, j: mat[i][j])
        if not project_u2_complement(chan).is_zero():
            raise SymbolicResidueError(
                f"auxiliary symbol id {sid} contributes to the intrinsic torsion"
            )
    return IntrinsicTorsion(derived(fc, complement_forms))


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


@lru_cache(maxsize=1)
def module_frames() -> Mapping[str, tuple]:
    """Each basis element of ``w_subspaces()`` with its Gram diagonal g_ii;
    ACM5Error unless every basis is orthogonal."""
    out = {}
    for name, basis in w_subspaces().items():
        if any(inner_w(bi, bj) != 0 for i, bi in enumerate(basis) for bj in basis[:i]):
            raise ACM5Error(f"internal consistency: the {name} basis is not orthogonal")
        out[name] = tuple((b, narrow(inner_w(b, b))) for b in basis)
    return out


class ClassReport(NamedTuple):
    norms: Mapping[str, object]  # W3..W7 plus "residual" -> squared norms
    class_tags: tuple
    total_norm_sq: object

    @property
    def integrable(self):
        return not self.class_tags and sis_zero(self.total_norm_sq)


def classify(gamma: IntrinsicTorsion) -> ClassReport:
    """Orthogonal projection norms per submodule plus residual."""
    frames = module_frames()
    norms = {}
    total = narrow(inner_w(gamma, gamma))
    accounted = 0
    for name in MODULE_NAMES:
        n = 0
        for b, g in frames[name]:
            c = div(inner_w(b, gamma), g)
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

    def parts(self):
        return {"vectorial": self.vectorial, "skew": self.skew, "cyclic": self.cyclic}


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
