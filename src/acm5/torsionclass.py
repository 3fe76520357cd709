"""Intrinsic torsion extraction and its module classification.

The torsion takes values in (1-forms) tensor (complement of the stabilizer
algebra), a 30-dimensional space.  Five irreducible submodules, here
labeled W3..W7, are constructed by pushing the four 2-form types through
the two equivariant embeddings and projecting; the orthogonal complement
of their sum is reported as a residual without further decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from . import linalg
from .acms import (
    L24,
    LAMBDA2_BASES,
    Tensor3,
    Z1,
    Z2,
    frame_connection,
    inner_form,
    pr_w,
    project_u2_complement,
    t3_from_func,
    theta,
    vartheta,
)
from .errors import SymbolicResidueError
from .exterior import grid_form, zero_form
from .scalars import sis_zero

# coordinates on the complement of the stabilizer algebra inside 2-forms
_CBASIS = (Z1, Z2) + L24
_CNORMS = tuple(inner_form(b, b) for b in _CBASIS)

MODULE_NAMES = ("W3", "W4", "W5", "W6", "W7")


@dataclass(frozen=True, eq=False)
class IntrinsicTorsion:
    """Five 2-forms, one per frame direction, each valued in the
    complement of the stabilizer algebra."""

    components: tuple  # 5 Forms of degree 2

    def __post_init__(self):
        for f in self.components:
            if any(i > 4 for i in f.symbols_used()):
                raise SymbolicResidueError("torsion components must be numeric 2-forms")
            if f.mode == "exact" and not (project_u2_complement(f) - f).is_zero():
                raise ValueError("torsion components must avoid the stabilizer algebra")

    def as_coords(self):
        out = []
        for f in self.components:
            for b, nb in zip(_CBASIS, _CNORMS):
                out.append(inner_form(f, b) * (Fraction(1) / nb))
        return out

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

    def __eq__(self, other):
        if not isinstance(other, IntrinsicTorsion):
            return NotImplemented
        return (self - other).is_zero()


def torsion_from_coords(coords) -> IntrinsicTorsion:
    comps = []
    for k in range(5):
        f = zero_form(2)
        for b, c in zip(_CBASIS, coords[6 * k : 6 * k + 6]):
            f = f + b.scale(c)
        comps.append(f)
    return IntrinsicTorsion(tuple(comps))


def inner_w(u: IntrinsicTorsion, v: IntrinsicTorsion):
    acc = Fraction(0)
    for a, b in zip(u.components, v.components):
        acc += inner_form(a, b)
    return acc


def tensor_to_w(a: Tensor3) -> IntrinsicTorsion:
    """Read a last-two-antisymmetric tensor as a torsion-space element,
    projecting each first-slot 2-form."""
    return IntrinsicTorsion(
        tuple(project_u2_complement(a.component_form(i)) for i in range(1, 6))
    )


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
    w = fc.base
    return IntrinsicTorsion(
        tuple(project_u2_complement(grid_form(lambda i, j: w[i][j][k])) for k in range(5))
    )


@lru_cache(maxsize=1)
def w_subspaces() -> Mapping[str, tuple]:
    """Spanning sets of the five constructed submodules, as torsion-space
    elements; dimensions (1, 2, 3, 4, 2)."""
    out = {}
    out["W3"] = tuple(tensor_to_w(pr_w(theta(b))) for b in LAMBDA2_BASES[1])
    out["W4"] = tuple(tensor_to_w(pr_w(theta(b))) for b in LAMBDA2_BASES[2])
    out["W5"] = tuple(tensor_to_w(pr_w(theta(b))) for b in LAMBDA2_BASES[3])
    out["W6"] = tuple(tensor_to_w(pr_w(theta(b))) for b in LAMBDA2_BASES[4])
    out["W7"] = tuple(tensor_to_w(pr_w(vartheta(b))) for b in LAMBDA2_BASES[2])
    return out


@lru_cache(maxsize=1)
def residual_basis() -> tuple:
    """Orthogonal complement of W3 + ... + W7 inside the torsion space."""
    rows = []
    weights = []
    for k in range(5):
        weights.extend(_CNORMS)
    for vecs in w_subspaces().values():
        for v in vecs:
            rows.append([c * w for c, w in zip(v.as_coords(), weights)])
    kernel = linalg.nullspace(rows)
    return tuple(torsion_from_coords(v) for v in kernel)


@dataclass(frozen=True)
class ClassReport:
    norms: Mapping[str, object]  # W3..W7 plus "residual" -> squared norms
    class_tags: tuple
    total_norm_sq: object

    @property
    def integrable(self):
        return not self.class_tags and sis_zero(self.total_norm_sq)


def classify(gamma: IntrinsicTorsion) -> ClassReport:
    """Orthogonal projection norms per submodule plus residual."""
    subs = w_subspaces()
    norms = {}
    total = inner_w(gamma, gamma)
    accounted = Fraction(0)
    for name in MODULE_NAMES:
        basis = subs[name]
        coefs = linalg.project_onto_span(list(basis), gamma, inner_w)
        n = Fraction(0)
        for ci, bi in zip(coefs, basis):
            for cj, bj in zip(coefs, basis):
                n += ci * cj * inner_w(bi, bj)
        norms[name] = n
        accounted += n
    norms["residual"] = total - accounted
    tags = tuple(name for name in (*MODULE_NAMES, "residual") if not sis_zero(norms[name]))
    return ClassReport(norms, tags, total)


# ---------------------------------------------------------------------------
# Cartan decomposition of trilinear tensors antisymmetric in the last slots


@dataclass(frozen=True)
class CartanParts:
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
    v = a.values
    quarter = Fraction(1, 4)
    vec = []
    for z in range(5):
        acc = Fraction(0)
        for i in range(5):
            acc += v[i][i][z]
        vec.append(quarter * acc)

    def vec_part(x, y, z):
        out = Fraction(0)
        if x == y:
            out += vec[z]
        if x == z:
            out -= vec[y]
        return out

    vectorial = t3_from_func(vec_part)
    third = Fraction(1, 3)
    skew = t3_from_func(lambda x, y, z: third * (v[x][y][z] + v[y][z][x] + v[z][x][y]))
    cyclic = a - vectorial - skew
    return CartanParts(vectorial, tuple(vec), skew, cyclic)
