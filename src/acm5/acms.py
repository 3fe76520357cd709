"""The adapted almost contact metric structure and its first-order invariants.

The frame is adapted: the fundamental 2-form is e1^e2 + e3^e4, the Reeb
form is e5, and the endomorphism is fixed by phi(e1) = -e2, phi(e2) = e1,
phi(e3) = -e4, phi(e4) = e3, phi(e5) = 0, which is the unique choice with
Phi(X, Y) = g(X, phi(Y)).

phi is a signed permutation of e1..e4 and zero on e5, so every sum over
PHI_MAT has at most one nonzero term per slot.  ``PHI_ENTRIES`` lists the
nonzero entries PHI_MAT[u][b] = s as (u, b, s) by ascending u, and
``PHI_COL[b]`` is the (u, s) of column b, with s = 0 for the Reeb column so
that a read through it adds nothing; both are read from PHI_MAT once.  The
tensor kernels add or subtract these signed reads and never multiply by a
zero or a unit.  A kernel entry adds its terms in the order of the full
sum, from ``0.0`` where the full sum would have multiplied a float by one of
phi's zeros and from the int 0 elsewhere; inner products start from the int
0 and divide through ``scalars.div`` or ``div_const``.  So at the integer
scale of ``cli.classification_report`` every exact entry is an int.

Everything here is pointwise multilinear algebra driven by connection
values w[i][j](e_k).  Auxiliary symbols appearing in connection entries are
tracked as independent linear channels; operations that must produce
numbers verify that every channel cancels and raise SymbolicResidueError
otherwise.

Memo rule: read the invariants of one structure (the projections of the
w(e_k), nabla Phi, N, d eta, gamma, the predicates) through ``derived``, so
each, with its cross-check, is computed once per frame connection; a direct
call always computes.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field

from .errors import (
    ACM5Error,
    AmbiguityError,
    NotGeneralizedQuasiSasakiError,
    SymbolicResidueError,
    UnsupportedSymbolError,
)
from .exterior import (
    METRIC_IDS,
    Form,
    dense2,
    dense3,
    perm_sign,
    form,
    grid_form,
    hodge,
    interior,
    stored,
    zero_form,
)
from .frames import ConnectionForms, PointwiseFrameData
from .scalars import ZERO, TrigScalar, div_const, is_exact_zero, sis_zero, table_kind

XI = 4  # 0-based id of the Reeb direction e5

PHI = form(2, {(0, 1): 1, (2, 3): 1})
ETA = form(1, {(4,): 1})
F = form(2, {(0, 1): 1, (2, 3): -1})
Z1 = form(2, {(0, 2): 1, (1, 3): -1})
Z2 = form(2, {(0, 3): 1, (1, 2): 1})
Y1 = form(2, {(0, 2): 1, (1, 3): 1})
Y2 = form(2, {(0, 3): 1, (1, 2): -1})
L24 = tuple(form(2, {(i, 4): 1}) for i in range(4))

# phi matrix: PHI_MAT[i][j] = Phi(e_i, e_j); phi(v)_i = sum_j PHI_MAT[i][j] v_j
PHI_MAT = tuple(map(tuple, dense2(PHI)))
PHI_ENTRIES = tuple(
    (u, b, 1 if PHI_MAT[u][b] > 0 else -1)
    for u in range(5)
    for b in range(5)
    if PHI_MAT[u][b]
)
PHI_COL = tuple(
    next(((u, s) for u, c, s in PHI_ENTRIES if c == b), (b, 0)) for b in range(5)
)


def _signed_add(acc, s, v):
    """acc + s v for s in (-1, 0, 1), without the product."""
    return acc + v if s > 0 else acc - v if s < 0 else acc


@dataclass(frozen=True)
class AdaptedStructure:
    Phi: Form
    eta: Form


ADAPTED = AdaptedStructure(PHI, ETA)

LAMBDA2_BASES = {
    1: (PHI,),
    2: (Z1, Z2),
    3: (F, Y1, Y2),
    4: L24,
}


def inner_form(a: Form, b: Form):
    """Monomial inner product: the wedge monomials are orthonormal."""
    acc = 0
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    for idx, c in small.items():
        d = large.get(idx)
        if d is not None:
            acc += c * d
    return acc


def _require_metric_2form(beta: Form):
    if beta.degree != 2:
        raise ValueError("need a 2-form")
    if any(i not in METRIC_IDS for i in beta.symbols_used()):
        raise UnsupportedSymbolError("auxiliary symbols have no type decomposition")


def lambda2_project(beta: Form, part: int) -> Form:
    """Orthogonal projection onto the four 2-form types (1: span of the
    fundamental form, 2: primitive phi-anti-invariant, 3: the rest of the
    stabilizer algebra, 4: forms containing the Reeb leg)."""
    _require_metric_2form(beta)
    if part not in LAMBDA2_BASES:
        raise ValueError("part must be 1..4")
    out = zero_form(2)
    for b in LAMBDA2_BASES[part]:
        coef = div_const(inner_form(beta, b), inner_form(b, b))
        out = out + b.scale(coef)
    return out


# the complement of the stabilizer: each basis 2-form (Z1, Z2, the Reeb legs) with its squared norm
COMPLEMENT_FRAME = tuple((b, inner_form(b, b)) for b in LAMBDA2_BASES[2] + LAMBDA2_BASES[4])


def project_u2_complement(beta: Form) -> Form:
    """lambda2_project(beta, 2) + lambda2_project(beta, 4) as a coordinate map:
    (beta_02 - beta_13)/2 on Z1, (beta_03 + beta_12)/2 on Z2, each Reeb leg
    beta_i4.  Each entry is 0 plus the product the general projection adds,
    under the storage rule, so float entries keep their bits (0.0 + -0.0 is
    0.0) and integral ones are ints."""
    _require_metric_2form(beta)
    out = {}
    for b, norm in COMPLEMENT_FRAME:
        coef = div_const(inner_form(beta, b), norm)
        for idx, s in b.terms.items():
            out[idx] = 0 + s * coef
    return stored(2, out)


def phi_pullback(beta: Form) -> Form:
    """The 2-form (X, Y) -> beta(phi X, phi Y)."""
    _require_metric_2form(beta)
    m = dense2(beta)

    def entry(a, b):
        (u, s), (w, t) = PHI_COL[a], PHI_COL[b]
        return _signed_add(0, s * t, m[u][w])

    return grid_form(entry)


def phi_invariance_type(beta: Form):
    """+1, -1 or 0 according to beta(phi., phi.) = +beta, -beta or 0."""
    t = phi_pullback(beta)
    if t.is_zero():
        return 0
    if (t - beta).is_zero():
        return 1
    if (t + beta).is_zero():
        return -1
    raise AmbiguityError("2-form mixes invariance types")


# ---------------------------------------------------------------------------
# trilinear tensors, antisymmetric in the last two slots


@dataclass(frozen=True, eq=False)
class Tensor3:
    values: tuple  # 5x5x5 nested tuples

    def get(self, i, j, k):
        """1-based access."""
        return self.values[i - 1][j - 1][k - 1]

    def is_zero(self):
        return all(sis_zero(v) for m in self.values for r in m for v in r)

    def _zip(self, other, op):
        return Tensor3(
            tuple(
                tuple(tuple(map(op, ra, rb)) for ra, rb in zip(ma, mb))
                for ma, mb in zip(self.values, other.values)
            )
        )

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def scale(self, s):
        return Tensor3(
            tuple(
                tuple(tuple(s * v for v in r) for r in m) for m in self.values
            )
        )

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (self - other).is_zero()

    def inner(self, other):
        acc = 0
        for ma, mb in zip(self.values, other.values):
            for ra, rb in zip(ma, mb):
                for a, b in zip(ra, rb):
                    acc += a * b
        return acc

    def norm_sq(self):
        return self.inner(self)

    def is_antisymmetric_last_two(self):
        v = self.values
        return all(
            sis_zero(v[i][j][k] + v[i][k][j])
            for i in range(5)
            for j in range(5)
            for k in range(5)
        )

    def is_totally_skew(self):
        v = self.values
        return self.is_antisymmetric_last_two() and all(
            sis_zero(v[i][j][k] + v[j][i][k])
            for i in range(5)
            for j in range(5)
            for k in range(5)
        )

    def component_form(self, i):
        """The 2-form of the (1-based) first-slot direction i."""
        return grid_form(lambda a, b: self.values[i - 1][a][b])


def t3_from_func(fn):
    return Tensor3(
        tuple(
            tuple(tuple(fn(i, j, k) for k in range(5)) for j in range(5))
            for i in range(5)
        )
    )


def t3_from_form3(rho: Form) -> Tensor3:
    return Tensor3(tuple(tuple(map(tuple, plane)) for plane in dense3(rho)))


def theta(beta: Form) -> Tensor3:
    """The totally skew tensor carrying the star of a 2-form."""
    _require_metric_2form(beta)
    return t3_from_form3(hodge(beta))


def vartheta(beta: Form) -> Tensor3:
    """3 eta (x) beta minus the star of beta, as a trilinear tensor."""
    _require_metric_2form(beta)
    b, star = dense2(beta), dense3(hodge(beta))
    return t3_from_func(lambda i, j, k: (3 if i == XI else 0) * b[j][k] - star[i][j][k])


# ---------------------------------------------------------------------------
# connection values with auxiliary channels


@dataclass(frozen=True)
class FrameConnection:
    """Pointwise connection values w[i][j](e_k), plus one constant matrix per
    auxiliary symbol tracking its (unknown) frame values linearly."""

    base: tuple  # 5x5x5
    channels: tuple  # ((aux_id, 5x5 matrix), ...)
    forms: ConnectionForms | None = field(default=None, compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def derived(fc: FrameConnection, fn):
    """fn(fc), computed once per frame connection."""
    key = fn.__name__
    if key not in fc._memo:
        fc._memo[key] = fn(fc)
    return fc._memo[key]


def frame_connection(source) -> FrameConnection:
    if isinstance(source, FrameConnection):
        return source
    if isinstance(source, PointwiseFrameData):
        return FrameConnection(source.values, ())
    if isinstance(source, ConnectionForms):
        cube = [[[0] * 5 for _ in range(5)] for _ in range(5)]
        chans = {}
        for i in range(5):
            for j in range(5):
                f = source.omega[i][j]
                for (sid,), coef in f.terms.items():
                    if isinstance(coef, TrigScalar):
                        raise UnsupportedSymbolError("trig-valued connection entries are out of scope")
                    if sid in METRIC_IDS:
                        cube[i][j][sid] = coef
                    else:
                        chans.setdefault(sid, [[0] * 5 for _ in range(5)])
                        chans[sid][i][j] = coef
        base = tuple(tuple(tuple(r) for r in m) for m in cube)
        channels = tuple(
            (sid, tuple(tuple(r) for r in mat)) for sid, mat in sorted(chans.items())
        )
        return FrameConnection(base, channels, source)
    raise TypeError(f"cannot build frame connection from {source!r}")


def _mu(matrix):
    """Action of a so(5) element on the fundamental form:
    mu(C)(a, b) = sum_i C[i][a] Phi(i, b) - C[i][b] Phi(i, a).

    At most two signed reads per entry; the entry starts from the zero of
    columns a and b of C together, 0.0 when either holds a float (the full
    sum's products with phi's zeros are floats there).
    """
    zeros = [ZERO[table_kind(row[a] for row in matrix)] for a in range(5)]
    out = []
    for a in range(5):
        row = []
        for b in range(5):
            acc = zeros[a] + zeros[b]
            (ua, sa), (ub, sb) = PHI_COL[a], PHI_COL[b]
            row.append(_signed_add(_signed_add(acc, sb, matrix[ub][a]), -sa, matrix[ua][b]))
        out.append(tuple(row))
    return tuple(out)


def _require_channels_vanish(fc: FrameConnection, what, residue):
    """Raise unless residue(mat), an iterable of scalars, vanishes on every auxiliary channel."""
    for sid, mat in fc.channels:
        if not all(sis_zero(v) for v in residue(mat)):
            raise SymbolicResidueError(f"auxiliary symbol id {sid} leaves a residue in {what}")


# -- base-path tensors -------------------------------------------------------


def nabla_xi_matrix(fc: FrameConnection):
    """NX[k][a] = g(nabla_{e_k} xi, e_a)."""
    _require_channels_vanish(fc, "nabla xi", lambda mat: mat[XI])
    w = fc.base
    return tuple(tuple(w[XI][a][k] for a in range(5)) for k in range(5))


def d_eta_form(fc: FrameConnection) -> Form:
    nx = derived(fc, nabla_xi_matrix)
    return grid_form(lambda a, b: nx[a][b] - nx[b][a])


def xi_is_killing(fc: FrameConnection):
    nx = derived(fc, nabla_xi_matrix)
    return all(sis_zero(nx[a][b] + nx[b][a]) for a in range(5) for b in range(5))


def nabla_phi(source) -> Tensor3:
    """(nabla_X Phi)(Y, Z) from connection values; the stabilizer part of the
    connection drops out, and auxiliary channels are required to cancel.

    Computed from the full connection 2-forms and, independently, from
    their projection to the complement of the stabilizer; both paths must
    agree by equivariance and are asserted equal.
    """
    fc = frame_connection(source)
    _require_channels_vanish(fc, "nabla Phi", lambda mat: (v for r in _mu(mat) for v in r))
    full = np_full(fc.base)
    if not (full - np_gamma(derived(fc, complement_forms))).is_zero():
        raise ACM5Error("internal consistency: the two derivative paths disagree")
    return full


def np_full(w) -> Tensor3:
    """(nabla_{e_k} Phi)(e_a, e_b) = mu(w(e_k))(a, b) from the base values w[i][j][k]."""
    return Tensor3(
        tuple(_mu([[w[i][a][k] for a in range(5)] for i in range(5)]) for k in range(5))
    )


def complement_forms(fc: FrameConnection) -> tuple:
    """The projections of the five 2-forms w(e_k) to the complement of the
    stabilizer: the intrinsic torsion, and the second path of nabla Phi."""
    w = fc.base
    return tuple(project_u2_complement(grid_form(lambda i, j: w[i][j][k])) for k in range(5))


def np_gamma(gammas) -> Tensor3:
    """The same contraction on the projections gammas[k] of each w(e_k) to the
    complement of the stabilizer, each read once as a dense 5x5 table."""
    return Tensor3(tuple(_mu(dense2(g)) for g in gammas))


def d_phi_tensor(np: Tensor3) -> Tensor3:
    v = np.values
    return t3_from_func(lambda a, b, c: v[a][b][c] - v[b][a][c] + v[c][a][b])


def nijenhuis(source) -> Tensor3:
    """Nijenhuis tensor, computed through the derivative of the fundamental
    form and cross-checked against the covariant commutator expression."""
    fc = frame_connection(source)
    np = derived(fc, nabla_phi).values
    first = n_via_np(np)
    second = n_cov(np, derived(fc, d_eta_form))
    if not (first - second).is_zero():
        raise ACM5Error("internal consistency: Nijenhuis expressions disagree")
    return first


def n_via_np(np) -> Tensor3:
    """N from nabla Phi, np[k][a][b] = (nabla_{e_k} Phi)(e_a, e_b), terms by ascending u."""

    def entry(x, y, z):
        acc = 0
        for u, c, s in PHI_ENTRIES:
            if c == y:
                acc = _signed_add(acc, s, np[u][x][z])
            if c == z:
                acc = _signed_add(acc, -s, np[u][x][y])
            if c == x:
                acc = _signed_add(acc, s, np[y][u][z] - np[z][u][y])
        if x == XI:
            for u, c, s in PHI_ENTRIES:
                if c == z:
                    acc = _signed_add(acc, s, np[y][XI][u])
                if c == y:
                    acc = _signed_add(acc, -s, np[z][XI][u])
        return acc

    return t3_from_func(entry)


def n_cov(np, deta: Form) -> Tensor3:
    """N as g(X, [phi, phi](Y, Z)) + eta(X) d eta(Y, Z), where component c of
    (nabla_{e_a} phi)(e_b) is np[a][c][b]."""
    de = dense2(deta)

    def entry(x, y, z):
        acc = 0
        for u, c, s in PHI_ENTRIES:
            if c == y:
                acc = _signed_add(acc, s, np[u][x][z])
            if c == z:
                acc = _signed_add(acc, -s, np[u][x][y])
        # + g(x, phi((nabla_Z phi)(Y) - (nabla_Y phi)(Z))), with PHI_MAT[x][u] = -PHI_MAT[u][x]
        u, s = PHI_COL[x]
        acc = _signed_add(acc, -s, np[z][u][y] - np[y][u][z])
        if x == XI:
            acc += de[y][z]
        return acc

    return t3_from_func(entry)


def gamma_form(source) -> Form:
    """The 2-form gamma(X, Y) = dPhi(xi, phi X, Y) = N(phi X, phi Y, xi).

    Defined on generalized quasi-Sasaki structures; both expressions are
    evaluated and must agree.
    """
    fc = frame_connection(source)
    if not derived(fc, predicates).generalized_quasi_sasaki:
        raise NotGeneralizedQuasiSasakiError("structure is not generalized quasi-Sasaki")
    np = derived(fc, nabla_phi)
    dphi = d_phi_tensor(np).values
    nij = derived(fc, nijenhuis).values

    def entry(x, y):
        (u, s), (w, t) = PHI_COL[x], PHI_COL[y]
        v1 = _signed_add(0, s, dphi[XI][u][y])
        v2 = _signed_add(0, s * t, nij[u][w][XI])
        if not sis_zero(v1 - v2):
            raise NotGeneralizedQuasiSasakiError("gamma expressions disagree")
        return v1

    return grid_form(entry)


def _derivation(alpha: Form, entry) -> Form:
    """The so(5) element with entries entry(s, j) acting on a metric-symbol
    form as a derivation: each monomial slot s becomes sum_j entry(s, j) e_j."""
    out = {}
    for idx, coef in alpha.terms.items():
        for pos, sym in enumerate(idx):
            for j in range(5):
                v = entry(sym, j)
                if is_exact_zero(v) or (j != sym and j in idx):
                    continue
                new = list(idx)
                new[pos] = j
                mono = tuple(sorted(new))
                out[mono] = out.get(mono, 0) + coef * (perm_sign(new) * v)
    return stored(alpha.degree, out)


def covariant_derivative_form(fc: FrameConnection, alpha: Form, k: int) -> Form:
    """(nabla_{e_k} alpha) for a metric-symbol form, from the base values:
    the derivation with entries w[s][j](e_k)."""
    w = fc.base
    return _derivation(alpha, lambda s, j: w[s][j][k])


def codifferential(alpha: Form, source) -> Form:
    """delta alpha = - sum_i e_i . nabla_{e_i} alpha."""
    if any(i not in METRIC_IDS for i in alpha.symbols_used()):
        raise UnsupportedSymbolError("codifferential needs a metric-symbol form")
    if alpha.degree == 0:
        return zero_form(0)
    fc = frame_connection(source)
    for sid, mat in fc.channels:
        if not _channel_kills_form(mat, alpha):
            raise SymbolicResidueError(
                f"auxiliary symbol id {sid} leaves a residue in the codifferential"
            )
    out = zero_form(alpha.degree - 1)
    for i in range(5):
        na = covariant_derivative_form(fc, alpha, i)
        out = out - interior(i + 1, na)
    return out


def _channel_kills_form(mat, alpha: Form):
    """True when the constant so(5) channel acts trivially on the form."""
    return _derivation(alpha, lambda s, j: mat[s][j]).is_zero()


@dataclass(frozen=True)
class Predicates:
    normal: bool
    semi_cosymplectic: bool
    almost_cosymplectic: bool
    cosymplectic: bool
    quasi_sasaki: bool
    nearly_cosymplectic: bool
    quasi_cosymplectic: bool
    generalized_quasi_sasaki: bool
    xi_killing: bool

    def as_dict(self):
        return asdict(self)


def predicates(source) -> Predicates:
    """All named structure predicates, each from its defining tensor equation."""
    fc = frame_connection(source)
    np = derived(fc, nabla_phi)
    npv = np.values
    nij = derived(fc, nijenhuis)
    nijv = nij.values
    dphi = d_phi_tensor(np)
    dphiv = dphi.values
    deta = derived(fc, d_eta_form)
    killing = derived(fc, xi_is_killing)
    nx = derived(fc, nabla_xi_matrix)

    normal = nij.is_zero()
    delta_eta = 0
    for i in range(5):
        delta_eta -= nx[i][i]
    delta_phi = [0] * 5
    for b in range(5):
        acc = 0
        for i in range(5):
            acc -= npv[i][i][b]
        delta_phi[b] = acc
    semi = sis_zero(delta_eta) and all(sis_zero(v) for v in delta_phi)
    almost = dphi.is_zero() and deta.is_zero()
    nearly = all(
        sis_zero(npv[a][c][b] + npv[b][c][a])
        for a in range(5)
        for b in range(5)
        for c in range(5)
    )

    def quasi_cos_lhs(a, b, c):
        # g((nabla_a phi) e_b, e_c) + g((nabla_{phi a} phi)(phi e_b), e_c)
        (u, s), (w, t) = PHI_COL[a], PHI_COL[b]
        return _signed_add(npv[a][c][b], s * t, npv[u][c][w])

    def quasi_cos_rhs(a, b, c):
        u, s = PHI_COL[a]
        return _signed_add(0, s, nx[u][c]) if b == XI else 0

    quasi_cos = all(
        sis_zero(quasi_cos_lhs(a, b, c) - quasi_cos_rhs(a, b, c))
        for a in range(5)
        for b in range(5)
        for c in range(5)
    )

    horiz = range(4)
    gqs = (
        killing
        and all(
            sis_zero(nijv[x][y][z]) and sis_zero(dphiv[x][y][z])
            for x in horiz
            for y in horiz
            for z in horiz
        )
    )
    almost_and_normal = normal and almost
    quasi = normal and dphi.is_zero()
    return Predicates(
        normal=normal,
        semi_cosymplectic=semi,
        almost_cosymplectic=almost,
        cosymplectic=almost_and_normal,
        quasi_sasaki=quasi,
        nearly_cosymplectic=nearly,
        quasi_cosymplectic=quasi_cos,
        generalized_quasi_sasaki=gqs,
        xi_killing=killing,
    )
