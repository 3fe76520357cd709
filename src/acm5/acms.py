"""The adapted almost contact metric structure and its first-order invariants.

The frame is adapted: the fundamental 2-form is e1^e2 + e3^e4, the Reeb
form is e5, and the endomorphism is fixed by phi(e1) = -e2, phi(e2) = e1,
phi(e3) = -e4, phi(e4) = e3, phi(e5) = 0, which is the unique choice with
Phi(X, Y) = g(X, phi(Y)).

phi is a signed permutation of e1..e4 and zero on e5, so every sum over
PHI_MAT has at most one nonzero term per slot.  ``PHI_ENTRIES`` lists the
nonzero entries PHI_MAT[u][b] = s as (u, b, s) by ascending u, and
``PHI_COL[b]`` is the (u, s) of column b, with s = 0 for the Reeb column;
both are read from PHI_MAT once.  Each fixed-shape kernel is an index plan,
built once at import by the loops of its formula: per output entry, a start
slot and a short tuple of terms, each a sign and one slot of a flat view
(the operands' values in row-major order, ``Tensor3.flat``) or two for a
difference.  One routine, ``contract``, runs every plan, so a kernel never
multiplies by a zero or a unit of phi.  An entry starts where its formula
starts, because ``0 + -0.0`` is ``0.0``: from an int 0 slot, from its first
read, or, in ``_mu``, from the zero of its two columns, ``0.0`` where the
full sum would have multiplied a float by one of phi's zeros.  Inner
products start from the int 0 and divide through ``scalars.div`` or
``div_const``.  So at the integer scale of ``cli.classification_report``
every exact entry is an int.  The complement projection is a plan too; its
result is a flat torsion view (``complement_view``): per direction, the 8
values on COMPLEMENT_MONOMIALS (0,2), (1,3), (0,3), (1,2), (0,4), (1,4),
(2,4), (3,4), each summed as the projection of the 2-form sums it, so a
float keeps its bits (``torsionclass`` states the order rule).

Everything here is pointwise multilinear algebra driven by the connection's
view, the blocks M_s[i][j] = w[i][j](E_s) of ``frames.ConnectionForms``: its
first 125 values are the metric blocks, w[i][j](e_k) at slot at(k, i, j), read
by the index plans as a trilinear tensor antisymmetric in its last two slots.
The block of an auxiliary symbol tracks its (unknown) frame value linearly;
operations that must produce numbers verify that every auxiliary block cancels
and raise SymbolicResidueError otherwise.

Memo rule: read the invariants of one structure (the torsion view of the
w(e_k), nabla Phi, N, dPhi, d eta, gamma, the predicates) through
``derived``, so each, with its cross-check, is computed once per
``frames.ConnectionForms``: the memo lives as long as that object, and every
reader of it shares the memo.  A direct call always computes, and nothing is
kept across objects.
"""

from __future__ import annotations

import operator
from itertools import chain, product
from typing import NamedTuple

from .errors import (
    ACM5Error, NotGeneralizedQuasiSasakiError, SymbolicResidueError, UnsupportedSymbolError,
)
from .exterior import (
    METRIC_IDS, F, Z1, Z2, Form, View, dense2, dense3, form, grid_form, hodge, stored,
)
from .frames import ConnectionForms, at
from .scalars import EXACT, ZERO, div_const, sis_zero, table_kind

XI = 4  # 0-based id of the Reeb direction e5

PHI = form(2, {(0, 1): 1, (2, 3): 1})
ETA = form(1, {(4,): 1})
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


PAIRS = tuple((i, j) for i in range(5) for j in range(i + 1, 5))  # the monomials of a 2-form


def plan(entry, rank=3):
    """The index plan of a kernel: entry(*p) for each position p of a rank-``rank``
    grid over range(5), row-major.  An entry is (start slot, terms); a term is
    (sign, slot, None) for a signed read or (sign, slot, slot2) for a signed
    difference of two reads."""
    return tuple(entry(*p) for p in product(range(5), repeat=rank))


def contract(plan, view):
    """Run an index plan over a flat view, yielding its entries in order: each
    starts from the value at its start slot and adds or subtracts its terms in
    order.  A zero test over the entries stops at the first that fails."""
    for start, terms in plan:
        acc = view[start]
        for s, i, j in terms:
            v = view[i] if j is None else view[i] - view[j]
            acc = acc + v if s > 0 else acc - v
        yield acc


# orthogonal bases of the four 2-form types: 1 the span of the fundamental form, 2 the primitive
# phi-anti-invariant forms, 3 the rest of the stabilizer algebra, 4 the forms with a Reeb leg
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


# the complement of the stabilizer: each basis 2-form (Z1, Z2, the Reeb legs) with its squared norm
COMPLEMENT_FRAME = tuple((b, inner_form(b, b)) for b in LAMBDA2_BASES[2] + LAMBDA2_BASES[4])
COMPLEMENT_MONOMIALS = tuple(idx for b, _ in COMPLEMENT_FRAME for idx in b.terms)  # view slot order


# per direction k, the inner product of the first-slot 2-form beta(e_i, e_j) at slot at(k, i, j)
# with each basis form of COMPLEMENT_FRAME, from the int 0 that ``complement_view`` appends
T_COMPLEMENT = tuple((-1, tuple((s, at(k, i, j), None) for (i, j), s in b.terms.items()))
                     for k in range(5) for b, _ in COMPLEMENT_FRAME)


def complement_view(plan, flat):
    """The flat torsion view (8 values per direction on COMPLEMENT_MONOMIALS) of
    the projection to the complement of the stabilizer of the 2-forms, one per
    direction, that ``plan`` reads off the values ``flat``: the projections onto
    the types 2 and 4 as a coordinate map, (beta_02 - beta_13)/2 on Z1,
    (beta_03 + beta_12)/2 on Z2, each Reeb leg beta_i4.  Each value is 0 plus
    the product the general projection adds, so a float keeps its bits (0.0 +
    -0.0 is 0.0), an integral value is an int and an exact zero the int 0."""
    view = []
    for total, (b, norm) in zip(contract(plan, flat + (0,)), COMPLEMENT_FRAME * 5):
        coef = div_const(total, norm)
        view += [0 + s * coef for s in b.terms.values()]
    return tuple(view)


def phi_pullback(beta: Form) -> Form:
    """The 2-form (X, Y) -> beta(phi X, phi Y)."""
    _require_metric_2form(beta)
    return stored(2, dict(zip(PAIRS, contract(PULLBACK, (*chain(*dense2(beta)), 0)))))


def _pullback_entry(a, b):
    """beta(phi e_a, phi e_b) from the int 0 in slot 25 after beta's 5x5 table."""
    (u, s), (w, t) = PHI_COL[a], PHI_COL[b]
    return 25, ((s * t, 5 * u + w, None),) * (s * t != 0)


PULLBACK = tuple(_pullback_entry(a, b) for a, b in PAIRS)


# ---------------------------------------------------------------------------
# trilinear tensors on the frame, 125 values by slot at(i, j, k): the derivative tensors, a
# connection's metric blocks, the difference tensor and the torsion, each antisymmetric in its
# last two slots; T(e_x, e_y, e_z) sits at slot at(z, x, y), so block z is the 2-form T(., ., e_z)


class Tensor3(View):
    _shape = (125,), "a Tensor3 holds its 125 values in slot order"

    def _zip(self, other, op):
        return Tensor3(tuple(map(op, self.flat, other.flat)))

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def is_totally_skew(self):
        return all(map(sis_zero, chain(contract(SYM_23, self.flat), contract(SYM_12, self.flat))))

    def component_form(self, i):
        """The 2-form of the (1-based) first-slot direction i."""
        return grid_form(lambda a, b: self.flat[at(i - 1, a, b)])


# v[i][j][k] + v[i][k][j] and v[i][j][k] + v[j][i][k]: zero where v is antisymmetric in those slots
SYM_23 = plan(lambda i, j, k: (at(i, j, k), ((1, at(i, k, j), None),)))
SYM_12 = plan(lambda i, j, k: (at(i, j, k), ((1, at(j, i, k), None),)))


def t3_from_form3(rho: Form) -> Tensor3:
    return Tensor3(tuple(chain.from_iterable(chain.from_iterable(dense3(rho)))))


def theta(beta: Form) -> Tensor3:
    """The totally skew tensor carrying the star of a 2-form."""
    _require_metric_2form(beta)
    return t3_from_form3(hodge(beta))


def vartheta(beta: Form) -> Tensor3:
    """3 eta (x) beta minus the star of beta, as a trilinear tensor."""
    _require_metric_2form(beta)
    eta_beta = [0] * 100 + [3 * v for r in dense2(beta) for v in r]  # the first slot is XI = 4
    return Tensor3(tuple(eta_beta)) - theta(beta)


# ---------------------------------------------------------------------------
# connections: the blocks M_s[i][j] = w[i][j](E_s) at slot at(s, i, j) of a flat view, one
# per symbol; an auxiliary symbol's block tracks its (unknown) frame values linearly


def derived(fc: ConnectionForms, fn):
    """fn(fc), computed once per connection object."""
    key = fn.__name__
    if key not in fc._memo:
        fc._memo[key] = fn(fc)
    return fc._memo[key]


def frame_connection(source) -> ConnectionForms:
    """ConnectionForms as they are, or the connection of free pointwise values w[i][j](e_k)
    given as a Tensor3 at slot at(i, j, k) (no integrability implied), transposed to the
    view's at(k, i, j), which ``ConnectionForms`` checks."""
    if isinstance(source, ConnectionForms):
        return source
    if isinstance(source, Tensor3):
        flat = source.flat
        return ConnectionForms(tuple(flat[at(i, j, k)] for k, i, j in product(range(5), repeat=3)))
    raise TypeError(f"cannot build frame connection from {source!r}")


def _mu_entry(k, a, b):
    """Entry (a, b) of mu(C_k); block k of the view is C_k by rows, then its column zeros."""
    o = 30 * k
    (ua, sa), (ub, sb) = PHI_COL[a], PHI_COL[b]
    terms = ((1, o + 25 + b, None),) + ((sb, o + 5 * ub + a, None),) * (sb != 0)
    return o + 25 + a, terms + ((-sa, o + 5 * ua + b, None),) * (sa != 0)


MU = plan(_mu_entry)


def _mu(mats):
    """Action of so(5) elements on the fundamental form, 25 values for each 5x5
    matrix C given by rows: mu(C)(a, b) = sum_i C[i][a] Phi(i, b) - C[i][b] Phi(i, a).

    At most two signed reads per entry; the entry starts from the zero of
    columns a and b of C together, 0.0 when either holds a float (the full
    sum's products with phi's zeros are floats there).  The kind is asked
    once for all matrices, and per column only when they hold a float."""
    exact = table_kind(chain.from_iterable(mats)) == EXACT
    view = []
    for m in mats:
        view += m
        view += [0] * 5 if exact else [ZERO[table_kind(m[a::5])] for a in range(5)]
    return contract(MU[: 25 * len(mats)], view)


def require_aux_vanish(fc: ConnectionForms, what, residue):
    """Raise "auxiliary symbol id s <what>" unless residue(M_s), an iterable of scalars,
    vanishes on the block M_s (25 values by rows) of every auxiliary symbol s."""
    view = fc.flat
    for sid in range(5, len(view) // 25):
        if not all(sis_zero(v) for v in residue(view[25 * sid : 25 * sid + 25])):
            raise SymbolicResidueError(f"auxiliary symbol id {sid} {what}")


# -- base-path tensors -------------------------------------------------------


def nabla_xi_matrix(fc: ConnectionForms):
    """NX[k][a] = g(nabla_{e_k} xi, e_a)."""
    require_aux_vanish(fc, "leaves a residue in nabla xi", lambda m: m[5 * XI : 5 * XI + 5])
    return tuple(fc.flat[at(k, XI, 0) : at(k, XI, 5)] for k in range(5))


def d_eta_form(fc: ConnectionForms) -> Form:
    nx = derived(fc, nabla_xi_matrix)
    return grid_form(lambda a, b: nx[a][b] - nx[b][a])


def xi_is_killing(fc: ConnectionForms):
    nx = derived(fc, nabla_xi_matrix)
    return all(sis_zero(nx[a][b] + nx[b][a]) for a in range(5) for b in range(5))


def nabla_phi(source) -> Tensor3:
    """(nabla_X Phi)(Y, Z) from connection values; the stabilizer part of the
    connection drops out, and auxiliary blocks are required to cancel.

    Computed from the full connection 2-forms and, independently, from
    their projection to the complement of the stabilizer; both paths must
    agree by equivariance and are asserted equal.
    """
    fc = frame_connection(source)
    require_aux_vanish(fc, "leaves a residue in nabla Phi", lambda m: _mu([m]))
    full = np_full(fc.flat)
    if not (full - np_gamma(derived(fc, torsion_view))).is_zero():
        raise ACM5Error("internal consistency: the two derivative paths disagree")
    return full


def np_full(w) -> Tensor3:
    """(nabla_{e_k} Phi)(e_a, e_b) = mu(M_k)(a, b) from the metric blocks M_k of a view."""
    return Tensor3(tuple(_mu([w[25 * k : 25 * k + 25] for k in range(5)])))


def torsion_view(fc: ConnectionForms) -> tuple:
    """The torsion view of the projections of the five 2-forms w(e_k) to the
    complement of the stabilizer: the intrinsic torsion, and the second path of
    nabla Phi."""
    return complement_view(T_COMPLEMENT, fc.flat)


def np_gamma(view) -> Tensor3:
    """The same contraction on a torsion view, each direction read as the 5x5
    table that ``dense2`` fills from its 2-form: c at (i, j), -c at (j, i)."""
    mats = [[0] * 25 for _ in range(5)]
    for k, m in enumerate(mats):
        for (i, j), v in zip(COMPLEMENT_MONOMIALS, view[8 * k : 8 * k + 8]):
            m[5 * i + j], m[5 * j + i] = v, -v
    return Tensor3(tuple(_mu(mats)))


def d_phi_tensor(np: Tensor3) -> Tensor3:
    return Tensor3(tuple(contract(D_PHI, np.flat)))


def d_phi(fc: ConnectionForms) -> Tensor3:
    """dPhi of the structure, from its nabla Phi."""
    return d_phi_tensor(derived(fc, nabla_phi))


D_PHI = plan(lambda a, b, c: (at(a, b, c), ((-1, at(b, a, c), None), (1, at(c, a, b), None))))


def nijenhuis(source) -> Tensor3:
    """Nijenhuis tensor, computed through the derivative of the fundamental
    form and cross-checked against the covariant commutator expression."""
    fc = frame_connection(source)
    np = derived(fc, nabla_phi)
    first = n_via_np(np)
    second = n_cov(np, derived(fc, d_eta_form))
    if not (first - second).is_zero():
        raise ACM5Error("internal consistency: Nijenhuis expressions disagree")
    return first


def _n_entry(x, y, z, cov):
    """Entry (x, y, z) of n_cov if cov, else of n_via_np; both read phi e_y, phi e_z first."""
    terms = []
    for u, c, s in PHI_ENTRIES:
        if c == y:
            terms.append((s, at(u, x, z), None))
        if c == z:
            terms.append((-s, at(u, x, y), None))
        if c == x and not cov:
            terms.append((s, at(y, u, z), at(z, u, y)))
    if cov:
        # + g(x, phi((nabla_Z phi)(Y) - (nabla_Y phi)(Z))), with PHI_MAT[x][u] = -PHI_MAT[u][x]
        u, s = PHI_COL[x]
        terms += [(-s, at(z, u, y), at(y, u, z))] * (s != 0)
        terms += [(1, 125 + 5 * y + z, None)] * (x == XI)  # d eta(y, z) follows np in the view
        return 150, tuple(terms)
    for u, c, s in PHI_ENTRIES if x == XI else ():
        if c == z:
            terms.append((s, at(y, XI, u), None))
        if c == y:
            terms.append((-s, at(z, XI, u), None))
    return 125, tuple(terms)  # slot 125 holds the int 0


N_VIA_NP, N_COV = (plan(lambda x, y, z: _n_entry(x, y, z, cov)) for cov in (False, True))


def n_via_np(np: Tensor3) -> Tensor3:
    """N from nabla Phi, np[k][a][b] = (nabla_{e_k} Phi)(e_a, e_b), terms by ascending u."""
    return Tensor3(tuple(contract(N_VIA_NP, np.flat + (0,))))


def n_cov(np: Tensor3, deta: Form) -> Tensor3:
    """N as g(X, [phi, phi](Y, Z)) + eta(X) d eta(Y, Z), where component c of
    (nabla_{e_a} phi)(e_b) is np[a][c][b]."""
    return Tensor3(tuple(contract(N_COV, np.flat + tuple(chain(*dense2(deta))) + (0,))))


def gamma_form(source) -> Form:
    """The 2-form gamma(X, Y) = dPhi(xi, phi X, Y) = N(phi X, phi Y, xi).

    Defined on generalized quasi-Sasaki structures; both expressions are
    evaluated and must agree.
    """
    fc = frame_connection(source)
    if not derived(fc, predicates).generalized_quasi_sasaki:
        raise NotGeneralizedQuasiSasakiError("structure is not generalized quasi-Sasaki")
    dphi = derived(fc, d_phi)
    vals = tuple(contract(GAMMA, dphi.flat + derived(fc, nijenhuis).flat + (0,)))
    if not all(map(sis_zero, map(operator.sub, vals[:10], vals[10:]))):
        raise NotGeneralizedQuasiSasakiError("gamma expressions disagree")
    return stored(2, dict(zip(PAIRS, vals)))


def _gamma_entry(x, y, via_d_phi):
    """dPhi(xi, phi x, y), or N(phi x, phi y, xi), from the int 0 after dPhi and N in the view."""
    (u, s), (w, t) = PHI_COL[x], PHI_COL[y]
    term = (s, at(XI, u, y), None) if via_d_phi else (s * t, 125 + at(u, w, XI), None)
    return 250, (term,) * (term[0] != 0)


GAMMA = tuple(_gamma_entry(x, y, via) for via in (True, False) for x, y in PAIRS)


class Predicates(NamedTuple):
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
        return self._asdict()


def _quasi_cos_entry(a, b, c):
    """g((nabla_a phi) e_b, e_c) + g((nabla_{phi a} phi)(phi e_b), e_c), minus g(phi e_a,
    nabla_c xi) when e_b is the Reeb vector (nabla xi follows np in the view); zero-tested only."""
    (u, s), (w, t) = PHI_COL[a], PHI_COL[b]
    terms = ((s * t, at(u, c, w), None),) * (s * t != 0)
    return at(a, c, b), terms + ((-s, 125 + 5 * u + c, None),) * (b == XI and s != 0)


# (a, b, c) and (b, a, c) are the same sum, so each unordered pair is tested once
NEARLY = tuple((at(a, c, b), ((1, at(b, c, a), None),))
               for a, b, c in product(range(5), repeat=3) if a <= b)
QUASI_COS = plan(_quasi_cos_entry)
DELTA_PHI = plan(lambda b: (125, tuple((-1, at(i, i, b), None) for i in range(5))), rank=1)
HORIZONTAL = tuple((at(x, y, z), ()) for x, y, z in product(range(4), repeat=3))


def predicates(source) -> Predicates:
    """All named structure predicates, each from its defining tensor equation."""
    fc = frame_connection(source)
    np = derived(fc, nabla_phi)
    nij = derived(fc, nijenhuis)
    dphi = derived(fc, d_phi)
    deta = derived(fc, d_eta_form)
    killing = derived(fc, xi_is_killing)
    nx = derived(fc, nabla_xi_matrix)

    def vanishes(plan, view):
        return all(map(sis_zero, contract(plan, view)))

    normal = nij.is_zero()
    delta_eta = 0
    for i in range(5):
        delta_eta -= nx[i][i]
    semi = sis_zero(delta_eta) and vanishes(DELTA_PHI, np.flat + (0,))
    almost = dphi.is_zero() and deta.is_zero()
    nearly = vanishes(NEARLY, np.flat)
    quasi_cos = vanishes(QUASI_COS, np.flat + tuple(chain(*nx)))
    gqs = killing and vanishes(HORIZONTAL, nij.flat) and vanishes(HORIZONTAL, dphi.flat)
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
