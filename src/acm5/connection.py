"""The compatible metric connection, its torsion type, curvature and spinors.

On a generalized quasi-Sasaki structure there is exactly one metric
connection parallelizing the Reeb vector, its dual form and the
endomorphism.  Its difference tensor relative to Levi-Civita is

    A(X, Y, Z) = 1/2 { ((d eta - gamma) ^ eta)(X, Y, Z) - N(X, Y, Z) },

and the torsion T(X, Y, Z) = A(X, Y, Z) - A(Y, X, Z) is its antisymmetrization
in the first two slots.  The 1/2 goes through ``scalars.div_const``, so an
integral entry of A is an ``int`` and the torsion and its Cartan parts add ints.
A connection's view is its blocks M_s[i][j] = w[i][j](E_s), one per coframe
symbol, so A(e_k, e_i, e_j) sits at the slot of w[i][j](e_k): the compatible
connection's view is the Levi-Civita view plus the difference tensor, slot by
slot.  The torsion is held in the same layout, T(e_x, e_y, e_z) at slot
at(z, x, y), antisymmetric in its last two slots like every tensor here, and
``torsionclass.cartan_decompose`` splits it as it stands.  Curvature reads the blocks:
R(E_a, E_b) = sum_s de_s(E_a, E_b) M_s + [M_a, M_b]
for a < b, each entry summed from the int 0 over s in id order, then over k with
M_a[i][k] M_b[k][j] - M_b[i][k] M_a[k][j] one step: the order of the Form chain
d w[i][j] + sum_k w[i][k] ^ w[k][j], so a float keeps its bits.  Ricci, the
holonomy algebra (their bracket closure) and the checks that the auxiliary symbols
cancel and that R[j][i] = -R[i][j] read these tables; the 25 forms R[i][j] are printed.
Spinors live on C^4 = R^8, where every Clifford generator of Cl(5) is a signed
permutation (Spin(5) = Sp(2) acts on H^2 = R^8), stored as a table of one
(column, sign) pair per row the way ``acms.PHI_ENTRIES`` stores phi; the spin
lift reads the same matrices.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations, product
from typing import NamedTuple

from . import linalg
from .acms import (
    ETA, PAIRS, F, Tensor3, at, contract, d_eta_form, derived, frame_connection, gamma_form,
    nabla_phi, nabla_xi_matrix, nijenhuis, plan, predicates, t3_from_form3,
)
from .errors import (
    ACM5Error, ModeMismatchError, NotGeneralizedQuasiSasakiError, SymbolicResidueError,
    UnsupportedSymbolError,
)
from .exterior import METRIC_IDS, CoframeData, Form, Frozen, grid_form, stored, wedge
from .frames import ConnectionForms
from .scalars import div, div_const, narrow, sis_zero, table_kind
from .torsionclass import cartan_decompose


class CharacteristicConnection(NamedTuple):
    omega_c: ConnectionForms
    a_c: Tensor3  # difference tensor, A(e_k, e_i, e_j) at slot at(k, i, j)
    torsion: Tensor3  # T(e_x, e_y, e_z) at slot at(z, x, y): last-two antisymmetric, as a_c
    compatibility: CompatibilityReport  # its defining check, run once on construction


def characteristic_connection(omega_g):
    """Construct the unique compatible metric connection and verify
    componentwise that it parallelizes xi, eta and phi.  omega_g is the
    Levi-Civita ConnectionForms, whose memo the invariants are read through,
    or their pointwise values as a Tensor3."""
    fc = frame_connection(omega_g)
    if not derived(fc, predicates).generalized_quasi_sasaki:
        raise NotGeneralizedQuasiSasakiError(
            "no compatible connection: structure is not generalized quasi-Sasaki"
        )
    nij = derived(fc, nijenhuis)
    deta = derived(fc, d_eta_form)
    gamma = derived(fc, gamma_form)
    corr = t3_from_form3(wedge(deta - gamma, ETA)) - nij
    a_c = Tensor3(tuple(div_const(v, 2) for v in corr.flat))
    omega_c = connection_plus_tensor(fc, a_c)
    report = compatibility_report(omega_c)
    if not report.ok:
        failed = "; ".join(report.failures)
        raise ACM5Error(f"internal consistency: the compatible connection fails {failed}")
    torsion = Tensor3(tuple(contract(TORSION, a_c.flat)))
    return CharacteristicConnection(omega_c, a_c, torsion, report)


# T(x, y, z) = A(x, y, z) - A(y, x, z), at slot at(z, x, y)
TORSION = plan(lambda z, x, y: (at(x, y, z), ((-1, at(y, x, z), None),)))


def connection_plus_tensor(omega: ConnectionForms, a: Tensor3) -> ConnectionForms:
    """w[i][j] + (the 1-form X -> a(X, e_i, e_j)) as a checked view: w[i][j](e_k) plus
    a(e_k, e_i, e_j), both at slot at(k, i, j), and the same auxiliary blocks."""
    view = omega.flat
    return ConnectionForms(tuple(narrow(w + x) for w, x in zip(view, a.flat)) + view[125:])


class CompatibilityReport(NamedTuple):
    nabla_xi_zero: bool
    nabla_eta_zero: bool
    nabla_phi_zero: bool
    failures: tuple = ()  # each failed condition, named with its nonzero slots

    @property
    def ok(self):
        return self.nabla_xi_zero and self.nabla_eta_zero and self.nabla_phi_zero


def compatibility_report(omega: ConnectionForms) -> CompatibilityReport:
    """Componentwise check of nabla xi = nabla eta (the same frame values) = nabla phi = 0;
    a failed condition is named with its nonzero slots, 1-based, or its residue."""
    fc = frame_connection(omega)
    xi = _failure("nabla xi = 0", "g(nabla_ek xi, ea)", lambda: chain(*nabla_xi_matrix(fc)), 2)
    phi = _failure("nabla Phi = 0", "(nabla_ek Phi)(ea, eb)", lambda: nabla_phi(fc).flat, 3)
    return CompatibilityReport(not xi, not xi, not phi, tuple(f for f in (xi, phi) if f))


def _failure(name, entry, values, rank):
    """None when every value that values() yields is zero; else the condition
    named with the 1-based slots of its nonzero values, or with its residue."""
    try:
        values = tuple(values())
    except SymbolicResidueError as exc:
        return f"{name}: {exc}"
    if not all(map(sis_zero, values)):
        bad = [p for p, v in zip(product(range(1, 6), repeat=rank), values) if not sis_zero(v)]
        return f"{name}: {entry} is nonzero at {', '.join(map(str, bad))}"


def torsion_type(cc: CharacteristicConnection):
    """Cartan decomposition of the torsion, in its layout, plus a type tag."""
    parts = cartan_decompose(cc.torsion)
    zero = parts.vectorial.is_zero(), parts.skew.is_zero(), parts.cyclic.is_zero()
    return parts, TORSION_TAGS.get(zero, "mixed")


# the type of a torsion by which of its vectorial, skew and cyclic parts vanish
TORSION_TAGS = {(True, True, True): "zero", (True, False, True): "skew",
                (True, True, False): "traceless-cyclic"}


# ---------------------------------------------------------------------------
# curvature


class CurvatureData(NamedTuple):
    curvature: tuple  # 5x5 matrix of 2-forms R[i][j]
    ricci: tuple  # 5x5 scalars
    holonomy_basis: tuple  # 2-forms spanning the bracket closure


def curvature(c: CoframeData, omega: ConnectionForms) -> CurvatureData:
    """R[i][j] = d w[i][j] + sum_k w[i][k] ^ w[k][j], Ricci and holonomy from the matrices
    R(E_a, E_b); auxiliary symbols must cancel, and a coframe and a connection of two kinds
    raise ModeMismatchError.  Ric(X, Y) = sum_i R[i][Y](X, e_i)."""
    if not c.d_squared_gate.ok:
        raise ACM5Error("curvature needs an integrable coframe (d^2 = 0)")
    tables = _curvature_tables(c, omega)
    aux = [p for p in tables if p[1] not in METRIC_IDS]
    for i, j in product(range(5), repeat=2):  # the checks of R[i][j], read off the tables
        if any(tables[p][i][j] for p in aux):  # the symbols in R[i][j].symbols_used()'s order
            used = set(chain.from_iterable(p for p, t in tables.items() if t[i][j]))
            raise SymbolicResidueError(f"curvature entry ({i + 1},{j + 1}) keeps auxiliary "
                                       f"symbols {[s for s in used if s not in METRIC_IDS]}")
        # IEEE + commutes, so the sum at (j, i) has the verdict of the sum at (i, j)
        if i <= j and (bad := [p for p, t in tables.items() if not sis_zero(t[i][j] + t[j][i])]):
            bad.sort(key=lambda p: not tables[p][i][j])  # R[i][j]'s monomials first, as in +
            raise ACM5Error("internal consistency: curvature matrix is not antisymmetric: "
                            f"R({i + 1},{j + 1}) + R({j + 1},{i + 1}) is nonzero on "
                            + ", ".join("^".join(map(c.name_of, p)) for p in bad))
    grid = tuple(tuple(stored(2, {p: t[i][j] for p, t in tables.items()}) for j in range(5))
                 for i in range(5))
    zero = [[0] * 5] * 5
    ricci = []
    for a in range(5):  # Ric(e_a, e_b) = sum_i R[i][b](e_a, e_i) = sum_i R(E_a, E_i)[i][b]
        rows = [tables.get((a, i), zero)[i] if a < i else [-v for v in tables.get((i, a), zero)[i]]
                for i in range(5)]
        ricci.append(tuple(_dot((1,) * 5, rows, b) for b in range(5)))
    holonomy = _bracket_closure([t for t in map(tables.get, PAIRS) if t])
    return CurvatureData(grid, tuple(ricci), holonomy)


def _symbol_matrices(omega: ConnectionForms):
    """{s: M_s} for each block of the view, M_s[i][j] = w[i][j](E_s) at 5 i + j, with a
    truthy entry, in id order."""
    view = omega.flat
    blocks = (view[o : o + 25] for o in range(0, len(view), 25))
    return {s: m for s, m in enumerate(blocks) if any(m)}


# (i, j, [i][k], [k][j]) for i, j, k in order, the entries of 5x5 blocks by rows
MATMUL = tuple((i, j, 5 * i + k, 5 * k + j) for i, j, k in product(range(5), repeat=3))


def _curvature_tables(c: CoframeData, omega: ConnectionForms):
    """{(a, b): R(E_a, E_b)} as 5x5 tables for the pairs a < b with a term, a zero the int 0."""
    mats = derived(omega, _symbol_matrices)
    if any(s >= c.n_symbols for s in mats):
        raise UnsupportedSymbolError("form uses symbols outside the coframe")
    terms = [v for f in c.d_table.values() for v in f.terms.values()]
    kinds = table_kind(terms), table_kind(chain.from_iterable(mats.values()))
    if mats and terms and kinds[0] != kinds[1]:  # the kinds of the values that the sums read
        raise ModeMismatchError("curvature mixes a %s coframe with a %s connection" % kinds)
    tables = defaultdict(lambda: [[0] * 5 for _ in range(5)])
    for s, m in mats.items():  # s in id order; a de_s that is zero at the tolerance adds nothing
        if not c.d_table[s].is_zero():
            for (p, v), i, j in product(c.d_table[s].terms.items(), range(5), range(5)):
                tables[p][i][j] += m[5 * i + j] * v
    for (a, ma), (b, mb) in combinations(mats.items(), 2):  # then + [M_a, M_b], k in order
        for i, j, ik, kj in MATMUL:
            if ma[ik] and mb[kj] or mb[ik] and ma[kj]:
                tables[a, b][i][j] += ma[ik] * mb[kj] - mb[ik] * ma[kj]
    return {p: [[0 if sis_zero(x) else narrow(x) for x in row] for row in r]
            for p, r in sorted(tables.items())}


def _commutator(a, b):
    """ab - ba of two 5x5 tables, each entry of a product summed in order from the int 0."""
    return [[_dot(a[i], b, j) - _dot(b[i], a, j) for j in range(5)] for i in range(5)]


def _dot(row, m, j):
    acc = 0
    for k in range(5):
        acc += row[k] * m[k][j]
    return acc


def _bracket_closure(elements):
    """The 2-forms of a basis of the bracket closure of so(5) elements given as 5x5 tables: a
    round takes the elements, then the commutators of the basis, until one adds none.  The
    candidate with the largest reduced entry is stored first, so no multiplier exceeds 1 and a
    small float element's rounding error adds no dimension."""
    rows, candidates, size = [], elements, -1  # (pivot, reduced PAIRS values, table) per element
    while len(rows) > size:  # the last round grew the basis
        size, fresh = len(rows), rows[:]  # fresh: the rows the candidates are not reduced by
        todo = [([m[i][j] for i, j in PAIRS], m) for m in candidates]
        while todo and len(rows) < len(PAIRS):
            for p, row, _ in fresh:  # each candidate meets each stored row once, in order
                todo = [(v if sis_zero(v[p]) else [y - v[p] * r for y, r in zip(v, row)], m)
                        for v, m in todo]
            v, m = todo.pop(max(range(len(todo)), key=lambda t: max(map(abs, todo[t][0]))))
            p = max(range(len(v)), key=lambda q: abs(v[q]))
            if sis_zero(v[p]):  # the largest entry left is zero: no candidate is new
                break
            fresh = [(p, [div(y, v[p]) for y in v], m)]  # stored scaled to 1 at p
            rows += fresh
        candidates = (_commutator(x, y) for (_, _, x), (_, _, y) in combinations(rows, 2))
    return tuple(grid_form(lambda i, j: m[i][j]) for _, _, m in rows)


# ---------------------------------------------------------------------------
# spinors as signed permutations of R^8


# The generators i s1 x 1, i s2 x 1, i s3 x s1, i s3 x s2 and i s3 x s3 of
# Cl(5) on C^4, written on R^8 through z_k = x_{2k} + i x_{2k+1}: row r of a
# table is (c, s) when the row reads s * x_c.
GENERATORS = (
    ((5, -1), (4, 1), (7, -1), (6, 1), (1, -1), (0, 1), (3, -1), (2, 1)),
    ((4, 1), (5, 1), (6, 1), (7, 1), (0, -1), (1, -1), (2, -1), (3, -1)),
    ((3, -1), (2, 1), (1, -1), (0, 1), (7, 1), (6, -1), (5, 1), (4, -1)),
    ((2, 1), (3, 1), (0, -1), (1, -1), (6, -1), (7, -1), (4, 1), (5, 1)),
    ((1, -1), (0, 1), (3, 1), (2, -1), (5, 1), (4, -1), (7, -1), (6, 1)),
)
J = ((1, -1), (0, 1), (3, -1), (2, 1), (5, -1), (4, 1), (7, -1), (6, 1))  # multiplication by i
MINUS_ONE = tuple((r, -1) for r in range(8))


def _compose(g, h):
    """The table of the product g h."""
    return tuple((h[c][0], s * h[c][1]) for c, s in g)


class SpinorSpace(Frozen):
    """Five signed-permutation tables with g_i g_j + g_j g_i = -2 delta_ij,
    and the products g_i g_j for i < j, composed once for that check."""

    generators: tuple
    products: dict  # (i, j) -> g_i g_j
    _compared = ("generators",)

    def __init__(self, generators):
        g = generators
        prod = {(i, j): _compose(g[i], g[j]) for i in range(5) for j in range(5)}
        for (i, j), gij in prod.items():
            if gij != (MINUS_ONE if i == j else tuple((c, -s) for c, s in prod[j, i])):
                raise ACM5Error("Clifford relations fail")
        self.__dict__.update(generators=g, products={k: t for k, t in prod.items() if k[0] < k[1]})

    def action_of_2form(self, beta: Form):
        """Clifford action sum_{i<j} beta_ij g_i g_j as an 8x8 matrix."""
        m = [[0] * 8 for _ in range(8)]
        for (i, j), coef in beta.terms.items():
            if j > 4:
                raise SymbolicResidueError("spinor action needs a metric 2-form")
            for row, (c, s) in zip(m, self.products[i, j]):
                row[c] += s * coef
        return m


@lru_cache(maxsize=1)
def spinor_space() -> SpinorSpace:
    return SpinorSpace(GENERATORS)


class SpinorKernelReport(NamedTuple):
    kernel_basis: tuple
    dimension: int  # complex dimension: half the real one


def spinor_kernel(space: SpinorSpace, f2: Form) -> SpinorKernelReport:
    """Kernel of the Clifford action of a 2-form.  The action is complex
    linear, so the real kernel must be stable under J; that is checked.
    Each basis entry is stored narrowed, so an integral one is an int and
    the residues of ``parallel_spinor_check`` add ints on int connections."""
    m = space.action_of_2form(f2)
    basis = [tuple(map(narrow, v)) for v in linalg.nullspace(m)]
    rows = [[(c, x) for c, x in enumerate(row) if x] for row in m]
    for v in basis:
        turned = [s * v[c] for c, s in J]
        if not all(sis_zero(sum(x * turned[c] for c, x in row)) for row in rows):
            raise ACM5Error("internal consistency: spinor kernel is not stable under J")
    return SpinorKernelReport(tuple(basis), len(basis) // 2)


@lru_cache(maxsize=1)
def kernel_of_f() -> SpinorKernelReport:
    """``spinor_kernel(spinor_space(), F)``, with its J-stability check, once
    per process: F = e12 - e34 and the generators are constants."""
    return spinor_kernel(spinor_space(), F)


def parallel_spinor_check(space: SpinorSpace, omega: ConnectionForms, spinors):
    """True when the spin lift (1/2) sum_{i<j} M_s[i][j] g_i g_j of each symbol matrix
    M_s annihilates every spinor; the 1/2 is dropped because the test is homogeneous,
    and sis_zero decides each entry of the residues, exact or float."""
    for m in derived(omega, _symbol_matrices).values():
        rows = [[0] * 8 for _ in spinors]
        for (i, j), table in space.products.items():
            if coef := m[5 * i + j]:
                for row, psi in zip(rows, spinors):
                    for r, (c, s) in enumerate(table):
                        row[r] += s * coef * psi[c]
        if not all(sis_zero(x) for row in rows for x in row):
            return False
    return True
