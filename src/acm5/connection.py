"""The compatible metric connection, its torsion type, curvature and spinors.

On a generalized quasi-Sasaki structure there is exactly one metric
connection parallelizing the Reeb vector, its dual form and the
endomorphism.  Its difference tensor relative to Levi-Civita is

    A(X, Y, Z) = 1/2 { ((d eta - gamma) ^ eta)(X, Y, Z) - N(X, Y, Z) },

and the torsion is the antisymmetrization of A in the first two slots.
The 1/2 goes through ``scalars.div_const``, so an integral entry of A is an
``int`` and the torsion and its Cartan parts add ints.
Curvature uses the second structure equation; the holonomy algebra is
computed as the bracket closure of the curvature endomorphisms.  Spinors
live on C^4 = R^8, where every Clifford generator of Cl(5) is a signed
permutation (Spin(5) = Sp(2) acts on H^2 = R^8), stored as a table of one
(column, sign) pair per row the way ``acms.PHI_ENTRIES`` stores phi.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import linalg
from .acms import (
    ETA,
    F,
    Tensor3,
    at,
    contract,
    d_eta_form,
    derived,
    frame_connection,
    gamma_form,
    nabla_phi,
    nabla_xi_matrix,
    nijenhuis,
    plan,
    predicates,
    t3_from_form3,
)
from .errors import (
    ACM5Error,
    NotGeneralizedQuasiSasakiError,
    SymbolicResidueError,
)
from .exterior import (
    METRIC_IDS,
    CoframeData,
    Form,
    Frozen,
    dense2,
    ext_d,
    grid_form,
    stored,
    wedge,
)
from .frames import ConnectionForms
from .scalars import div_const, narrow, sis_zero
from .torsionclass import CartanParts, cartan_decompose


class CharacteristicConnection(NamedTuple):
    omega_c: ConnectionForms
    a_c: Tensor3  # difference tensor, antisymmetric in the last two slots
    torsion: Tensor3  # T(X, Y, Z), antisymmetric in the first two slots
    compatibility: CompatibilityReport  # its defining check, run once on construction


def characteristic_connection(omega_g):
    """Construct the unique compatible metric connection and verify
    componentwise that it parallelizes xi, eta and phi.  omega_g is the
    Levi-Civita ConnectionForms or the memoizing FrameConnection of them."""
    fc = frame_connection(omega_g)
    if fc.forms is None:
        raise TypeError("characteristic_connection needs connection forms, not pointwise values")
    if not derived(fc, predicates).generalized_quasi_sasaki:
        raise NotGeneralizedQuasiSasakiError(
            "no compatible connection: structure is not generalized quasi-Sasaki"
        )
    nij = derived(fc, nijenhuis)
    deta = derived(fc, d_eta_form)
    gamma = derived(fc, gamma_form)
    corr = t3_from_form3(wedge(deta - gamma, ETA)) - nij
    a_c = Tensor3(tuple(div_const(v, 2) for v in corr.flat))
    omega_c = connection_plus_tensor(fc.forms, a_c)
    report = compatibility_report(omega_c)
    if not report.ok:
        raise ACM5Error("internal consistency: compatible connection fails its defining property")
    torsion = Tensor3(tuple(contract(TORSION, a_c.flat)))
    return CharacteristicConnection(omega_c, a_c, torsion, report)


# T(x, y, z) = A(x, y, z) - A(y, x, z)
TORSION = plan(lambda x, y, z: (at(x, y, z), ((-1, at(y, x, z), None),)))


def connection_plus_tensor(omega: ConnectionForms, a: Tensor3) -> ConnectionForms:
    """Entrywise w[i][j] + (the 1-form X -> a(X, e_i, e_j))."""
    grid = []
    for i in range(5):
        row = []
        for j in range(5):
            extra = stored(1, {(k,): a.flat[at(k, i, j)] for k in range(5)})
            row.append(omega.omega[i][j] + extra)
        grid.append(tuple(row))
    return ConnectionForms(tuple(grid))


class CompatibilityReport(NamedTuple):
    nabla_xi_zero: bool
    nabla_eta_zero: bool
    nabla_phi_zero: bool

    @property
    def ok(self):
        return self.nabla_xi_zero and self.nabla_eta_zero and self.nabla_phi_zero


def compatibility_report(omega: ConnectionForms) -> CompatibilityReport:
    """Componentwise check of nabla xi = nabla eta = nabla phi = 0."""
    fc = frame_connection(omega)
    try:
        nx = nabla_xi_matrix(fc)
        xi_zero = all(sis_zero(v) for row in nx for v in row)
        eta_zero = xi_zero  # eta is the metric dual of xi; same frame values
    except SymbolicResidueError:
        xi_zero = eta_zero = False
    try:
        phi_zero = nabla_phi(fc).is_zero()
    except SymbolicResidueError:
        phi_zero = False
    return CompatibilityReport(xi_zero, eta_zero, phi_zero)


def torsion_type(cc: CharacteristicConnection):
    """Cartan decomposition of the torsion plus a type tag."""
    # re-slot to last-two antisymmetry for the decomposition, and back
    parts_a = cartan_decompose(Tensor3(tuple(contract(TO_LAST_TWO, cc.torsion.flat))))

    def back(t: Tensor3):
        return Tensor3(tuple(contract(FROM_LAST_TWO, t.flat)))

    parts = CartanParts(
        back(parts_a.vectorial), parts_a.vector, back(parts_a.skew), back(parts_a.cyclic)
    )
    vec0 = parts.vectorial.is_zero()
    skew0 = parts.skew.is_zero()
    cyc0 = parts.cyclic.is_zero()
    if vec0 and skew0 and cyc0:
        tag = "zero"
    elif vec0 and cyc0:
        tag = "skew"
    elif vec0 and skew0:
        tag = "traceless-cyclic"
    else:
        tag = "mixed"
    return parts, tag


TO_LAST_TWO = plan(lambda x, y, z: (at(y, z, x), ()))
FROM_LAST_TWO = plan(lambda x, y, z: (at(z, x, y), ()))


# ---------------------------------------------------------------------------
# curvature


class CurvatureData(NamedTuple):
    curvature: tuple  # 5x5 matrix of 2-forms R[i][j]
    ricci: tuple  # 5x5 scalars
    holonomy_basis: tuple  # 2-forms spanning the bracket closure


def curvature(c: CoframeData, omega: ConnectionForms) -> CurvatureData:
    """Second structure equation R[i][j] = d w[i][j] + sum_k w[i][k] ^ w[k][j].

    Auxiliary symbols must cancel after substituting their derivatives; the
    Ricci convention Ric(X, Y) = sum_i R[i][Y](X, e_i) is fixed by the
    worked family of examples.
    """
    if not c.d_squared_gate.ok:
        raise ACM5Error("curvature needs an integrable coframe (d^2 = 0)")
    grid = []
    for i in range(5):
        row = []
        for j in range(5):
            r = ext_d(omega.omega[i][j], c)
            for k in range(5):
                r = r + wedge(omega.omega[i][k], omega.omega[k][j])
            row.append(_chop(r))
        grid.append(row)
    for i in range(5):
        for j in range(5):
            bad = [s for s in grid[i][j].symbols_used() if s not in METRIC_IDS]
            if bad:
                raise SymbolicResidueError(
                    f"curvature entry ({i + 1},{j + 1}) keeps auxiliary symbols {bad}"
                )
            if not (grid[i][j] + grid[j][i]).is_zero():
                raise ACM5Error("curvature matrix is not antisymmetric")
    tables = [[dense2(f) for f in row] for row in grid]  # tables[i][j][a][b] = R[i][j](e_a, e_b)
    ricci = []
    for a in range(5):
        rrow = []
        for b in range(5):
            acc = 0
            for i in range(5):
                acc += tables[i][b][a][i]
            rrow.append(acc)
        ricci.append(tuple(rrow))
    holonomy = _bracket_closure(_endomorphism_values(tables))
    return CurvatureData(tuple(tuple(r) for r in grid), tuple(ricci), tuple(holonomy))


def _chop(f: Form):
    """Drop float coefficients below the verification tolerance; an exact form stores no zero."""
    kept = {idx: v for idx, v in f.terms.items() if not sis_zero(v)}
    return f if len(kept) == len(f.terms) else stored(f.degree, kept)


def _endomorphism_values(tables):
    """Curvature endomorphisms R(e_a, e_b) as 2-forms via the so(5)-form
    correspondence, from the dense tables of the curvature entries."""
    out = []
    for a in range(5):
        for b in range(a + 1, 5):
            f = grid_form(lambda i, j: tables[i][j][a][b])
            if not f.is_zero():
                out.append(f)
    return out


def _commutator(a, b):
    return [
        [
            sum_products(a[i], [b[k][j] for k in range(5)])
            - sum_products(b[i], [a[k][j] for k in range(5)])
            for j in range(5)
        ]
        for i in range(5)
    ]


def sum_products(row, col):
    acc = 0
    for x, y in zip(row, col):
        acc += x * y
    return acc


def _coords(beta: Form):
    return [beta.coefficient((i, j)) for i in range(5) for j in range(i + 1, 5)]


def _bracket_closure(elements):
    """Grow a list of so(5) elements (as 2-forms) until closed under bracket."""
    basis = []

    def try_add(f):
        rows = [_coords(b) for b in basis] + [_coords(f)]
        if linalg.rank(rows) > len(basis):
            basis.append(f)
            return True
        return False

    for f in elements:
        try_add(f)
    changed = True
    while changed:
        changed = False
        snapshot = list(basis)
        for x in snapshot:
            for y in snapshot:
                m = _commutator(dense2(x), dense2(y))
                f = grid_form(lambda i, j: m[i][j])
                if not f.is_zero() and try_add(f):
                    changed = True
    return basis


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
    """True when the spin lift (1/2) sum_{i<j} w[i][j] g_i g_j of the
    connection annihilates every spinor.  Per coframe symbol and spinor the
    residue adds signed reads of the w[i][j] coefficients; the 1/2 is dropped
    because the test is homogeneous, and sis_zero decides each entry, exact
    or float."""
    residues = {}
    for (i, j), table in space.products.items():
        for (sid,), coef in omega.omega[i][j].terms.items():
            rows = residues.setdefault(sid, [[0] * 8 for _ in spinors])
            for row, psi in zip(rows, spinors):
                for r, (c, s) in enumerate(table):
                    row[r] += s * coef * psi[c]
    return all(sis_zero(x) for rows in residues.values() for row in rows for x in row)
