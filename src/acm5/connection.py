"""The compatible metric connection, its torsion type, curvature and spinors.

On a generalized quasi-Sasaki structure there is exactly one metric
connection parallelizing the Reeb vector, its dual form and the
endomorphism.  Its difference tensor relative to Levi-Civita is

    A(X, Y, Z) = 1/2 { ((d eta - gamma) ^ eta)(X, Y, Z) - N(X, Y, Z) },

and the torsion is the antisymmetrization of A in the first two slots.
Curvature uses the second structure equation; the holonomy algebra is the
bracket closure of the curvature endomorphisms, which suffices for
constant-coefficient coframes.  Spinors live on an exact 4-dimensional
complex representation with generators over the Gaussian rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .acms import (
    ETA,
    Tensor3,
    d_eta_form,
    derived,
    frame_connection,
    gamma_form,
    nabla_phi,
    nabla_xi_matrix,
    nijenhuis,
    predicates,
    t3_from_func,
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
    d_squared_zero,
    ext_d,
    form,
    grid_form,
    wedge,
)
from .frames import ConnectionForms
from .scalars import sis_zero
from .torsionclass import CartanParts, cartan_decompose


@dataclass(frozen=True)
class CharacteristicConnection:
    omega_c: ConnectionForms
    a_c: Tensor3  # difference tensor, antisymmetric in the last two slots
    torsion: Tensor3  # T(X, Y, Z), antisymmetric in the first two slots
    compatibility: CompatibilityReport  # its defining check, run once on construction


def characteristic_connection(c: CoframeData, omega_g):
    """Construct the unique compatible metric connection and verify
    componentwise that it parallelizes xi, eta and phi.  omega_g is the
    Levi-Civita ConnectionForms or the memoizing FrameConnection of them."""
    fc = frame_connection(omega_g)
    if not derived(fc, predicates).generalized_quasi_sasaki:
        raise NotGeneralizedQuasiSasakiError(
            "no compatible connection: structure is not generalized quasi-Sasaki"
        )
    nij = derived(fc, nijenhuis)
    deta = derived(fc, d_eta_form)
    gamma = derived(fc, gamma_form)
    eta = ETA if (deta - gamma).mode == "exact" else Form(1, {(4,): 1.0})
    corr3 = wedge(deta - gamma, eta)
    half = Fraction(1, 2)
    nv = nij.values
    a_c = t3_from_func(lambda x, y, z: half * (corr3.evaluate(x, y, z) - nv[x][y][z]))
    omega_c = connection_plus_tensor(fc.forms, a_c)
    report = compatibility_report(omega_c)
    if not report.ok:
        raise ACM5Error("internal consistency: compatible connection fails its defining property")
    av = a_c.values
    torsion = t3_from_func(lambda x, y, z: av[x][y][z] - av[y][x][z])
    return CharacteristicConnection(omega_c, a_c, torsion, report)


def connection_plus_tensor(omega: ConnectionForms, a: Tensor3) -> ConnectionForms:
    """Entrywise w[i][j] + (the 1-form X -> a(X, e_i, e_j))."""
    av = a.values
    grid = []
    for i in range(5):
        row = []
        for j in range(5):
            extra = form(1, {(k,): av[k][i][j] for k in range(5)})
            row.append(omega.omega[i][j] + extra)
        grid.append(tuple(row))
    return ConnectionForms(tuple(grid))


@dataclass(frozen=True)
class CompatibilityReport:
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
    tv = cc.torsion.values
    # re-slot to last-two antisymmetry for the decomposition
    as_a = t3_from_func(lambda x, y, z: tv[y][z][x])
    parts_a = cartan_decompose(as_a)

    def back(t: Tensor3):
        v = t.values
        return t3_from_func(lambda x, y, z: v[z][x][y])

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


# ---------------------------------------------------------------------------
# curvature


@dataclass(frozen=True)
class CurvatureData:
    curvature: tuple  # 5x5 matrix of 2-forms R[i][j]
    ricci: tuple  # 5x5 scalars
    holonomy_basis: tuple  # 2-forms spanning the bracket closure

    def entry(self, i, j):
        return self.curvature[i - 1][j - 1]


def curvature(c: CoframeData, omega: ConnectionForms) -> CurvatureData:
    """Second structure equation R[i][j] = d w[i][j] + sum_k w[i][k] ^ w[k][j].

    Auxiliary symbols must cancel after substituting their derivatives; the
    Ricci convention Ric(X, Y) = sum_i R[i][Y](X, e_i) is fixed by the
    worked family of examples.
    """
    if not d_squared_zero(c).ok:
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
    ricci = []
    for a in range(5):
        rrow = []
        for b in range(5):
            acc = Fraction(0)
            for i in range(5):
                acc += grid[i][b].evaluate(a, i)
            rrow.append(acc)
        ricci.append(tuple(rrow))
    holonomy = _bracket_closure(_endomorphism_values(grid))
    return CurvatureData(
        tuple(tuple(r) for r in grid), tuple(ricci), tuple(holonomy)
    )


def _chop(f: Form):
    """Drop float coefficients below the verification tolerance."""
    if f.mode != "float":
        return f
    return Form(f.degree, {idx: v for idx, v in f.terms.items() if not sis_zero(v)})


def _endomorphism_values(grid):
    """Curvature endomorphisms R(e_a, e_b) as 2-forms via the so(5)-form
    correspondence."""
    out = []
    for a in range(5):
        for b in range(a + 1, 5):
            f = grid_form(lambda i, j: grid[i][j].evaluate(a, b))
            if not f.is_zero():
                out.append(f)
    return out


def _form_to_matrix(beta: Form):
    return [[beta.evaluate(i, j) for j in range(5)] for i in range(5)]


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
    acc = Fraction(0)
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
                m = _commutator(_form_to_matrix(x), _form_to_matrix(y))
                f = grid_form(lambda i, j: m[i][j])
                if not f.is_zero() and try_add(f):
                    changed = True
    return basis


# ---------------------------------------------------------------------------
# spinors over the Gaussian rationals


class GaussianRational:
    """Complex numbers with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _gr(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_gr(other))

    def __rsub__(self, other):
        return _gr(other) + (-self)

    def __mul__(self, other):
        other = _gr(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _gr(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / n, -other.im / n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def conj(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


def _gr(x):
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


GR0 = GaussianRational(0)
GRI = GaussianRational(0, 1)


def _mat(rows):
    return tuple(tuple(_gr(x) for x in row) for row in rows)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), GR0) for j in range(n))
        for i in range(n)
    )


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(s, a):
    return tuple(tuple(_gr(s) * x for x in row) for row in a)


def _kron(a, b):
    n, m = len(a), len(b)
    return tuple(
        tuple(a[i // m][j // m] * b[i % m][j % m] for j in range(n * m))
        for i in range(n * m)
    )


_S1 = _mat([[0, 1], [1, 0]])
_S2 = _mat([[0, GaussianRational(0, -1)], [GaussianRational(0, 1), 0]])
_S3 = _mat([[1, 0], [0, -1]])
_ID2 = _mat([[1, 0], [0, 1]])
ID4 = _kron(_ID2, _ID2)


@dataclass(frozen=True)
class SpinorSpace:
    """Five 4x4 generators with g_i g_j + g_j g_i = -2 delta_ij, and the
    products g_i g_j for i < j, multiplied once for that check."""

    generators: tuple
    products: dict = field(init=False, repr=False, compare=False)  # (i, j) -> g_i g_j

    def __post_init__(self):
        g = self.generators
        prod = {(i, j): _mat_mul(g[i], g[j]) for i in range(5) for j in range(5)}
        for (i, j), gij in prod.items():
            if _mat_add(gij, prod[j, i]) != _mat_scale(-2 if i == j else 0, ID4):
                raise ACM5Error("Clifford relations fail")
        object.__setattr__(self, "products", {k: m for k, m in prod.items() if k[0] < k[1]})

    def action_of_2form(self, beta: Form):
        """Clifford action sum_{i<j} beta_ij g_i g_j."""
        acc = _mat_scale(0, ID4)
        for (i, j), coef in beta.terms.items():
            if j > 4:
                raise SymbolicResidueError("spinor action needs a metric 2-form")
            acc = _mat_add(acc, _mat_scale(coef, self.products[i, j]))
        return acc


@lru_cache(maxsize=1)
def spinor_space() -> SpinorSpace:
    gens = (
        _mat_scale(GRI, _kron(_S1, _ID2)),
        _mat_scale(GRI, _kron(_S2, _ID2)),
        _mat_scale(GRI, _kron(_S3, _S1)),
        _mat_scale(GRI, _kron(_S3, _S2)),
        _mat_scale(GRI, _kron(_S3, _S3)),
    )
    return SpinorSpace(gens)


@dataclass(frozen=True)
class SpinorKernelReport:
    kernel_basis: tuple
    dimension: int


def spinor_kernel(space: SpinorSpace, f2: Form) -> SpinorKernelReport:
    """Kernel of the Clifford action of a 2-form."""
    m = space.action_of_2form(f2)
    basis = linalg.nullspace(m)
    return SpinorKernelReport(tuple(basis), len(basis))


def spin_lift_matrices(space: SpinorSpace, omega: ConnectionForms):
    """Per-symbol matrices of (1/2) sum_{i<j} w[i][j] g_i g_j.

    The lift is a 1-form with matrix values; returning coefficients per
    coframe symbol keeps everything in exact complex arithmetic.
    """
    out = {}
    half = Fraction(1, 2)
    for i in range(5):
        for j in range(i + 1, 5):
            for (sid,), coef in omega.omega[i][j].terms.items():
                m = out.setdefault(sid, _mat_scale(0, ID4))
                out[sid] = _mat_add(m, _mat_scale(half * coef, space.products[i, j]))
    return out


def apply_matrix(m, v):
    return tuple(sum((m[i][k] * v[k] for k in range(len(v))), GR0) for i in range(len(v)))


def parallel_spinor_check(space: SpinorSpace, omega: ConnectionForms, spinors):
    """True when the spin lift of the connection annihilates every spinor.
    The lift is exact; for float connection values (run at unit scale) each
    residue part is decided as a float by sis_zero, so rounding reads as zero."""
    floating = any(f.mode == "float" for row in omega.omega for f in row)
    vanishes = (lambda x: sis_zero(float(x))) if floating else (lambda x: x == 0)
    for m in spin_lift_matrices(space, omega).values():
        for psi in spinors:
            if not all(vanishes(v.re) and vanishes(v.im) for v in apply_matrix(m, psi)):
                return False
    return True
