"""Shared test utilities: independent oracles and seeded generators.

The oracles here deliberately re-implement the conventions from scratch
(evaluation-based wedge, permutation-parity star, bracket-based and dense
linear Levi-Civita solves) so the library is checked against a second path.
The tensor-kernel oracles keep the full sums over PHI_MAT that the
signed-permutation kernels of ``acms`` replaced, and the coordinate-map
oracles keep the general type projections and the Gram-matrix solve that
``project_u2_complement`` and ``torsionclass.classify`` replaced.  The
spinor oracle keeps the Gaussian-rational 4x4 Clifford generators, spin lift
and kernel that the R^8 signed-permutation tables of ``connection`` replaced.
The wedge-based exterior derivative (``ext_d_oracle``) is the one that
``exterior.ext_d``'s direct Leibniz accumulation replaced.  The difference
tensor and Cartan oracles (``difference_tensor_oracle``,
``cartan_decompose_oracle``) keep the ``Fraction(1, n)`` multipliers that
``scalars.div_const`` replaced, so a float entry keeps its bits.
``trig_mul_oracle`` is the trig product on ``Fraction`` coefficients, with
its four-way case split and its ``Fraction(1, 2)`` per term, that the int
coefficients and the product table of ``scalars.TrigScalar`` replaced.
Definitions that only tests use (``abelian_coframe``, ``lambda2_project``,
``project_u2``, ``codifferential`` with ``covariant_derivative_form``,
``d_form_via_connection``, ``pointwise_from_upper``, ``induced_d_table``,
``pr_w``, ``torsion_from_coords``, ``residual_basis``) live here rather
than in the library; ``pr_w`` is ``torsionclass.tensor_to_w`` as a Tensor3.
So do the readers of the value classes that only tests use: ``nested``
(a Tensor3's values as [i][j][k]), ``inner`` (of two Tensor3s),
``evaluate`` (a Form on frame directions), ``entry`` (of ConnectionForms
and CurvatureData), ``cartan_parts``, ``as_coords``, ``norm_sq``,
``inner_w`` and ``lin_comb`` (of IntrinsicTorsions, through their
2-forms), and ``project_u2_complement`` (the library's complement
projection of one 2-form, as a Form).
"""

import contextlib
import functools
import importlib
import importlib.util
import itertools
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from acm5 import linalg
from acm5.acms import (
    COMPLEMENT_FRAME,
    COMPLEMENT_MONOMIALS,
    LAMBDA2_BASES,
    PHI_COL,
    PHI_MAT,
    T_COMPLEMENT,
    XI,
    FrameConnection,
    Tensor3,
    at,
    complement_view,
    frame_connection,
    inner_form,
)
from acm5.errors import (
    MissingDerivationError,
    RankError,
    SymbolicResidueError,
    UnsupportedSymbolError,
)
from acm5.exterior import (
    METRIC_IDS,
    CoframeData,
    Form,
    TrigRules,
    coframe,
    dense2,
    e,
    form,
    grid_form,
    interior,
    stored,
    wedge,
    zero_form,
)
from acm5.frames import ConnectionForms, connection_forms
from acm5.scalars import COS_F, TrigScalar, div_const, is_exact_zero, narrow, sis_zero
from acm5.torsionclass import MODULE_NAMES, IntrinsicTorsion, w_subspaces

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = sorted((GOLDEN / "inputs").glob("*.json"))
GOLDEN_FAMILY_POINTS = [
    tuple(Fraction(p) for p in case["argv"][2:6])
    for case in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    if case["argv"][0] == "family" and "--verify" in case["argv"]
]


def replay_points(seed):
    """The family points of the benchmark's replay corpus at this seed."""
    spec = importlib.util.spec_from_file_location("acm5_bench_corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # dataclasses look their module up
    try:
        spec.loader.exec_module(corpus)
    finally:
        del sys.modules[spec.name]
    return [params for _, params in corpus.replay_params(random.Random(f"replay:{seed}"))]


def abelian_coframe():
    return coframe({})


def nested(t: Tensor3):
    """The values of a Tensor3 nested as [i][j][k]."""
    rows = [t.flat[r : r + 5] for r in range(0, 125, 5)]
    return tuple(tuple(rows[p : p + 5]) for p in range(0, 25, 5))


def inner(a: Tensor3, b: Tensor3):
    """The sum of the products of two Tensor3s entry by entry, from the int 0."""
    acc = 0
    for x, y in zip(a.flat, b.flat):
        acc += x * y
    return acc


def evaluate(f: Form, *ids):
    """The value of a form on frame directions given by 0-based symbol ids."""
    if len(ids) != f.degree:
        raise ValueError("wrong number of arguments")
    key = tuple(sorted(ids))
    c = f.terms.get(key)  # repeated ids never match a stored monomial
    if c is None:
        return 0
    return c if key == ids else c * perm_sign(ids)


def inner_w(u: IntrinsicTorsion, v: IntrinsicTorsion):
    """The inner product of two torsions, summed over their 2-forms by ``inner_form``."""
    acc = 0
    for a, b in zip(u.components, v.components):
        acc += inner_form(a, b)
    return acc


def entry(table, i, j):
    """1-based access to ConnectionForms or CurvatureData: entry(om, 1, 2) is
    the form paired with (e1, e2)."""
    rows = table.omega if isinstance(table, ConnectionForms) else table.curvature
    return rows[i - 1][j - 1]


def cartan_parts(parts):
    """The three parts of a CartanParts by name."""
    return {"vectorial": parts.vectorial, "skew": parts.skew, "cyclic": parts.cyclic}


def lin_comb(*pairs) -> IntrinsicTorsion:
    """sum s * t over the (s, t) pairs, scalars and IntrinsicTorsions, through their 2-forms."""
    forms = (zero_form(2),) * 5
    for s, t in pairs:
        forms = tuple(a + f.scale(s) for a, f in zip(forms, t.components))
    return IntrinsicTorsion(forms)


def norm_sq(t: IntrinsicTorsion):
    return inner_w(t, t)


def as_coords(t: IntrinsicTorsion):
    """The 30 coordinates of a torsion on COMPLEMENT_FRAME, direction by direction."""
    return [div_const(inner_form(f, b), nb) for f in t.components for b, nb in COMPLEMENT_FRAME]


def project_u2_complement(beta: Form) -> Form:
    """The library's projection of a metric 2-form to the complement of the
    stabilizer: the first direction of ``acms.complement_view`` read off the
    form's table, as a Form under the storage rule."""
    flat = tuple(itertools.chain(*dense2(beta))) + (0,) * 100
    return stored(2, dict(zip(COMPLEMENT_MONOMIALS, complement_view(T_COMPLEMENT, flat))))


def t3_from_func(fn):
    """The Tensor3 with entry fn(i, j, k), 0-based."""
    return Tensor3(tuple(fn(i, j, k) for i, j, k in itertools.product(range(5), repeat=3)))


def pr_w(a: Tensor3) -> Tensor3:
    """Project each first-slot 2-form onto the complement of the stabilizer algebra."""
    comps = [project_u2_complement(a.component_form(i)) for i in range(1, 6)]
    return t3_from_func(lambda i, j, k: evaluate(comps[i], j, k))


def lambda2_project(beta: Form, part: int) -> Form:
    """Orthogonal projection onto the four 2-form types (1: span of the
    fundamental form, 2: primitive phi-anti-invariant, 3: the rest of the
    stabilizer algebra, 4: forms containing the Reeb leg)."""
    if beta.degree != 2:
        raise ValueError("need a 2-form")
    if any(i not in METRIC_IDS for i in beta.symbols_used()):
        raise UnsupportedSymbolError("auxiliary symbols have no type decomposition")
    if part not in LAMBDA2_BASES:
        raise ValueError("part must be 1..4")
    out = zero_form(2)
    for b in LAMBDA2_BASES[part]:
        coef = div_const(inner_form(beta, b), inner_form(b, b))
        out = out + b.scale(coef)
    return out


def project_u2(beta: Form) -> Form:
    return lambda2_project(beta, 1) + lambda2_project(beta, 3)


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
    w = fc.base.flat
    return _derivation(alpha, lambda s, j: w[at(s, j, k)])


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


def d_form_via_connection(fc, alpha: Form) -> Form:
    """d alpha = sum_i e_i ^ nabla_{e_i} alpha (valid for torsion-free values)."""
    for sid, mat in fc.channels:
        if not _channel_kills_form(mat, alpha):
            raise SymbolicResidueError(
                f"auxiliary symbol id {sid} leaves a residue in the differential"
            )
    out = zero_form(alpha.degree + 1)
    for i in range(5):
        na = covariant_derivative_form(fc, alpha, i)
        out = out + wedge(form(1, {(i,): 1}), na)
    return out


def ext_d_oracle(a: Form, c: CoframeData) -> Form:
    """The wedge-based exterior derivative that ``exterior.ext_d`` replaced.

    Each Leibniz piece is the product of unit monomials with the generator
    derivative, scaled by the signed coefficient and added to the result;
    the units are the float 1.0 when the form or the table is float.
    """
    if any(i >= c.n_symbols for i in a.symbols_used()):
        raise UnsupportedSymbolError("form uses symbols outside the coframe")
    unit = 1.0 if (a.mode == "float" or c.mode() == "float") else 1
    result = zero_form(a.degree + 1)
    for idx, coef in a.terms.items():
        if isinstance(coef, TrigScalar) and not coef.is_constant():
            rules = c.trig_rules
            if rules is None:
                raise MissingDerivationError("trig coefficient without df/dg rules")
            mono = Form(len(idx), {idx: unit})
            for factor, m, n in coef.deriv_terms():
                phase = zero_form(1)
                if m:
                    if rules.df is None:
                        raise MissingDerivationError("df rule required")
                    phase = phase + rules.df.scale(m)
                if n:
                    if rules.dg is None:
                        raise MissingDerivationError("dg rule required")
                    phase = phase + rules.dg.scale(n)
                result = result + wedge(phase, mono).scale(factor)
        for pos, sym in enumerate(idx):
            dsym = c.d_table[sym]
            if dsym.is_zero():
                continue
            before = idx[:pos]
            after = idx[pos + 1 :]
            sign = -1 if pos % 2 else 1
            piece = wedge(
                Form(len(before), {before: unit}) if before else Form(0, {(): unit}),
                wedge(dsym, Form(len(after), {after: unit}) if after else Form(0, {(): unit})),
            )
            result = result + piece.scale(coef * sign)
    return result


def pointwise_from_upper(upper):
    """The free pointwise values w[i][j](e_k) of an antisymmetric connection, as a
    Tensor3, from {(i, j, k): value}, 1-based, i < j."""
    flat = [Fraction(0)] * 125
    for (i, j, k), v in upper.items():
        flat[at(i - 1, j - 1, k - 1)] = Fraction(v)
        flat[at(j - 1, i - 1, k - 1)] = -Fraction(v)
    return Tensor3(tuple(flat))


def induced_d_table(w: Tensor3):
    """Generator 2-forms from the first structure equation, de_i(e_a, e_b) =
    w[i][b](e_a) - w[i][a](e_b), for pointwise values w."""
    v = w.flat
    return {
        f"e{i + 1}": grid_form(lambda a, b: v[at(i, b, a)] - v[at(i, a, b)]) for i in range(5)
    }


def torsion_from_coords(coords) -> IntrinsicTorsion:
    comps = []
    for k in range(5):
        f = zero_form(2)
        for (b, _), c in zip(COMPLEMENT_FRAME, coords[6 * k : 6 * k + 6]):
            f = f + b.scale(c)
        comps.append(f)
    return IntrinsicTorsion(tuple(comps))


@functools.cache
def residual_basis() -> tuple:
    """Orthogonal complement of W3 + ... + W7 inside the torsion space: the
    coordinates x with sum_j x_j <v, b_j> = 0 for every spanning vector v."""
    rows = [
        [inner_form(f, b) for f in v.components for b, _ in COMPLEMENT_FRAME]
        for vecs in w_subspaces().values()
        for v in vecs
    ]
    return tuple(torsion_from_coords(x) for x in linalg.nullspace(rows))


def random_fraction(rng, span=4, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_form(rng, degree, nsym=5, terms=3):
    monos = list(itertools.combinations(range(nsym), degree))
    rng.shuffle(monos)
    out = {}
    for idx in monos[:terms]:
        c = random_fraction(rng)
        if c:
            out[idx] = c
    return form(degree, out)


def perm_sign(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def eval_form(f: Form, ids):
    """Independent evaluation: determinant convention on monomials."""
    if len(set(ids)) != len(ids):
        return Fraction(0)
    key = tuple(sorted(ids))
    c = f.terms.get(key, Fraction(0))
    return c * perm_sign(ids)


def wedge_eval_oracle(a: Form, b: Form, ids):
    """(a ^ b)(ids) via the shuffle sum, independent of the wedge code."""
    k, l = a.degree, b.degree
    assert len(ids) == k + l
    total = Fraction(0)
    for subset in itertools.combinations(range(k + l), k):
        rest = [i for i in range(k + l) if i not in subset]
        sigma = list(subset) + rest
        total += perm_sign(sigma) * eval_form(a, [ids[i] for i in subset]) * eval_form(
            b, [ids[i] for i in rest]
        )
    return total


def hodge_oracle(f: Form) -> Form:
    """Star via complement monomials and explicit parity."""
    out = {}
    for idx, c in f.terms.items():
        comp = tuple(i for i in range(5) if i not in idx)
        sign = perm_sign(list(idx) + list(comp))
        out[comp] = out.get(comp, Fraction(0)) + c * sign
    return form(5 - f.degree, out)


def koszul_oracle(d_forms):
    """Levi-Civita values from brackets: returns w[b][c][a] = w(b,c)(e_a).

    Brackets come from [e_i, e_j] = sum_k c_ijk e_k with
    c_ijk = -de_k(e_i, e_j); then
    2 g(nabla_a e_b, e_c) = c_abc - c_acb - c_bca.
    """
    c = [[[-evaluate(d_forms[k], i, j) for k in range(5)] for j in range(5)] for i in range(5)]
    half = Fraction(1, 2)
    w = [[[Fraction(0)] * 5 for _ in range(5)] for _ in range(5)]
    for a in range(5):
        for b in range(5):
            for cc in range(5):
                w[b][cc][a] = half * (c[a][b][cc] - c[a][cc][b] - c[b][cc][a])
    return w


def structure_solve_oracle(c: CoframeData):
    """Levi-Civita forms by a dense linear solve of the first structure equation.

    One unknown per (pair i < j, symbol s), one equation per (generator,
    monomial) of de_i = sum_j w[i][j] ^ e_j: 75 x 60 for one auxiliary symbol.
    Raises RankError when the system has no unique solution.
    """
    nsym = c.n_symbols
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    unknown = {(p, s): k for k, (p, s) in enumerate((p, s) for p in pairs for s in range(nsym))}
    monos = list(itertools.combinations(range(nsym), 2))
    rows, rhs = [], []
    for i in range(5):
        for mono in monos:
            row = [Fraction(0)] * len(unknown)
            for j in range(5):
                if j == i:
                    continue
                p, sign_ij = ((i, j), 1) if i < j else ((j, i), -1)
                for s in range(nsym):
                    if s != j and (min(s, j), max(s, j)) == mono:
                        row[unknown[(p, s)]] += Fraction(sign_ij * (1 if s < j else -1))
            rows.append(row)
            rhs.append(c.d_table[i].coefficient(mono))
    try:
        sol = linalg.solve_unique(rows, rhs)
    except ValueError as exc:
        raise RankError(f"structure equation has no unique solution: {exc}") from exc
    entries = {}
    for p in pairs:
        terms = {(s,): sol[unknown[(p, s)]] for s in range(nsym) if sol[unknown[(p, s)]]}
        entries[(p[0] + 1, p[1] + 1)] = form(1, terms)
    return connection_forms(entries)


def _cube(fn):
    return [[[fn(i, j, k) for k in range(5)] for j in range(5)] for i in range(5)]


def nabla_phi_oracle(w):
    """Both paths of nabla Phi as full 5-term sums over PHI_MAT, products with
    its zeros included: ``np_full`` from the base values w[i][j][k] and
    ``np_gamma`` from the projection of each w(e_k) to the complement of the
    stabilizer, each entry a [k][a][b] cube."""
    P = PHI_MAT

    def np_full(k, a, b):
        acc = Fraction(0)
        for i in range(5):
            acc += w[i][a][k] * P[i][b]
            acc -= w[i][b][k] * P[i][a]
        return acc

    gammas = [project_u2_complement(grid_form(lambda i, j: w[i][j][k])) for k in range(5)]

    def np_gamma(k, a, b):
        acc = Fraction(0)
        for i in range(5):
            acc += evaluate(gammas[k], i, a) * P[i][b]
            acc -= evaluate(gammas[k], i, b) * P[i][a]
        return acc

    return {"np_full": _cube(np_full), "np_gamma": _cube(np_gamma)}


def nijenhuis_oracle(np, deta):
    """Both Nijenhuis expressions as loops over PHI_MAT from np[k][a][b] =
    (nabla_{e_k} Phi)(e_a, e_b) and the 2-form d eta: ``n_via_np`` and the
    covariant commutator ``cov``."""
    P = PHI_MAT

    def n_via_np(x, y, z):
        acc = Fraction(0)
        for u in range(5):
            if P[u][y] != 0:
                acc += P[u][y] * np[u][x][z]
            if P[u][z] != 0:
                acc -= P[u][z] * np[u][x][y]
            if P[u][x] != 0:
                acc += P[u][x] * (np[y][u][z] - np[z][u][y])
        if x == XI:
            for u in range(5):
                if P[u][z] != 0:
                    acc += P[u][z] * np[y][XI][u]
                if P[u][y] != 0:
                    acc -= P[u][y] * np[z][XI][u]
        return acc

    def cov(x, y, z):
        acc = Fraction(0)
        for u in range(5):
            if P[u][y] != 0:
                acc += P[u][y] * np[u][x][z]
            if P[u][z] != 0:
                acc -= P[u][z] * np[u][x][y]
        for u in range(5):
            if P[x][u] == 0:
                continue
            acc += P[x][u] * (np[z][u][y] - np[y][u][z])
        if x == XI:
            acc += evaluate(deta, y, z)
        return acc

    return {"n_via_np": _cube(n_via_np), "cov": _cube(cov)}


def _signed_add(acc, s, v):
    """acc + s v for s in (-1, 0, 1), without the product."""
    return acc + v if s > 0 else acc - v if s < 0 else acc


def d_phi_oracle(np):
    """dPhi(a, b, c) = np[a][b][c] - np[b][a][c] + np[c][a][b], entry by entry."""
    return _cube(lambda a, b, c: np[a][b][c] - np[b][a][c] + np[c][a][b])


def phi_pullback_oracle(beta: Form) -> Form:
    """beta(phi e_a, phi e_b) through the signed column reads of PHI_COL, from the int 0."""
    m = [[evaluate(beta, i, j) for j in range(5)] for i in range(5)]

    def entry(a, b):
        (u, s), (w, t) = PHI_COL[a], PHI_COL[b]
        return _signed_add(0, s * t, m[u][w])

    return grid_form(entry)


def vartheta_oracle(beta: Form):
    """3 eta (x) beta minus the star of beta, entry by entry."""
    star = hodge_oracle(beta)
    return _cube(
        lambda i, j, k: (3 if i == XI else 0) * evaluate(beta, j, k) - evaluate(star, i, j, k)
    )


def gamma_oracle(dphi, nij):
    """Both gamma expressions entry by entry over the monomials (x, y), x < y,
    each from the int 0: dPhi(xi, phi x, y) and N(phi x, phi y, xi)."""
    first, second = {}, {}
    for x, y in itertools.combinations(range(5), 2):
        (u, s), (w, t) = PHI_COL[x], PHI_COL[y]
        first[x, y] = _signed_add(0, s, dphi[XI][u][y])
        second[x, y] = _signed_add(0, s * t, nij[u][w][XI])
    return first, second


def predicates_oracle(np, nij, dphi, nx, killing):
    """The nearly cosymplectic, quasi-cosymplectic and generalized
    quasi-Sasaki verdicts, entry by entry over every slot."""
    cube = list(itertools.product(range(5), repeat=3))

    def quasi_cos_lhs(a, b, c):
        # g((nabla_a phi) e_b, e_c) + g((nabla_{phi a} phi)(phi e_b), e_c)
        (u, s), (w, t) = PHI_COL[a], PHI_COL[b]
        return _signed_add(np[a][c][b], s * t, np[u][c][w])

    def quasi_cos_rhs(a, b, c):
        u, s = PHI_COL[a]
        return _signed_add(0, s, nx[u][c]) if b == XI else 0

    horiz = itertools.product(range(4), repeat=3)
    return {
        "nearly_cosymplectic": all(sis_zero(np[a][c][b] + np[b][c][a]) for a, b, c in cube),
        "quasi_cosymplectic": all(
            sis_zero(quasi_cos_lhs(a, b, c) - quasi_cos_rhs(a, b, c)) for a, b, c in cube
        ),
        "generalized_quasi_sasaki": killing
        and all(sis_zero(nij[x][y][z]) and sis_zero(dphi[x][y][z]) for x, y, z in horiz),
    }


def torsion_type_oracle(torsion):
    """The Cartan parts of a torsion cube: re-slotted to last-two antisymmetry,
    split by ``cartan_decompose_oracle`` and re-slotted back."""
    parts = cartan_decompose_oracle(_cube(lambda x, y, z: torsion[y][z][x]))
    names = ("vectorial", "skew", "cyclic")
    back = {name: _cube(lambda x, y, z: parts[name][z][x][y]) for name in names}
    return {**back, "vector": parts["vector"]}


def difference_tensor_oracle(deta: Form, gamma: Form, nij) -> tuple:
    """A(X, Y, Z) = 1/2 {((d eta - gamma) ^ eta)(X, Y, Z) - N(X, Y, Z)}, as a
    5x5x5 cube, times ``Fraction(1, 2)``."""
    corr3 = wedge(deta - gamma, e(5))
    half = Fraction(1, 2)
    return _cube(lambda x, y, z: half * (evaluate(corr3, x, y, z) - nij[x][y][z]))


def cartan_decompose_oracle(v) -> dict:
    """The vectorial, skew and cyclic parts and the vector of a cube that is
    antisymmetric in its last two slots, through ``Fraction(1, 4)`` and
    ``Fraction(1, 3)`` from ``Fraction(0)`` accumulators."""
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

    vectorial = _cube(vec_part)
    third = Fraction(1, 3)
    skew = _cube(lambda x, y, z: third * (v[x][y][z] + v[y][z][x] + v[z][x][y]))
    cyclic = _cube(lambda x, y, z: v[x][y][z] - vectorial[x][y][z] - skew[x][y][z])
    return {"vectorial": vectorial, "vector": vec, "skew": skew, "cyclic": cyclic}


def project_u2_complement_oracle(beta: Form) -> Form:
    """The projection to the complement of the stabilizer as the sum of the
    general type-2 and type-4 projections."""
    return lambda2_project(beta, 2) + lambda2_project(beta, 4)


def classify_norms_oracle(gamma):
    """The W3..W7 and residual norms by the Gram-matrix solve: per module,
    G c = (<b_i, gamma>) through ``linalg.solve_unique``, then
    sum_ij c_i c_j <b_i, b_j>, every inner product by ``inner_w``."""
    norms = {}
    total = inner_w(gamma, gamma)
    accounted = Fraction(0)
    for name in MODULE_NAMES:
        basis = w_subspaces()[name]
        gram = [[inner_w(bi, bj) for bj in basis] for bi in basis]
        coefs = linalg.solve_unique(gram, [inner_w(bi, gamma) for bi in basis])
        n = Fraction(0)
        for ci, bi in zip(coefs, basis):
            for cj, bj in zip(coefs, basis):
                n += ci * cj * inner_w(bi, bj)
        norms[name] = n
        accounted += n
    norms["residual"] = total - accounted
    return norms


def trig_coframe():
    """A d-table with a non-constant trig coefficient: de1 = cos(f) e2^e3, df = e5.

    d(de1) = -sin(f) e2^e3^e5, so e1 fails the d^2-gate.
    """
    return coframe({"e1": COS_F * wedge(e(2), e(3))}, trig_rules=TrigRules(df=e(5)))


def _norm_atom_oracle(kind, m, n, coef):
    if m == 0 and n == 0:
        if kind == "s":
            return None, None
        return ("c", 0, 0), coef
    if m < 0 or (m == 0 and n < 0):
        m, n = -m, -n
        if kind == "s":
            coef = -coef
    return (kind, m, n), coef


def _accumulate_atom_oracle(coeffs, kind, m, n, coef):
    key, coef = _norm_atom_oracle(kind, m, n, coef)
    if key is None:
        return
    acc = coeffs.get(key, Fraction(0)) + coef
    if acc:
        coeffs[key] = acc
    else:
        coeffs.pop(key, None)


def trig_mul_oracle(x, y):
    """The coefficients of x * y for trig scalars or rationals x, y, as the
    Fraction ring computed them: a rational lifted to a one-term sum, each
    term pair times Fraction(1, 2) through the four product-to-sum cases."""
    lift = (
        lambda t: t.coeffs if isinstance(t, TrigScalar) else ({("c", 0, 0): Fraction(t)} if t else {})
    )
    out = {}
    half = Fraction(1, 2)
    for (k1, m1, n1), c1 in lift(x).items():
        for (k2, m2, n2), c2 in lift(y).items():
            c = c1 * c2 * half
            sm, sn = m1 + m2, n1 + n2
            dm, dn = m1 - m2, n1 - n2
            if k1 == "c" and k2 == "c":
                _accumulate_atom_oracle(out, "c", dm, dn, c)
                _accumulate_atom_oracle(out, "c", sm, sn, c)
            elif k1 == "s" and k2 == "s":
                _accumulate_atom_oracle(out, "c", dm, dn, c)
                _accumulate_atom_oracle(out, "c", sm, sn, -c)
            elif k1 == "s" and k2 == "c":
                _accumulate_atom_oracle(out, "s", sm, sn, c)
                _accumulate_atom_oracle(out, "s", dm, dn, c)
            else:  # cos * sin
                _accumulate_atom_oracle(out, "s", sm, sn, c)
                _accumulate_atom_oracle(out, "s", dm, dn, -c)
    return out


_RATIONAL_TEXT = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational_oracle(s):
    """The loader's coefficient rule as the pattern plus ``Fraction(s)`` read
    it, narrowed; None for a rejected value."""
    if type(s) is int:  # bools are rejected
        return narrow(Fraction(s))
    if not isinstance(s, str) or not _RATIONAL_TEXT.match(s.strip()):
        return None
    return narrow(Fraction(s))


def bits(v):
    """A value with its Python type, floats by their bit pattern (so 0.0 and -0.0 differ)."""
    return (type(v), v.hex() if isinstance(v, float) else v)


def random_pointwise(rng):
    upper = {}
    for i in range(1, 6):
        for j in range(i + 1, 6):
            for k in range(1, 6):
                upper[(i, j, k)] = random_fraction(rng)
    return pointwise_from_upper(upper)


def _identity(n):
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def cayley(s):
    """Q = (I - S)(I + S)^-1, orthogonal whenever S is antisymmetric (exact Gauss-Jordan)."""
    n = len(s)
    ident = _identity(n)
    m = [[ident[r][c] + s[r][c] for c in range(n)] + ident[r] for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                m[r] = [v - m[r][col] * w for v, w in zip(m[r], m[col])]
    minus = [[ident[r][c] - s[r][c] for c in range(n)] for r in range(n)]
    return matmul(minus, [row[n:] for row in m])


def u2_rotation(a, b, c, d):
    """The Cayley rotation of the u(2) + 0 element that acts on (e1 + i e2, e3 + i e4)
    by the anti-Hermitian matrix [[i a, b + i c], [-b + i c, i d]] and kills e5.

    Such an S commutes with phi, so Q lies in U(2)x1 and preserves the
    almost contact metric structure.
    """
    s = [
        [0, -a, b, -c, 0],
        [a, 0, c, b, 0],
        [-b, -c, 0, -d, 0],
        [c, -b, d, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    return cayley([[Fraction(v) for v in row] for row in s])


def rotate(c: CoframeData, q):
    """The coframe f_a = sum_i q[a][i] e_i of an orthogonal q, written back in f.

    Every metric leg of every generator derivative is rewritten through
    e_i = sum_a q[a][i] f_a; auxiliary symbols are left as they are.
    """

    def legs(x):
        return [(a, q[a][x]) for a in range(5)] if x < 5 else [(x, Fraction(1))]

    def substituted(f: Form):
        out = {}
        for (x, y), coef in f.terms.items():
            for xn, xc in legs(x):
                for yn, yc in legs(y):
                    if xn != yn:
                        key, sign = ((xn, yn), 1) if xn < yn else ((yn, xn), -1)
                        out[key] = out.get(key, Fraction(0)) + sign * coef * xc * yc
        return out

    table = {sid: form(2, substituted(f)) for sid, f in c.d_table.items() if sid >= 5}
    metric = [substituted(c.d_table[i]) for i in range(5)]
    for a in range(5):
        acc = {}
        for i in range(5):
            for key, v in metric[i].items():
                acc[key] = acc.get(key, Fraction(0)) + q[a][i] * v
        table[a] = form(2, acc)
    return CoframeData(c.symbols, table, c.orientation, c.trig_rules)


def scaled(c: CoframeData, lam):
    """The coframe with every structure constant multiplied by lam.

    It is the orthonormal coframe of the homothetic metric g / lam^2.
    """
    table = {sid: f.scale(lam) for sid, f in c.d_table.items()}
    return CoframeData(c.symbols, table, c.orientation, c.trig_rules)


# -- the Gaussian-rational spinor oracle ------------------------------------------


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


_GR0 = GaussianRational(0)
_GRI = GaussianRational(0, 1)


def _mat(rows):
    return tuple(tuple(_gr(x) for x in row) for row in rows)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), _GR0) for j in range(n))
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
_ID4 = _kron(_ID2, _ID2)
GAUSSIAN_GENERATORS = (
    _mat_scale(_GRI, _kron(_S1, _ID2)),
    _mat_scale(_GRI, _kron(_S2, _ID2)),
    _mat_scale(_GRI, _kron(_S3, _S1)),
    _mat_scale(_GRI, _kron(_S3, _S2)),
    _mat_scale(_GRI, _kron(_S3, _S3)),
)


@functools.cache
def gaussian_products():
    """The products g_i g_j (i < j) of the 4x4 generators."""
    g = GAUSSIAN_GENERATORS
    return {(i, j): _mat_mul(g[i], g[j]) for i in range(5) for j in range(i + 1, 5)}


def gaussian_action(beta: Form):
    """Clifford action sum_{i<j} beta_ij g_i g_j on C^4."""
    acc = _mat_scale(0, _ID4)
    for ij, coef in beta.terms.items():
        acc = _mat_add(acc, _mat_scale(coef, gaussian_products()[ij]))
    return acc


def gaussian_kernel(beta: Form):
    """A complex basis of the kernel of the Clifford action of beta."""
    return linalg.nullspace(gaussian_action(beta))


def gaussian_spin_lift(omega: ConnectionForms):
    """Per-symbol matrices of (1/2) sum_{i<j} w[i][j] g_i g_j."""
    out = {}
    half = Fraction(1, 2)
    for (i, j), gij in gaussian_products().items():
        for (sid,), coef in omega.omega[i][j].terms.items():
            m = out.setdefault(sid, _mat_scale(0, _ID4))
            out[sid] = _mat_add(m, _mat_scale(half * coef, gij))
    return out


def _apply_matrix(m, v):
    return tuple(sum((m[i][k] * v[k] for k in range(len(v))), _GR0) for i in range(len(v)))


def gaussian_parallel(omega: ConnectionForms, spinors):
    """True when the exact spin lift annihilates every complex spinor; for
    float connection values each exact residue part is decided as a float."""
    floating = any(f.mode == "float" for row in omega.omega for f in row)
    vanishes = (lambda x: sis_zero(float(x))) if floating else (lambda x: x == 0)
    for m in gaussian_spin_lift(omega).values():
        for psi in spinors:
            if not all(vanishes(v.re) and vanishes(v.im) for v in _apply_matrix(m, psi)):
                return False
    return True


def realify(m):
    """A monomial 4x4 matrix over {0, +-1, +-i} as an R^8 table: row r is
    (c, s) when it reads s * x_c, with z_k = x_{2k} + i x_{2k+1}."""
    rows = []
    for r in range(4):
        ((c, z),) = [(c, z) for c, z in enumerate(m[r]) if z]
        if z.im == 0:
            rows += [(2 * c, int(z.re)), (2 * c + 1, int(z.re))]
        else:
            rows += [(2 * c + 1, -int(z.im)), (2 * c, int(z.im))]
    return tuple(rows)


def complexify(v):
    """The C^4 spinor of an R^8 vector, z_k = x_{2k} + i x_{2k+1}."""
    return tuple(GaussianRational(v[2 * k], v[2 * k + 1]) for k in range(4))


def table_matrix(table):
    """The dense 8x8 matrix of a signed-permutation table."""
    return [[s if col == c else 0 for col in range(len(table))] for c, s in table]


@contextlib.contextmanager
def count_calls(*names):
    """Count calls of the ``acm5`` functions named ``"module.function"`` in the block.

    As ``bench/tracing.py`` does, each function is replaced in every
    ``acm5.*`` namespace that binds it (modules import each other's
    functions by name) and restored on exit.  The namespaces are listed
    after the named modules are imported, so a layer that ``cli`` imports
    only when a command needs it is patched too.  Yields a Counter by name.
    """
    counts = Counter()
    patches = []

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = {}
    for name in names:
        module, fname = name.split(".")
        originals[name] = getattr(importlib.import_module(f"acm5.{module}"), fname)
    namespaces = [m for n, m in sys.modules.items() if n == "acm5" or n.startswith("acm5.")]
    for name, original in originals.items():
        wrapper = counted(name, original)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
    try:
        yield counts
    finally:
        for ns, attr, original in reversed(patches):
            setattr(ns, attr, original)
