"""Exterior algebra over a declared symbol set.

A coframe declares five orthonormal metric symbols (always stored under the
ids 0..4, named e1..e5 by convention) and optionally auxiliary 1-form
symbols (ids 5 and up).  Forms are dictionaries from strictly increasing id
tuples to scalar coefficients; all operations are pure.

Conventions, fixed once and used everywhere:

* (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X) for 1-forms; general evaluation of a
  monomial on frame vectors is the permutation determinant (no 1/k! weights).
* The volume form is e1^e2^e3^e4^e5; the star of a monomial is the signed
  complementary monomial with sign fixed by m ^ star(m) = volume.
* The exterior derivative extends the generator table by linearity and the
  graded Leibniz rule; trig coefficients differentiate through declared
  df/dg rules.
* The d^2-gate contracts a constant table of one kind directly:
  d(de_i) = sum c^i_jk (de_j^e_k - e_j^de_k), accumulated in the order
  ext_d(ext_d(e_i)) would add the same products.  Each product takes its
  monomial and sign from the memoized :func:`_tail` of (pair, k), so the
  work follows the stored terms; an exact sum is narrowed and its zeros
  dropped once at the end.  Any other table goes through ext_d twice.
* A full read of a 2-form or a 3-form on frame directions is one dense
  table (:func:`dense2`, :func:`dense3`) filled from its terms: each
  stored c goes to its sorted slot and -c to every odd permutation of it,
  the int 0 everywhere else, which is entry by entry what the evaluation
  by the permutation determinant gives (the value, its type and, for
  floats, its bits; ``evaluate`` of ``tests/helpers.py``).

Forms follow the kind rule and the storage rule of ``scalars``.  Two
constructors build them: :func:`form` (or ``Form(...)``) validates terms
from outside the library, and :func:`stored` takes the library's computed
terms, applies the storage rule and reads the kind from the kept values.
The operators here build through ``_trusted`` with the kind the rule gives.
"""

from __future__ import annotations

import functools
from typing import Mapping, NamedTuple

from .errors import (
    MissingDerivationError,
    ModeMismatchError,
    SchemaError,
    UnsupportedSymbolError,
)
from .scalars import (
    EXACT,
    FLOAT,
    IS_ZERO,
    TrigScalar,
    coerce,
    div,
    fmt_scalar,
    is_exact_zero,
    is_float,
    is_rational,
    narrow,
    table_kind,
)

METRIC_IDS = (0, 1, 2, 3, 4)


class Frozen:
    """Base of the validating value classes: ``__init__`` (or ``_trusted``) sets each field once,
    through ``__dict__``.  ``==``, the hash and the repr read the fields named in ``_compared``."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, n) for n in self._compared)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._compared, self._values()))
        return f"{type(self).__name__}({shown})"


class Form(Frozen):
    degree: int
    terms: Mapping[tuple, object]
    mode: str  # EXACT or FLOAT, set once here or by _trusted

    def __init__(self, degree, terms):
        mode = EXACT
        for idx, c in terms.items():
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad multi-index {idx} for degree {degree}")
            if is_float(c):
                mode = FLOAT
            elif not c:
                raise ValueError("zero coefficient stored")
        self.__dict__.update(degree=degree, terms=terms, mode=mode)

    # -- queries --------------------------------------------------------
    def is_zero(self):
        if self.mode == EXACT:
            return not self.terms  # the storage rule never stores an exact zero
        return all(map(IS_ZERO[FLOAT], self.terms.values()))

    def coefficient(self, idx):
        return self.terms.get(tuple(idx), 0)

    def symbols_used(self):
        out = set()
        for idx in self.terms:
            out.update(idx)
        return out

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other for sign = 1 or -1."""
        if not isinstance(other, Form):
            return NotImplemented
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError("degree mismatch")
        _check_modes(self, other)
        mode = self.mode if self.terms else other.mode
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            _accumulate(terms, idx, c if sign > 0 else -c, mode)
        # a zero summand takes the other's degree
        degree = len(next(iter(terms))) if terms else max(self.degree, other.degree)
        return _trusted(degree, terms, mode)

    def __neg__(self):
        return _trusted(self.degree, {i: -c for i, c in self.terms.items()}, self.mode)

    def scale(self, s):
        s = coerce(s)
        if is_exact_zero(s):
            return _trusted(self.degree, {}, self.mode)
        mode = FLOAT if is_float(s) else self.mode
        out = {}
        for idx, c in self.terms.items():
            v = narrow(s * c)
            if v or mode == FLOAT:
                out[idx] = v
        return _trusted(self.degree, out, mode)

    def __rmul__(self, s):
        return self.scale(s)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        mixed = self.mode != other.mode and self.terms and other.terms  # never equal, as + refuses
        return not mixed and (self - other).is_zero()

    def __repr__(self):
        return f"Form({render_form(self)!r})"


def _trusted(degree, terms, mode):
    """A Form that this module's operators built, of the given kind, without re-validation."""
    f = object.__new__(Form)
    f.__dict__.update(degree=degree, terms=terms, mode=mode)
    return f


def _product_mode(*modes):
    return FLOAT if FLOAT in modes else EXACT


def form(degree, terms=None):
    """Validating Form constructor for terms from outside the library, under the storage rule."""
    out = {}
    for idx, c in (terms or {}).items():
        c = coerce(c)
        if not is_exact_zero(c):
            out[tuple(idx)] = c
    return Form(degree, out)


def stored(degree, terms):
    """The Form of library-computed terms under the storage rule, of the kind of its kept values."""
    out = {idx: c for idx, c in zip(terms, map(narrow, terms.values())) if not is_exact_zero(c)}
    return _trusted(degree, out, table_kind(out.values()))


def grid_form(entry):
    """The metric 2-form with coefficient entry(i, j) on the monomial (i, j), i < j
    (0-based ids), built by :func:`stored` from the library's own values."""
    return stored(2, {(i, j): entry(i, j) for i in range(5) for j in range(i + 1, 5)})


def _accumulate(terms, idx, v, mode):
    """Add v to terms[idx], a new entry from the int 0, under the storage rule:
    narrow an integral sum; in an exact form, drop one that cancels."""
    acc = narrow(terms.get(idx, 0) + v)
    if acc or mode == FLOAT:
        terms[idx] = acc
    else:
        terms.pop(idx, None)


def zero_form(degree=0):
    return _trusted(degree, {}, EXACT)


def e(i):
    """Metric coframe leg, 1-based: e(1) .. e(5)."""
    if not 1 <= i <= 5:
        raise ValueError("metric index out of range")
    return _trusted(1, {(i - 1,): 1}, EXACT)


# the horizontal 2-forms e12 - e34, e13 - e24 and e14 + e23 (re-exported by acms)
F = form(2, {(0, 1): 1, (2, 3): -1})
Z1 = form(2, {(0, 2): 1, (1, 3): -1})
Z2 = form(2, {(0, 3): 1, (1, 2): 1})


def perm_sign(ids):
    """Sign of the permutation that sorts distinct ids."""
    ids = list(ids)
    sign = 1
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if ids[i] > ids[j]:
                sign = -sign
    return sign


def dense2(f, n=5, cols=None):
    """The n x cols table m[i][j] = f(e_i, e_j) of a 2-form (cols <= n,
    default n), filled from its terms, as ``evaluate`` of ``tests/helpers.py``
    reads it."""
    cols = n if cols is None else cols
    m = [[0] * cols for _ in range(n)]
    for (i, j), c in f.terms.items():
        if j < n:
            if j < cols:
                m[i][j] = c
            if i < cols:
                m[j][i] = -c
    return m


def dense3(f, n=5):
    """The n x n x n table t[i][j][k] = f(e_i, e_j, e_k) of a 3-form, filled from its
    terms, as ``evaluate`` of ``tests/helpers.py`` reads it."""
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in f.terms.items():
        if k < n:
            t[i][j][k] = t[j][k][i] = t[k][i][j] = c
            t[j][i][k] = t[i][k][j] = t[k][j][i] = -c
    return t


@functools.cache
def _merge(i1, i2):
    """Sort the concatenation of two disjoint index tuples; returns (tuple, sign).  Memoized."""
    return tuple(sorted(i1 + i2)), perm_sign(i1 + i2)


@functools.cache
def _tail(idx, k):
    """(monomial, sign) with e_idx ^ e_k = sign * monomial, or None when k is in idx.  Memoized."""
    return None if k in idx else _merge(idx, (k,))


def _check_modes(a, b):
    if a.mode != b.mode and a.terms and b.terms:
        raise ModeMismatchError("mixed exact and float forms")


def wedge(a, b):
    """Exterior product; graded-anticommutative, zero above degree 6."""
    deg = a.degree + b.degree
    if deg > 6:
        return zero_form(deg)
    mode = _product_mode(a.mode, b.mode)
    out = {}
    for i1, c1 in a.terms.items():
        for i2, c2 in b.terms.items():
            if set(i1) & set(i2):
                continue
            idx, sign = _merge(i1, i2)
            _accumulate(out, idx, c1 * c2 * sign, mode)
    return _trusted(deg, out, mode)


def wedge_all(forms):
    acc = None
    for f in forms:
        acc = f if acc is None else wedge(acc, f)
    return acc if acc is not None else _trusted(0, {(): 1}, EXACT)


def hodge(a, coframe=None):
    """Hodge star on metric-symbol forms, relative to the declared orientation."""
    vol_sign = 1
    if coframe is not None:
        vol_sign = perm_sign(coframe.orientation)
    out = {}
    for idx, c in a.terms.items():
        if any(i not in METRIC_IDS for i in idx):
            raise UnsupportedSymbolError("star is defined on metric symbols only")
        comp = tuple(i for i in METRIC_IDS if i not in idx)
        sign = perm_sign(idx + comp) * vol_sign
        _accumulate(out, comp, c * sign, a.mode)
    return _trusted(5 - a.degree, out, a.mode)


def interior(i, a):
    """Contraction of the first slot with the frame vector e_i (1-based)."""
    if not 1 <= i <= 5:
        raise ValueError("frame index out of range")
    sym = i - 1
    if a.degree == 0:
        return zero_form(0)
    out = {}
    for idx, c in a.terms.items():
        if sym not in idx:
            continue
        pos = idx.index(sym)
        rest = idx[:pos] + idx[pos + 1 :]
        _accumulate(out, rest, -c if pos % 2 else c, a.mode)
    return _trusted(a.degree - 1, out, a.mode)


# ---------------------------------------------------------------------------
# coframe data


class Symbol(NamedTuple):
    name: str
    kind: str  # "metric" | "auxiliary"
    index: int | None = None  # 1..5 for metric symbols


class TrigRules(NamedTuple):
    df: Form | None = None
    dg: Form | None = None


class CoframeData(Frozen):
    """Symbols, generator derivatives, orientation, optional phase rules."""

    symbols: tuple
    d_table: Mapping[int, Form]
    orientation: tuple
    trig_rules: TrigRules | None
    _compared = ("symbols", "d_table", "orientation", "trig_rules")

    def __init__(self, symbols, d_table, orientation=METRIC_IDS, trig_rules=None):
        metric = [s for s in symbols if s.kind == "metric"]
        if len(metric) != 5 or [s.index for s in symbols[:5]] != [1, 2, 3, 4, 5]:
            raise SchemaError("need exactly five metric symbols e1..e5 first")
        names = [s.name for s in symbols]
        if len(set(names)) != len(names):
            raise SchemaError("symbol names must be unique")
        nsym = len(symbols)
        if sorted(orientation) != list(METRIC_IDS):
            raise SchemaError("orientation must permute the metric symbols")
        for sid in range(nsym):
            if sid not in d_table:
                raise SchemaError(f"d-table misses symbol {names[sid]}")
            val = d_table[sid]
            if any(i >= nsym for i in val.symbols_used()):
                raise SchemaError("d-table uses undeclared symbols")
        self.__dict__.update(zip(self._compared, (symbols, d_table, orientation, trig_rules)))

    @property
    def n_symbols(self):
        return len(self.symbols)

    def name_of(self, sid):
        return self.symbols[sid].name

    def with_trig_rules(self, df=None, dg=None):
        return CoframeData(self.symbols, self.d_table, self.orientation, TrigRules(df, dg))

    @functools.cached_property
    def d_squared_gate(self):
        """The d^2-gate report, ``d_squared_zero(self)``, computed once per coframe."""
        return d_squared_zero(self)

    def mode(self):
        return _product_mode(*(f.mode for f in self.d_table.values() if f.terms))


def standard_symbols(auxiliary=()):
    syms = [Symbol(f"e{i}", "metric", i) for i in range(1, 6)]
    syms.extend(Symbol(name, "auxiliary") for name in auxiliary)
    return tuple(syms)


def coframe(d_table_by_name, auxiliary=(), orientation=None, trig_rules=None):
    """Build CoframeData from a name-keyed generator table.

    Symbols missing from the table get d = 0.
    """
    syms = standard_symbols(auxiliary)
    names = {s.name: i for i, s in enumerate(syms)}
    table = {}
    for name, f in d_table_by_name.items():
        if name not in names:
            raise SchemaError(f"unknown symbol {name!r}")
        table[names[name]] = f
    for sid in range(len(syms)):
        table.setdefault(sid, zero_form(2))
    orient = METRIC_IDS if orientation is None else tuple(names[n] for n in orientation)
    return CoframeData(tuple(syms), table, orient, trig_rules)


def ext_d(a, c):
    """Exterior derivative from the generator table, by linearity and Leibniz,
    accumulated into one term dictionary in the order that wedging each
    piece out of unit monomials would add it."""
    nsym = c.n_symbols
    if any(i >= nsym for i in a.symbols_used()):
        raise UnsupportedSymbolError("form uses symbols outside the coframe")
    deg = a.degree + 1
    live = deg <= 6  # wedge's rule: a product above degree 6 is zero
    mode = a.mode
    out = {}
    for idx, coef in a.terms.items():
        # d(coefficient) ^ monomial for non-constant (trig) coefficients
        if isinstance(coef, TrigScalar) and not coef.is_constant():
            rules = c.trig_rules
            if rules is None:
                raise MissingDerivationError("trig coefficient without df/dg rules")
            for factor, m, n in coef.deriv_terms():
                phase = {}  # m df + n dg
                for k, rule, name in ((m, rules.df, "df"), (n, rules.dg, "dg")):
                    if k:
                        if rule is None:
                            raise MissingDerivationError(f"{name} rule required")
                        for pidx, v in rule.terms.items():
                            _accumulate(phase, pidx, k * v, rule.mode)
                for pidx, pc in phase.items() if live else ():
                    if not any(i in idx for i in pidx):
                        mono, sign = _merge(pidx, idx)
                        _accumulate(out, mono, factor * (pc * sign), EXACT)
        if not live:
            continue
        # Leibniz over the monomial
        for pos, sym in enumerate(idx):
            dsym = c.d_table[sym]
            if dsym.is_zero():
                continue
            if dsym.mode == FLOAT:
                mode = FLOAT
            before, after = idx[:pos], idx[pos + 1 :]
            cs = coef * (-1 if pos % 2 else 1)
            for didx, dc in dsym.terms.items():
                if not any(i in before or i in after for i in didx):
                    mono, sign = _merge(before, didx + after)
                    _accumulate(out, mono, cs * dc if sign > 0 else -(cs * dc), mode)
    return _trusted(deg, out, mode)


class ResidualReport(NamedTuple):
    """Named residual forms of an identity, which holds when every one vanishes."""

    residuals: Mapping[str, Form]

    @property
    def failing(self):
        return [name for name, f in self.residuals.items() if not f.is_zero()]

    @property
    def ok(self):
        return not self.failing


def d_squared_zero(c):
    """d(d(symbol)) for every generator; integrable iff all vanish."""
    forms = [f for f in c.d_table.values() if f.terms]
    if all(f.mode == FLOAT for f in forms) or all(
        is_rational(v) for f in forms for v in f.terms.values()
    ):
        dd = _d_squared_constant(c)
    else:
        dd = [ext_d(ext_d(_trusted(1, {(sid,): 1}, EXACT), c), c) for sid in range(c.n_symbols)]
    return ResidualReport({c.name_of(sid): r for sid, r in enumerate(dd)})


def _d_squared_constant(c):
    """d(de_i) = sum over terms a e_j^e_k of de_i of a (de_j^e_k - e_j^de_k).

    ext_d skips a generator whose derivative is zero at the default
    tolerance, and so does this contraction.
    """
    live = {sid: f.terms for sid, f in c.d_table.items() if not f.is_zero()}
    out = []
    for sid in range(c.n_symbols):
        terms = {}
        for (j, k), a in live.get(sid, {}).items():
            for t, rows, s in ((k, live.get(j, {}), 1), (j, live.get(k, {}), -1)):
                for idx, b in rows.items():
                    hit = _tail(idx, t)
                    if hit:
                        mono, sign = hit
                        terms[mono] = terms.get(mono, 0) + (a * b if sign == s else -(a * b))
        out.append(stored(3, terms))
    return out


def proportionality(f1, f2):
    """The constant c with f1 = c f2, or None when there is none."""
    if f1.is_zero():
        return 0
    for idx, c in f2.terms.items():
        ratio = div(f1.coefficient(idx), c)
        return ratio if (f1 - f2.scale(ratio)).is_zero() else None
    return None


def render_form(f, names=None):
    """Readable rendering like '-2*e1^e3 + 4/3*e2^e4'."""
    if not f.terms:
        return "0"

    def nm(i):
        if names is not None:
            return names[i]
        return f"e{i + 1}" if i < 5 else f"a{i + 1}"

    parts = []
    for idx in sorted(f.terms):
        c = f.terms[idx]
        mono = "^".join(nm(i) for i in idx) if idx else "1"
        cs = fmt_scalar(c)
        if isinstance(c, TrigScalar) and len(c.coeffs) > 1:
            cs = f"({cs})"
        if cs == "1" and idx:
            parts.append(mono)
        elif cs == "-1" and idx:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{cs}*{mono}" if idx else cs)
    return " + ".join(parts).replace("+ -", "- ")
