"""Scalar tower for exact coframe computations.

Coefficients are exact rationals (``Fraction``, or ``int`` when integral),
elements of a trigonometric ring (rational combinations of sin/cos of
integer-frequency combinations of two abstract phases ``f`` and ``g``), or
binary64 floats, used only to cross-check exact results.  Float mode runs
at unit scale (``cli.classification_report`` scales the coframe so that its
largest coefficient lies in [1/2, 1)), so one tolerance, ``FLOAT_RTOL`` =
1e-9, decides every float zero.  All combine with plain ``+ - * /``; the
trig ring's rules live on :class:`TrigScalar`: a constant result collapses
back to a rational under the storage rule (``SIN_F * SIN_F + COS_F * COS_F``
is the int 1), a float coefficient or operand raises ModeMismatchError, and
division by a non-constant trig scalar raises ExtensionOverflowError.

Kind rule.  A float is of the ``FLOAT`` kind and every other scalar of the
``EXACT`` kind.  Only this module tells them apart value by value
(:func:`is_float`, :func:`sis_zero`); everything else decides a kind once
per object and reads it after that:

* a ``Form`` when it is built (its ``mode``): a product (wedge, scale,
  ext_d, the d^2-contraction) is float if any factor is, since exact x
  float is a float and an exact +-1 multiplies without rounding; a sum has
  its operands' kind, and ``+``/``-`` of two non-empty forms of different
  kinds raise ModeMismatchError, because an exact term could survive into
  a float result; an empty operand takes either kind; negation, star and
  contraction keep the kind;
* a matrix or table through :func:`table_kind`: ``linalg`` pivots a float
  matrix by magnitude and an exact one at its first nonzero entry.

``IS_ZERO[kind]`` is the zero test of a kind: ``not x`` for exact scalars
(an ``int``, a ``Fraction`` and a ``TrigScalar`` are each falsy exactly at
zero), |x| <= FLOAT_RTOL for floats.  ``ZERO[kind]`` starts a sum.

Storage rule (:func:`narrow`, :func:`is_exact_zero`): an integral rational
is stored as an ``int``, an exact zero is never stored, and every float is
kept, even ``0.0``, so a float result shows each term that the exact
computation produced; only the Levi-Civita solve drops a ``0.0`` (the golden
``--float`` outputs pin it).  As ``int / int`` is a float, a division of two
possible ints goes through :func:`div`, and one by a small int constant n
(1/2, 1/3 or 1/4) through :func:`div_const`, an int when n divides an int.
A ``TrigScalar`` stores its coefficients under the same rule.  Its product
scales each coefficient when the other factor is rational; of two trig
scalars it sums twice the product term by term on the ``_PRODUCT`` table,
which gives the kind and the two signs of each product-to-sum pair, and
halves each sum once, through ``div_const``.
"""

from __future__ import annotations

import operator
from decimal import Decimal
from fractions import Fraction

from .errors import ExtensionOverflowError, ModeMismatchError

FLOAT_RTOL = 1e-9
EXACT, FLOAT = "exact", "float"
ZERO = {EXACT: 0, FLOAT: 0.0}
IS_ZERO = {EXACT: operator.not_, FLOAT: lambda x: abs(x) <= FLOAT_RTOL}

# Trig atoms are keyed ("c"|"s", m, n) for cos/sin of m*f + n*g, normalized
# so that the first nonzero frequency is positive and sin(0) never appears.
# Twice the product of atoms at a and b is two atoms at a + b and a - b:
# (kind1, kind2) -> (their kind, sign at a + b, sign at a - b), from
# 2 cos cos = cos(a-b) + cos(a+b), 2 sin sin = cos(a-b) - cos(a+b),
# 2 sin cos = sin(a+b) + sin(a-b) and 2 cos sin = sin(a+b) - sin(a-b).
_PRODUCT = {("c", "c"): ("c", 1, 1), ("s", "s"): ("c", -1, 1),
            ("s", "c"): ("s", 1, 1), ("c", "s"): ("s", 1, -1)}


def _accumulate_atom(coeffs, kind, m, n, coef):
    """Add coef times the atom in place: normalise it, add, narrow the sum and
    drop it when it cancels."""
    if m < 0 or (m == 0 and n < 0):
        m, n = -m, -n
        if kind == "s":
            coef = -coef
    elif kind == "s" and m == 0 and n == 0:
        return
    key = (kind, m, n)
    acc = coeffs.get(key, 0) + coef
    if acc:
        coeffs[key] = narrow(acc)
    else:
        coeffs.pop(key, None)


class TrigScalar:
    """Exact element of the two-phase trigonometric ring."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        clean = {}
        for (kind, m, n), coef in coeffs.items():
            if is_float(coef):
                raise ModeMismatchError("cannot mix float scalars with the trig ring")
            _accumulate_atom(clean, kind, m, n, coef if is_rational(coef) else Fraction(coef))
        self.coeffs = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(q):
        return TrigScalar({("c", 0, 0): q})

    @staticmethod
    def atom(kind, m, n, coef=1):
        return TrigScalar({(kind, m, n): coef})

    # -- predicates ---------------------------------------------------
    def is_constant(self):
        return all(k == ("c", 0, 0) for k in self.coeffs)

    def constant_part(self):
        return self.coeffs.get(("c", 0, 0), 0)

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.coeffs)
        for (kind, m, n), v in other.coeffs.items():
            _accumulate_atom(merged, kind, m, n, v)
        return collapse(merged)

    __radd__ = __add__

    def __neg__(self):
        return collapse({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        other = _lift(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = _lift(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        if is_rational(other):
            if not other:
                return 0
            return collapse({key: narrow(v * other) for key, v in self.coeffs.items()})
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        twice = {}  # 2 x the product: the halving waits until every term is in
        for (k1, m1, n1), c1 in self.coeffs.items():
            for (k2, m2, n2), c2 in other.coeffs.items():
                kind, at_sum, at_diff = _PRODUCT[k1, k2]
                c = c1 * c2
                _accumulate_atom(twice, kind, m1 - m2, n1 - n2, c if at_diff > 0 else -c)
                _accumulate_atom(twice, kind, m1 + m2, n1 + n2, c if at_sum > 0 else -c)
        return collapse({key: div_const(v, 2) for key, v in twice.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.is_constant():
            raise ExtensionOverflowError("division by a non-constant trig scalar")
        return self * div(1, other.constant_part())

    def __rtruediv__(self, other):
        other = _lift(other)
        return NotImplemented if other is NotImplemented else other / self

    def deriv_terms(self):
        """Chain-rule data: list of (factor, m, n) with d(self) = sum factor*(m*df + n*dg)."""
        out = []
        for (kind, m, n), coef in self.coeffs.items():
            if m == 0 and n == 0:
                continue
            if kind == "s":
                out.append((TrigScalar.atom("c", m, n, coef), m, n))
            else:
                out.append((TrigScalar.atom("s", m, n, -coef), m, n))
        return out

    # -- misc ----------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, TrigScalar):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_part() == other
        return NotImplemented

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"TrigScalar({fmt_scalar(self)!r})"


def _lift(x):
    """The ring element of an exact scalar; NotImplemented for a non-scalar."""
    if isinstance(x, TrigScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return TrigScalar.const(x)
    if is_float(x):
        raise ModeMismatchError("cannot mix float scalars with the trig ring")
    return NotImplemented


def collapse(coeffs):
    """The ring element with these normalised coefficients; its narrowed constant if constant."""
    out = TrigScalar.__new__(TrigScalar)
    out.coeffs = coeffs
    return out.constant_part() if out.is_constant() else out


def is_float(x):
    """The kind test of one value: true for a binary64 float."""
    return type(x) is float


def table_kind(values):
    """The kind of a matrix or table, asked once for all of its values."""
    return FLOAT if any(map(is_float, values)) else EXACT


def sis_zero(x):
    """The zero test of one value of either kind, for tables with no kind of their own."""
    return abs(x) <= FLOAT_RTOL if type(x) is float else not x


def is_exact_zero(x):
    """True for an exact zero, false for every float: the coefficient storage rule."""
    return not x and not is_float(x)


def coerce(c):
    """A library scalar under the storage rule (:func:`narrow`); TypeError for anything else."""
    if isinstance(c, (int, Fraction, float, TrigScalar)):
        return narrow(c)
    raise TypeError(f"bad coefficient: {c!r}")


def narrow(x):
    """An integral Fraction as the int of the same value; any other scalar as it is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def is_rational(x):
    """True for an exact rational, an int or a Fraction."""
    return isinstance(x, (int, Fraction))


def div(a, b):
    """a / b, exact when both are exact: int / int is a Fraction here, not a float."""
    return Fraction(a, b) if type(a) is int and type(b) is int else a / b


def div_const(a, n):
    """a / n for an int constant n > 0, as ``Fraction(1, n) * a`` narrowed: an int
    that n divides gives ``a // n``, and a float ``a * (1 / n)``, the bits of its
    product with ``Fraction(1, n)``; neither builds a Fraction."""
    if type(a) is int and not a % n:
        return a // n
    if is_float(a):
        return a * (1 / n)
    return narrow(a * Fraction(1, n))


def rat(x):
    """Coerce to Fraction, accepting 'p/q' strings."""
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise TypeError(f"not rational: {x!r}")


def _fmt_freq(m, n):
    parts = []
    if m:
        parts.append("f" if m == 1 else f"{m}f")
    if n:
        sign = "+" if n > 0 and parts else ""
        parts.append(sign + ("g" if n == 1 else "-g" if n == -1 else f"{n}g"))
    return "".join(parts)


def fmt_scalar(x):
    """Human/serialization-friendly rendering; rationals as 'p/q'."""
    if is_float(x):
        return repr(x)
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        num = Decimal(x.numerator)  # Decimal prints an int past str's digit limit
        return str(num) if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"
    parts = []
    for (kind, m, n), coef in sorted(x.coeffs.items()):
        if (kind, m, n) == ("c", 0, 0):
            parts.append(fmt_scalar(coef))
            continue
        fn = "cos" if kind == "c" else "sin"
        at = f"{fn}({_fmt_freq(m, n)})"
        if coef == 1:
            parts.append(at)
        elif coef == -1:
            parts.append(f"-{at}")
        else:
            parts.append(f"{fmt_scalar(coef)}*{at}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


SIN_F = TrigScalar.atom("s", 1, 0)
COS_F = TrigScalar.atom("c", 1, 0)
SIN_G = TrigScalar.atom("s", 0, 1)
COS_G = TrigScalar.atom("c", 0, 1)
