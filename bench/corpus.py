"""Seeded input corpus for the acm5 benchmark.

Everything here is plain ``fractions`` arithmetic written independently of
``acm5``: the program under test only ever sees the files this module
writes.  The same seed gives a byte-identical corpus.

Frame changes are exact rational Cayley rotations Q = (I - S)(I + S)^-1 of
an antisymmetric S.  For U(2)x1 rotations S lies in the commutant of the
adapted endomorphism phi on e1..e4 (and S fixes e5), so Q preserves the
almost contact metric structure and every Chinea-Gonzalez invariant.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

METRIC = ("e1", "e2", "e3", "e4", "e5")

# phi(e1) = -e2, phi(e2) = e1, phi(e3) = -e4, phi(e4) = e3, phi(e5) = 0;
# PHI[i][j] is the e_i component of phi(e_j).
PHI = tuple(
    tuple(Fraction(v) for v in row)
    for row in (
        (0, 1, 0, 0, 0),
        (-1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, -1, 0, 0),
        (0, 0, 0, 0, 0),
    )
)


# ---------------------------------------------------------------------------
# exact matrices


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def inverse(a):
    n = len(a)
    m = [list(row) + ident for row, ident in zip(a, identity(n))]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[n:] for row in m]


def cayley(s):
    """Q = (I - S)(I + S)^-1; orthogonal whenever S is antisymmetric."""
    n = len(s)
    i = identity(n)
    minus = [[i[r][c] - s[r][c] for c in range(n)] for r in range(n)]
    plus = [[i[r][c] + s[r][c] for c in range(n)] for r in range(n)]
    return matmul(minus, inverse(plus))


def _small(rng):
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))


def random_antisymmetric(rng, n):
    s = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            s[r][c] = _small(rng)
            s[c][r] = -s[r][c]
    return s


def _denominator(q):
    return math.lcm(*(x.denominator for row in q for x in row))


def _rotation(rng, draw_s, size, denominator):
    """A dense Cayley rotation whose entries have the common denominator given.

    Fixing the coefficient height keeps the work per file alike across seeds.
    """
    while True:
        q = cayley(draw_s(rng))
        if _denominator(q) == denominator and all(
                q[r][c] != 0 for r in range(size) for c in range(size)):
            return q


def _u2_generator(rng):
    """S = (A + phi A phi^-1) / 2 on e1..e4, zero on e5: S commutes with phi."""
    a = random_antisymmetric(rng, 4)
    j = [row[:4] for row in PHI[:4]]
    conj = matmul(matmul(j, a), transpose(j))
    s = [[(a[r][c] + conj[r][c]) / 2 for c in range(4)] + [Fraction(0)] for r in range(4)]
    return s + [[Fraction(0)] * 5]


def u2_rotation(rng):
    """A Cayley rotation in U(2)x1, dense on e1..e4."""
    return _rotation(rng, _u2_generator, 4, 65)


def so5_rotation(rng):
    """A Cayley rotation in SO(5), dense."""
    return _rotation(rng, lambda r: random_antisymmetric(r, 5), 5, 73)


# ---------------------------------------------------------------------------
# pure-metric coframes: {leg: {(x, y): coefficient of x^y}} with x before y


def _add_wedge(out, x, y, coef):
    if x == y or coef == 0:
        return
    if x > y:
        x, y, coef = y, x, -coef
    out[(x, y)] = out.get((x, y), Fraction(0)) + coef
    if out[(x, y)] == 0:
        del out[(x, y)]


def coframe(table):
    """The coframe of {leg: [(x, y, coefficient of x^y), ...]}."""
    d = {leg: {} for leg in METRIC}
    for leg, terms in table.items():
        for x, y, c in terms:
            _add_wedge(d[leg], x, y, Fraction(c))
    return d


def rotate(d, q):
    """The coframe f_a = sum_i q[a][i] e_i."""
    # e_i = sum_a q[a][i] f_a, because q is orthogonal
    subst = {e: [(METRIC[a], q[a][i]) for a in range(5) if q[a][i] != 0]
             for i, e in enumerate(METRIC)}
    out = {}
    for a, fa in enumerate(METRIC):
        acc = {}
        for i, ei in enumerate(METRIC):
            for (x, y), coef in d[ei].items():
                for xn, xc in subst[x]:
                    for yn, yc in subst[y]:
                        _add_wedge(acc, xn, yn, q[a][i] * coef * xc * yc)
        out[fa] = acc
    return out


def _fmt(q: Fraction):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def write_document(d, path: Path):
    """Write the coframe as the JSON document ``acm5`` loads."""
    doc = {
        "symbols": [{"name": n, "kind": "metric", "index": i + 1} for i, n in enumerate(METRIC)],
        "d": {leg: [{"coeff": _fmt(d[leg][k]), "wedge": list(k)} for k in sorted(d[leg])]
              for leg in METRIC},
        "orientation": list(METRIC),
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


GENERIC_ALGEBRAS = {
    "su2+R2": {"e1": [("e2", "e3", 1)], "e2": [("e1", "e3", -1)], "e3": [("e1", "e2", 1)]},
    "heis5": {"e5": [("e1", "e2", 1), ("e3", "e4", 1)]},
    "heis3+R2": {"e3": [("e1", "e2", 1)]},
    "diagonal-solvable": {"e1": [("e1", "e5", 1)], "e2": [("e2", "e5", 2)],
                          "e3": [("e3", "e5", -1)], "e4": [("e4", "e5", 3)]},
    "real-hyperbolic": {f"e{i}": [(f"e{i}", "e5", 1)] for i in range(1, 5)},
}


# ---------------------------------------------------------------------------
# family points, one per branch of the group identification
#
# Only signs, orders and choices are seeded.  The parameter magnitudes are
# fixed, so that every seed asks for the same amount of work.


def _sign(rng):
    return rng.choice((-1, 1))


def _direction(rng):
    u, v = rng.choice(((1, 2), (2, 1)))
    return _sign(rng) * u, _sign(rng) * v


def _point(rng, s, t):
    """(a1, a2) = s (u, v), (a3, a4) = t (u, v): always a1 a4 = a2 a3."""
    u, v = _direction(rng)
    return tuple(Fraction(x) for x in (s * u, s * v, t * u, t * v))


def replay_params(rng):
    # integers only: the CLI reads "-1/2" after --params as an option name
    m = 2 * _sign(rng)
    l1, l2 = rng.choice(((3, 4), (4, 3)))
    diagonal = [  # (a1, a3) with a2 = a4 = 0
        ("abelian6", (m, m)),
        ("heis5+R", (m, -2 * m)),
        ("su2+su2-diagonal", (m, -m)),  # 2 (a1 - a3)(2 a1 + a3) = (2m)^2
        ("sl2+sl2-diagonal", (m, 2 * m)),  # -(a1 - a3)(2 a1 + a3) = (2m)^2
    ]
    points = [("su2+su2-block", (l1 * m, l2 * m, 0, 0)),
              ("sl2+sl2-block", (0, 0, l2 * m, l1 * m))]
    points += [(name, (x1, 0, x3, 0)) for name, (x1, x3) in diagonal]
    swap_name, (x1, x3) = rng.choice(diagonal)
    points.append((f"{swap_name}-reconstructed", (0, x1, 0, x3)))
    points.append(("no-certificate", (m, m, 0, 0)))  # sqrt(2) m is irrational
    points.append(("unclassified", _point(rng, 1, 2 * _sign(rng))))
    points.append(("abelian", (0, 0, 0, 0)))
    return points


# ---------------------------------------------------------------------------
# the corpus of one workload


@dataclass(frozen=True)
class Item:
    """One request: its CLI commands and what its checks need."""

    name: str
    commands: tuple  # argv lists for ``acm5.cli.main``
    params: tuple = ()  # family parameters, as Fractions
    partner_of: str = ""  # classify-generic: the item this one is a U(2)x1 rotation of


def build_corpus(workload, seed, directory: Path):
    """Write the workload's input files under ``directory``; return its items."""
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    items = []
    if workload == "classify-generic":
        for name in GENERIC_ALGEBRAS:
            base = rotate(coframe(GENERIC_ALGEBRAS[name]), so5_rotation(rng))
            for stem, cf in ((name, base), (f"{name}-partner", rotate(base, u2_rotation(rng)))):
                path = directory / f"{stem}.json"
                write_document(cf, path)
                commands = (["classify", str(path), "--json"],
                            ["classify", str(path), "--json", "--float"])
                items.append(Item(stem, commands, partner_of=name if stem != name else ""))
    elif workload == "replay":
        for name, params in replay_params(rng):
            p = [str(x) for x in params]
            commands = (["family", "--params", *p, "--verify"],
                        ["family", "--params", *p, "--identify"])
            items.append(Item(name, commands, tuple(Fraction(x) for x in params)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
