"""Shared test utilities: independent oracles and seeded generators.

The oracles here deliberately re-implement the conventions from scratch
(evaluation-based wedge, permutation-parity star, bracket-based
Levi-Civita solve) so the library is checked against a second path.
"""

import contextlib
import functools
import importlib
import itertools
import sys
from collections import Counter
from fractions import Fraction

from acm5.exterior import Form, form


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
    c = [[[-d_forms[k].evaluate(i, j) for k in range(5)] for j in range(5)] for i in range(5)]
    half = Fraction(1, 2)
    w = [[[Fraction(0)] * 5 for _ in range(5)] for _ in range(5)]
    for a in range(5):
        for b in range(5):
            for cc in range(5):
                w[b][cc][a] = half * (c[a][b][cc] - c[a][cc][b] - c[b][cc][a])
    return w


def random_pointwise(rng):
    from acm5.frames import pointwise_from_upper

    upper = {}
    for i in range(1, 6):
        for j in range(i + 1, 6):
            for k in range(1, 6):
                upper[(i, j, k)] = random_fraction(rng)
    return pointwise_from_upper(upper)


@contextlib.contextmanager
def count_calls(*names):
    """Count calls of the ``acm5`` functions named ``"module.function"`` in the block.

    As ``bench/tracing.py`` does, each function is replaced in every
    ``acm5.*`` namespace that binds it (modules import each other's
    functions by name) and restored on exit.  Yields a Counter by name.
    """
    counts = Counter()
    patches = []
    namespaces = [m for n, m in sys.modules.items() if n == "acm5" or n.startswith("acm5.")]

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        module, fname = name.split(".")
        original = getattr(importlib.import_module(f"acm5.{module}"), fname)
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
