"""Small dense linear algebra on plain lists of lists.

One elimination routine, :func:`rref`, serves every scalar type the library
uses: exact ``Fraction`` (and ``int``) and binary64 ``float`` in check mode.
:func:`rank`, :func:`solve_unique` and :func:`nullspace` are built on it.
Each routine asks ``scalars.table_kind`` for the kind of its matrix once,
and pivots and tests zeros by the kind rule of ``scalars``.  A pivot row
divides through ``scalars.div``, so an exact row stays exact (int / int is a
Fraction there) and a float row divides as floats do.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import FLOAT, IS_ZERO, div, table_kind


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    kind = table_kind(x for row in rows for x in row)
    is_zero, by_magnitude = IS_ZERO[kind], kind == FLOAT
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        best = None
        for i in range(r, len(rows)):
            x = rows[i][c]
            if is_zero(x):
                continue
            if best is None or abs(x) > abs(rows[best][c]):
                best = i
            if not by_magnitude:
                break
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        rows[r] = [div(x, piv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(matrix):
    return len(rref(matrix)[1])


def solve_unique(A, b):
    """Solve A x = b requiring a unique solution; raises ValueError otherwise."""
    n = len(A[0]) if A else 0
    aug = [list(row) + [bi] for row, bi in zip(A, b)]
    rows, pivots = rref(aug)
    if n in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < n:
        raise ValueError("underdetermined linear system")
    return [row[n] for row in rows[:n]]  # pivots are the columns 0..n-1


def nullspace(matrix):
    """Basis of the kernel of the row-space map."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    one = 1.0 if table_kind(x for row in matrix for x in row) == FLOAT else Fraction(1)
    zero = one * 0
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis
