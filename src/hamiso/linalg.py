"""Row reduction and linear solving over a finite field.

Matrices are lists of row lists holding element indices of a gf.Field.
"""

from __future__ import annotations

from .gf import Field


def rref(field: Field, rows) -> list[list[int]]:
    """Reduced row-echelon form; zero rows are dropped."""
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    piv_r = 0
    for col in range(ncols):
        pivot = None
        for r in range(piv_r, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[piv_r], m[pivot] = m[pivot], m[piv_r]
        inv = field.inv(m[piv_r][col])
        m[piv_r] = [field.mul(inv, c) for c in m[piv_r]]
        for r in range(len(m)):
            if r != piv_r and m[r][col] != 0:
                f = m[r][col]
                m[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[r], m[piv_r])]
        piv_r += 1
        if piv_r == len(m):
            break
    return [row for row in m if any(c != 0 for c in row)]


def rank(field: Field, rows) -> int:
    return len(rref(field, rows))


def solve(field: Field, a_rows, b) -> list[int] | None:
    """One solution x of A x = b, or None if inconsistent.

    A is given by rows; x has len(A[0]) entries; free variables are set to 0.
    """
    if not a_rows:
        return None
    ncols = len(a_rows[0])
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    red = rref(field, aug)
    x = [0] * ncols
    for row in red:
        pivot = next(i for i, c in enumerate(row) if c != 0)
        if pivot == ncols:
            return None
        # free variables pinned to 0, so each pivot reads off directly
        x[pivot] = row[ncols]
    return x


def nullspace(field: Field, rows) -> list[list[int]]:
    """Basis of {x : A x = 0}, deterministic order by free column index."""
    if not rows:
        return []
    ncols = len(rows[0])
    red = rref(field, rows)
    pivots = []
    for row in red:
        pivots.append(next(i for i, c in enumerate(row) if c != 0))
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * ncols
        vec[j] = 1
        for row, p in zip(red, pivots):
            vec[p] = field.neg(row[j])
        basis.append(vec)
    return basis


def mat_vec(field: Field, rows, x) -> list[int]:
    out = []
    for r in rows:
        acc = 0
        for c, xv in zip(r, x):
            acc = field.add(acc, field.mul(c, xv))
        out.append(acc)
    return out


def vec_mat(field: Field, x, rows) -> list[int]:
    """x^T A for a row vector x and matrix rows."""
    ncols = len(rows[0]) if rows else 0
    out = [0] * ncols
    for xv, row in zip(x, rows):
        if xv != 0:
            for j, c in enumerate(row):
                if c != 0:
                    out[j] = field.add(out[j], field.mul(xv, c))
    return out


def dot(field: Field, x, y) -> int:
    acc = 0
    for a, b in zip(x, y):
        acc = field.add(acc, field.mul(a, b))
    return acc


def mat_mul(field: Field, a_rows, b_rows) -> list[list[int]]:
    return [vec_mat(field, row, b_rows) for row in a_rows]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
