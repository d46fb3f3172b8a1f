"""Dense linear algebra over the prime field F_q.

A matrix is a list of int rows with entries in 0..q-1, and it acts on
column vectors.  A matrix with no rows is `[]` whatever its column count, so
a function that needs the column count of a possibly empty matrix takes it
as an argument.  `rref` is the one Gaussian elimination; `kernel` returns a
list of basis vectors, and `mul_t` and `block_diag` build the products and
direct sums the other layers need.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import mul


@lru_cache(maxsize=None)
def _inverse_table(q: int) -> tuple:
    return tuple(0 if a == 0 else pow(a, q - 2, q) for a in range(q))


def rref(rows: list, q: int):
    """Reduced row echelon form of a matrix given as a list of int rows,
    reduced mod q into new lists.  Returns (rows, pivot_columns)."""
    r = [[x % q for x in row] for row in rows]
    n = len(r)
    inv = _inverse_table(q)
    pivots = []
    for c in range(len(r[0]) if n else 0):
        pr = len(pivots)
        for p in range(pr, n):
            if r[p][c]:
                break
        else:
            continue
        row = r[p]
        if row[c] != 1:
            s = inv[row[c]]
            row = [x * s % q for x in row]
        r[p], r[pr] = r[pr], row
        for i in range(n):
            f = r[i][c]
            if f and i != pr:
                r[i] = [(x - f * y) % q for x, y in zip(r[i], row)]
        pivots.append(c)
    return r, pivots


def rank(rows: list, q: int) -> int:
    return len(rref(rows, q)[1]) if rows and rows[0] else 0


def kernel(rows: list, ncols: int, q: int) -> list:
    """Basis vectors of {x : a x = 0} for the matrix a with these rows and
    ncols columns."""
    if not rows or not ncols:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    r, pivots = rref(rows, q)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(r, pivots):
            vec[pc] = -row[fc] % q
        basis.append(vec)
    return basis


def solve(a: list, b: list, ncols: int, q: int):
    """Rows of one solution x of a x = b, or None, where a has ncols columns
    and b as many rows as a.  With no equations (a and b are []) x is the
    ncols x 0 matrix."""
    if not a:
        return [[] for _ in range(ncols)]
    r, pivots = rref([ra + rb for ra, rb in zip(a, b)], q)
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[0] * len(b[0]) for _ in range(ncols)]
    for row, p in zip(r, pivots):
        x[p] = row[ncols:]
    return x


def is_invertible(a: list, q: int) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and rank(a, q) == n


def inverse(a: list, q: int):
    """a^-1, or None when a is singular or not square."""
    n = len(a)
    if any(len(row) != n for row in a):
        return None
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)], n, q)


def row_space(rows: list, q: int) -> list:
    """Nonzero rows of the rref: canonical basis of the row space."""
    if not rows or not rows[0]:
        return []
    r, pivots = rref(rows, q)
    return r[: len(pivots)]


def extend_row_basis(base: list, candidates: list, q: int) -> list:
    """Rows of `candidates` extending the row space of `base` to a basis
    of the combined row space; returned in candidate order."""
    stack = row_space(base, q)
    picked, r = [], rank(stack, q)
    for row in candidates:
        trial = stack + [row]
        if rank(trial, q) > r:
            stack, r = row_space(trial, q), r + 1
            picked.append(row)
    return picked


def mul_t(a: list, b: list, q: int) -> list:
    """a b^T mod q: entry (i, j) is row i of a times row j of b."""
    return [[sum(map(mul, row, col)) % q for col in b] for row in a]


def block_diag(a: list, a_cols: int, b: list, b_cols: int) -> list:
    """[[a, 0], [0, b]] for matrices a and b with a_cols and b_cols columns."""
    return [row + [0] * b_cols for row in a] + [[0] * a_cols + row for row in b]


def intertwining_rows(nvars: int, x_slot, a: list, b: list, y_slot, q: int) -> list:
    """Rows of the linear system X a - b Y = 0 in a vector of nvars unknowns.

    X and Y are row-major blocks of the unknowns, each given as (offset, rows,
    cols), or None when the block holds no unknowns (its term then drops out).
    There is one equation per entry of the product, row by row; a has the
    columns of Y when it has no rows.
    """
    if x_slot is None and y_slot is None:
        return []
    n = len(a[0]) if a else y_slot[2]
    out = []
    for i, b_row in enumerate(b):
        for j in range(n):
            row = [0] * nvars
            if x_slot is not None:  # (X a)_ij = sum_k X_ik a_kj
                off, _, c = x_slot
                for k in range(c):
                    row[off + i * c + k] = a[k][j]
            if y_slot is not None:  # (b Y)_ij = sum_k b_ik Y_kj
                off, r, c = y_slot
                for k in range(r):
                    row[off + k * c + j] = -b_row[k] % q
            out.append(row)
    return out


def subspaces(n: int, k: int, q: int):
    """All k-dimensional subspaces of F_q^n as reduced-echelon row bases."""
    if k < 0 or k > n:
        return
    if k == 0:
        yield []
        return
    for pivots in combinations(range(n), k):
        free_positions = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        for values in product(range(q), repeat=len(free_positions)):
            m = [[int(j == p) for j in range(n)] for p in pivots]
            for (i, j), val in zip(free_positions, values):
                m[i][j] = val
            yield m
