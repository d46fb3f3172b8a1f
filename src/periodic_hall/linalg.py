"""Dense linear algebra over the prime field F_q.

`rref` is the one Gaussian elimination: it works on lists of int rows, and
the cone loop in `derived` calls it, with the list helpers `_kernel` and
`_solve`, directly.  The other public functions wrap it for small numpy int64
arrays with entries in 0..q-1.  Matrices act on column vectors; kernels and
column spaces are returned as matrices whose columns form a basis.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np


@lru_cache(maxsize=None)
def _inverse_table(q: int) -> tuple:
    return tuple(0 if a == 0 else pow(a, q - 2, q) for a in range(q))


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


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


def _kernel(rows: list, ncols: int, q: int) -> list:
    """Basis vectors of {x : a x = 0} for the matrix a given by its rows."""
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


def _solve(a: list, b: list, ncols: int, q: int):
    """Rows of one solution x of a x = b, where a has ncols columns and at
    least one row, or None."""
    r, pivots = rref([ra + rb for ra, rb in zip(a, b)], q)
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[0] * len(b[0]) for _ in range(ncols)]
    for row, p in zip(r, pivots):
        x[p] = row[ncols:]
    return x


def rank(a: np.ndarray, q: int) -> int:
    return len(rref(a.tolist(), q)[1]) if a.size else 0


def kernel(a: np.ndarray, q: int) -> np.ndarray:
    """Columns form a basis of {x : a @ x = 0}."""
    basis = _kernel(a.tolist(), a.shape[1], q)
    return np.array(basis, dtype=np.int64).reshape(len(basis), a.shape[1]).T


def column_space(a: np.ndarray, q: int) -> np.ndarray:
    """Columns of a forming a basis of the column space (pivot columns)."""
    return a[:, rref(a.tolist(), q)[1]] % q if a.size else zeros(a.shape[0], 0)


def solve(a: np.ndarray, b: np.ndarray, q: int):
    """One solution x of a @ x = b (b may have several columns), or None."""
    b = np.asarray(b, dtype=np.int64)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        return zeros(a.shape[1], b.shape[1])
    x = _solve(a.tolist(), b.tolist(), a.shape[1], q)
    return None if x is None else np.array(x, dtype=np.int64).reshape(a.shape[1], b.shape[1])


def is_invertible(a: np.ndarray, q: int) -> bool:
    return a.shape[0] == a.shape[1] and rank(a, q) == a.shape[0]


def inverse(a: np.ndarray, q: int):
    """a^-1, or None when a is singular or not square."""
    return solve(a, identity(a.shape[0]), q) if a.shape[0] == a.shape[1] else None


def row_space(a: np.ndarray, q: int) -> np.ndarray:
    """Nonzero rows of the rref: canonical basis of the row space."""
    if a.size == 0:
        return zeros(0, a.shape[1] if a.ndim == 2 else 0)
    r, pivots = rref(a.tolist(), q)
    return np.array(r[: len(pivots)], dtype=np.int64)


def extend_row_basis(base: np.ndarray, candidates: np.ndarray, q: int) -> np.ndarray:
    """Rows of `candidates` extending the row space of `base` to a basis
    of the combined row space; returned in candidate order."""
    cols = candidates.shape[1]
    stack = row_space(base, q) if base.size else zeros(0, cols)
    picked, r = [], rank(stack, q)
    for row in candidates:
        trial = np.concatenate([stack, row.reshape(1, -1)], axis=0)
        if rank(trial, q) > r:
            stack, r = row_space(trial, q), r + 1
            picked.append(row)
    return np.array(picked, dtype=np.int64).reshape(len(picked), cols)


def intertwining_rows(nvars: int, x_slot, a: np.ndarray, b: np.ndarray, y_slot, q: int):
    """Rows of the linear system X a - b Y = 0 in a vector of nvars unknowns.

    X and Y are row-major blocks of the unknowns, each given as (offset, rows,
    cols), or None when the block holds no unknowns (its term then drops out).
    Returns None when there are no equations or no unknowns.
    """
    n_eq = b.shape[0] * a.shape[1]
    if n_eq == 0 or (x_slot is None and y_slot is None):
        return None
    block = zeros(n_eq, nvars)
    if x_slot is not None:
        off, r, c = x_slot
        # vec(X a) = kron(I, a^T) vec(X)
        block[:, off : off + r * c] = np.kron(identity(r), a.T)
    if y_slot is not None:
        off, r, c = y_slot
        # vec(b Y) = kron(b, I) vec(Y)
        block[:, off : off + r * c] -= np.kron(b, identity(c))
    return block % q


def subspaces(n: int, k: int, q: int):
    """All k-dimensional subspaces of F_q^n as reduced-echelon row bases."""
    if k < 0 or k > n:
        return
    if k == 0:
        yield zeros(0, n)
        return
    for pivots in combinations(range(n), k):
        free_positions = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        base = zeros(k, n)
        for i, p in enumerate(pivots):
            base[i, p] = 1
        for values in product(range(q), repeat=len(free_positions)):
            m = base.copy()
            for (i, j), val in zip(free_positions, values):
                m[i, j] = val
            yield m
