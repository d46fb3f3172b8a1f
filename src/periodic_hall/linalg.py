"""Dense linear algebra over the prime field F_q.

Everything operates on small numpy int64 arrays with entries reduced to
0..q-1.  Matrices act on column vectors; kernels and column spaces are
returned as matrices whose columns form a basis.  Sizes stay in the tens,
so plain Gaussian elimination is the right tool.
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


def rref(a: np.ndarray, q: int):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    r = np.array(a, dtype=np.int64) % q
    rows, cols = r.shape
    inv = _inverse_table(q)
    pivots = []
    pr = 0
    for c in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(r[pr:, c])[0]
        if nz.size == 0:
            continue
        p = pr + nz[0]
        if p != pr:
            r[[pr, p]] = r[[p, pr]]
        r[pr] = (r[pr] * inv[r[pr, c]]) % q
        mask = np.nonzero(r[:, c])[0]
        mask = mask[mask != pr]
        if mask.size:
            r[mask] = (r[mask] - np.outer(r[mask, c], r[pr])) % q
        pivots.append(c)
        pr += 1
    return r, pivots


def rank(a: np.ndarray, q: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, q)[1])


def kernel(a: np.ndarray, q: int) -> np.ndarray:
    """Columns form a basis of {x : a @ x = 0}."""
    rows, cols = a.shape
    if cols == 0:
        return zeros(0, 0)
    if rows == 0:
        return identity(cols)
    r, pivots = rref(a, q)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(cols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % q
    return basis


def column_space(a: np.ndarray, q: int) -> np.ndarray:
    """Columns of a forming a basis of the column space (pivot columns)."""
    if a.size == 0:
        return zeros(a.shape[0], 0)
    _, pivots = rref(a, q)
    return a[:, pivots] % q


def solve(a: np.ndarray, b: np.ndarray, q: int):
    """One solution x of a @ x = b (b may have several columns), or None."""
    rows = a.shape[0]
    b = np.asarray(b, dtype=np.int64) % q
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != rows:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    aug = np.concatenate([a % q, b], axis=1)
    r, pivots = rref(aug, q)
    ncols = a.shape[1]
    if any(p >= ncols for p in pivots):
        return None
    x = zeros(ncols, b.shape[1])
    for i, p in enumerate(pivots):
        x[p] = r[i, ncols:]
    return x


def is_invertible(a: np.ndarray, q: int) -> bool:
    return a.shape[0] == a.shape[1] and rank(a, q) == a.shape[0]


def inverse(a: np.ndarray, q: int):
    n = a.shape[0]
    aug = np.concatenate([a % q, identity(n)], axis=1)
    r, pivots = rref(aug, q)
    if pivots != list(range(n)):
        return None
    return r[:, n:]


def row_space(a: np.ndarray, q: int) -> np.ndarray:
    """Nonzero rows of the rref: canonical basis of the row space."""
    if a.size == 0:
        return zeros(0, a.shape[1] if a.ndim == 2 else 0)
    r, pivots = rref(a, q)
    return r[: len(pivots)]


def extend_row_basis(base: np.ndarray, candidates: np.ndarray, q: int) -> np.ndarray:
    """Rows of `candidates` extending the row space of `base` to a basis
    of the combined row space; returned in candidate order."""
    cols = candidates.shape[1]
    stack = row_space(base, q) if base.size else zeros(0, cols)
    picked = []
    r = rank(stack, q)
    for row in candidates:
        trial = np.concatenate([stack, row.reshape(1, -1)], axis=0)
        r2 = rank(trial, q)
        if r2 > r:
            stack = row_space(trial, q)
            picked.append(row)
            r = r2
    return np.array(picked, dtype=np.int64).reshape(len(picked), cols)


def intertwining_rows(nvars: int, x_slot, a: np.ndarray, b: np.ndarray, y_slot, q: int):
    """Rows of the linear system X a - b Y = 0 in a vector of nvars unknowns.

    X and Y are row-major matrix blocks of the unknowns, each given as
    (offset, rows, cols), or None when the block holds no unknowns (its term
    then drops out).  Returns None when there are no equations or no
    unknowns.
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
