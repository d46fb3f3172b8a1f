"""Dense F_q linear algebra helpers, on matrices given as lists of int rows.

The brute-force oracle evaluates products with numpy on the test side.
"""

import random
from itertools import product

import numpy as np

from periodic_hall import linalg


def random_matrix(rng, rows, cols, q):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def array(rows, cols):
    """The int-row matrix as a numpy array with cols columns."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), cols)


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_rref_and_rank():
    a = [[1, 2], [2, 4]]
    assert linalg.rank(a, 5) == 1
    assert linalg.rank(a, 3) == 1
    assert linalg.rank(eye(3), 2) == 3


def test_kernel_is_kernel():
    rng = random.Random(3)
    for q in (2, 3, 5):
        for _ in range(25):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            a = random_matrix(rng, rows, cols, q)
            k = linalg.kernel(a, cols, q)
            assert all(len(vec) == cols for vec in k)
            if rows and k:
                assert not ((array(a, cols) @ array(k, cols).T) % q).any()
            assert linalg.rank(k, q) == len(k)
            assert len(k) == cols - linalg.rank(a, q)


def test_solve():
    rng = random.Random(4)
    for q in (2, 3):
        for _ in range(25):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, rows, cols, q)
            x = random_matrix(rng, cols, 2, q)
            b = ((array(a, cols) @ array(x, 2)) % q).tolist()
            got = linalg.solve(a, b, cols, q)
            assert got is not None
            assert np.array_equal((array(a, cols) @ array(got, 2)) % q, b)
    # inconsistent system
    assert linalg.solve([[0, 0], [0, 0]], [[1], [0]], 2, 2) is None


def test_extend_row_basis():
    q = 2
    base = [[1, 0, 0]]
    ext = linalg.extend_row_basis(base, eye(3), q)
    stacked = base + ext
    assert linalg.rank(stacked, q) == 3


def test_subspace_count_matches_gaussian_binomial():
    def gauss(n, k, q):
        num, den = 1, 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (k - i) - 1
        return num // den

    for q in (2, 3):
        for n in range(0, 4):
            for k in range(0, n + 1):
                subs = list(linalg.subspaces(n, k, q))
                assert len(subs) == gauss(n, k, q)
                seen = {tuple(map(tuple, m)) for m in subs}
                assert len(seen) == len(subs)
                for m in subs:
                    assert linalg.rank(m, q) == k


def test_inverse_of_non_square_is_none():
    """A non-square matrix of full rank has no inverse."""
    a = [[1, 0, 1], [0, 1, 1]]
    assert not linalg.is_invertible(a, 2)
    assert not linalg.is_invertible([list(col) for col in zip(*a)], 2)


def test_mul_t_and_block_diag_match_numpy():
    rng = random.Random(7)
    for q in (2, 3, 5):
        for _ in range(20):
            r, k, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            a, b = random_matrix(rng, r, k, q), random_matrix(rng, c, k, q)
            got = linalg.mul_t(a, b, q)
            assert np.array_equal(array(got, c), (array(a, k) @ array(b, k).T) % q)
            r2, c2 = rng.randint(0, 3), rng.randint(0, 3)
            d = random_matrix(rng, r2, c2, q)
            want = np.zeros((r + r2, k + c2), dtype=np.int64)
            want[:r, :k], want[r:, k:] = array(a, k), array(d, c2)
            assert np.array_equal(array(linalg.block_diag(a, k, d, c2), k + c2), want)


def test_intertwining_rows_match_kronecker_products():
    """The rows of X a - b Y = 0 are the rows of kron(I, a^T) and -kron(b, I)."""
    rng = random.Random(8)
    for q in (2, 3):
        for _ in range(30):
            m, c, n, r = (rng.randint(1, 3) for _ in range(4))
            a, b = random_matrix(rng, c, n, q), random_matrix(rng, m, r, q)
            x_slot, y_slot = (1, m, c), (1 + m * c, r, n)
            nvars = 2 + m * c + r * n
            want = np.zeros((m * n, nvars), dtype=np.int64)
            want[:, 1 : 1 + m * c] = np.kron(np.eye(m, dtype=np.int64), array(a, n).T)
            want[:, 1 + m * c : 1 + m * c + r * n] -= np.kron(
                array(b, r), np.eye(n, dtype=np.int64)
            )
            got = linalg.intertwining_rows(nvars, x_slot, a, b, y_slot, q)
            assert np.array_equal(array(got, nvars), want % q)
            # a block without unknowns drops out (a may then have no rows)
            want[:, 1 : 1 + m * c] = 0
            for a_rows in (a, []):
                got = linalg.intertwining_rows(nvars, None, a_rows, b, y_slot, q)
                assert np.array_equal(array(got, nvars), want % q)
            assert linalg.intertwining_rows(nvars, None, a, b, None, q) == []


# -- brute-force oracle over F_q^n ---------------------------------------------


def oracle_matrices():
    """Seeded random matrices over q in {2, 3, 5} with shapes up to 4 x 5,
    every empty shape included, as (q, int rows, column count)."""
    rng = random.Random(11)
    for q in (2, 3, 5):
        shapes = [(0, 0), (0, 3), (3, 0)] + [
            (rng.randint(0, 4), rng.randint(0, 5)) for _ in range(30)
        ]
        for rows, cols in shapes:
            a = random_matrix(rng, rows, cols, q)
            if rows and cols and rng.random() < 0.3:
                a[rng.randrange(rows)] = [0] * cols  # force some rank deficiency
            yield q, a, cols


def vectors(n, q):
    return [np.array(x, dtype=np.int64) for x in product(range(q), repeat=n)]


def span(rows, q):
    """Every F_q-combination of the rows, as a set of tuples."""
    n = rows.shape[1]
    return {
        tuple((np.array(c, dtype=np.int64) @ rows) % q) if len(c) else (0,) * n
        for c in product(range(q), repeat=rows.shape[0])
    }


def test_rref_is_reduced_echelon_with_same_row_space():
    for q, rows, cols in oracle_matrices():
        a = array(rows, cols)
        out, pivots = linalg.rref(rows, q)
        assert rows == a.tolist()  # the input rows are left as they were
        r = array(out, cols)
        assert ((r >= 0) & (r < q)).all()
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert r[i, p] == 1
            assert not r[i, :p].any()
            assert not np.delete(r[:, p], i).any()
        assert not r[len(pivots) :].any()
        assert span(r, q) == span(a % q, q)


def test_kernel_size_and_rank_match_brute_force():
    for q, rows, cols in oracle_matrices():
        a = array(rows, cols)
        xs = vectors(cols, q)
        null = sum(1 for x in xs if not ((a @ x) % q).any())
        image = {tuple((a @ x) % q) for x in xs}
        k = linalg.kernel(rows, cols, q)
        assert null == q ** len(k)
        assert len(image) == q ** linalg.rank(rows, q)
        if k:
            assert not ((a @ array(k, cols).T) % q).any()
            assert linalg.rank(k, q) == len(k)


def test_solve_is_none_exactly_when_unsolvable():
    rng = random.Random(12)
    for q, rows, cols in oracle_matrices():
        a = array(rows, cols)
        image = {tuple((a @ x) % q) for x in vectors(cols, q)}
        for _ in range(3):
            b = random_matrix(rng, len(rows), 1, q)
            if rng.random() < 0.5:  # half the time, a right-hand side known solvable
                b = ((a @ array(random_matrix(rng, cols, 1, q), 1)) % q).tolist()
            x = linalg.solve(rows, b, cols, q)
            assert (x is None) == (tuple(row[0] for row in b) not in image)
            if x is not None:
                # a system of no rows has b == [], whose width is 0
                width = 1 if rows else 0
                assert np.shape(array(x, width)) == (cols, width)
                assert np.array_equal((a @ array(x, width)) % q, array(b, width))


def test_inverse_matches_brute_force_invertibility():
    """is_invertible, which `RepContext._invertible_maps` reads, against the
    brute-force oracle: a matrix has an inverse when it is square and only
    the zero vector maps to zero."""
    for q, rows, cols in oracle_matrices():
        cols = cols if rows else 0  # [] is the 0 x 0 matrix
        a = array(rows, cols)
        injective = sum(1 for x in vectors(cols, q) if not ((a @ x) % q).any()) == 1
        assert linalg.is_invertible(rows, q) is (len(rows) == cols and injective)
