"""Dense F_q linear algebra helpers."""

import random
from itertools import product

import numpy as np

from periodic_hall import linalg


def random_matrix(rng, rows, cols, q):
    return np.array(
        [rng.randrange(q) for _ in range(rows * cols)], dtype=np.int64
    ).reshape(rows, cols)


def test_rref_and_rank():
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert linalg.rank(a, 5) == 1
    assert linalg.rank(a, 3) == 1
    assert linalg.rank(np.eye(3, dtype=np.int64), 2) == 3


def test_kernel_is_kernel():
    rng = random.Random(3)
    for q in (2, 3, 5):
        for _ in range(25):
            a = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), q)
            k = linalg.kernel(a, q)
            assert a.shape[1] == k.shape[0] or a.shape[1] == 0
            if a.size and k.size:
                assert not ((a @ k) % q).any()
            assert linalg.rank(k, q) == k.shape[1]
            assert k.shape[1] == a.shape[1] - linalg.rank(a, q)


def test_solve():
    rng = random.Random(4)
    for q in (2, 3):
        for _ in range(25):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), q)
            x = random_matrix(rng, a.shape[1], 2, q)
            b = (a @ x) % q
            got = linalg.solve(a, b, q)
            assert got is not None
            assert np.array_equal((a @ got) % q, b)
    # inconsistent system
    assert linalg.solve(np.zeros((2, 2), dtype=np.int64), np.array([1, 0]), 2) is None


def test_inverse():
    rng = random.Random(5)
    for q in (2, 3, 5):
        for _ in range(20):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n, q)
            inv = linalg.inverse(a, q)
            if inv is None:
                assert linalg.rank(a, q) < n
            else:
                assert np.array_equal((a @ inv) % q, np.eye(n, dtype=np.int64))


def test_extend_row_basis():
    q = 2
    base = np.array([[1, 0, 0]], dtype=np.int64)
    ext = linalg.extend_row_basis(base, np.eye(3, dtype=np.int64), q)
    stacked = np.concatenate([base, ext])
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
                seen = {m.tobytes() for m in subs}
                assert len(seen) == len(subs)
                for m in subs:
                    assert linalg.rank(m, q) == k


def test_inverse_of_non_square_is_none():
    a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
    assert not linalg.is_invertible(a, 2)
    assert linalg.inverse(a, 2) is None
    assert linalg.inverse(a.T.copy(), 2) is None


# -- brute-force oracle over F_q^n ---------------------------------------------


def oracle_matrices():
    """Seeded random matrices over q in {2, 3, 5} with shapes up to 4 x 5,
    every empty shape included."""
    rng = random.Random(11)
    for q in (2, 3, 5):
        shapes = [(0, 0), (0, 3), (3, 0)] + [
            (rng.randint(0, 4), rng.randint(0, 5)) for _ in range(30)
        ]
        for rows, cols in shapes:
            a = random_matrix(rng, rows, cols, q)
            if rows and cols and rng.random() < 0.3:
                a[rng.randrange(rows)] = 0  # force some rank deficiency
            yield q, a


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
    for q, a in oracle_matrices():
        rows = a.tolist()
        out, pivots = linalg.rref(rows, q)
        assert rows == a.tolist()  # the input rows are left as they were
        r = np.array(out, dtype=np.int64).reshape(a.shape)
        assert ((r >= 0) & (r < q)).all()
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert r[i, p] == 1
            assert not r[i, :p].any()
            assert not np.delete(r[:, p], i).any()
        assert not r[len(pivots) :].any()
        assert span(r, q) == span(a % q, q)


def test_kernel_size_and_rank_match_brute_force():
    for q, a in oracle_matrices():
        rows, cols = a.shape
        xs = vectors(cols, q)
        null = sum(1 for x in xs if not ((a @ x) % q).any())
        image = {tuple((a @ x) % q) for x in xs}
        k = linalg.kernel(a, q)
        assert null == q ** k.shape[1]
        assert len(image) == q ** linalg.rank(a, q)
        if k.size:
            assert not ((a @ k) % q).any()
            assert linalg.rank(k, q) == k.shape[1]


def test_solve_is_none_exactly_when_unsolvable():
    rng = random.Random(12)
    for q, a in oracle_matrices():
        rows, cols = a.shape
        image = {tuple((a @ x) % q) for x in vectors(cols, q)}
        for _ in range(3):
            b = random_matrix(rng, rows, 1, q)
            if rng.random() < 0.5:  # half the time, a right-hand side known solvable
                b = (a @ random_matrix(rng, cols, 1, q)) % q
            x = linalg.solve(a, b, q)
            assert (x is None) == (tuple(b[:, 0]) not in image)
            if x is not None:
                assert x.shape == (cols, 1)
                assert np.array_equal((a @ x) % q, b)


def test_inverse_matches_brute_force_invertibility():
    for q, a in oracle_matrices():
        rows, cols = a.shape
        inv = linalg.inverse(a, q)
        injective = sum(1 for x in vectors(cols, q) if not ((a @ x) % q).any()) == 1
        if rows != cols or not injective:
            assert inv is None
            continue
        assert np.array_equal((inv @ a) % q, np.eye(rows, dtype=np.int64))
        assert np.array_equal((a @ inv) % q, np.eye(rows, dtype=np.int64))
