"""Quiver representations over F_q: enumeration, Hom/Ext, Aut, Hall numbers."""

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_hall import linalg
from periodic_hall.errors import InvariantError, ParseError, ResourceLimitError, UsageError
from periodic_hall.repcat import Quiver, Rep, RepContext, _residue_degree, make_rep

from conftest import _rep_context


def test_quiver_parsing():
    a2 = Quiver.parse("A2")
    assert a2.n == 2 and a2.arrows == ((0, 1),)
    lit = Quiver.parse("3; 1->2, 2->3")
    assert lit.arrows == ((0, 1), (1, 2))
    kronecker = Quiver.parse("2; 1->2, 1->2")
    assert kronecker.arrows == ((0, 1), (0, 1))
    with pytest.raises(ParseError):
        Quiver.parse("2; 1->2, 2->1")  # oriented cycle
    with pytest.raises(ParseError):
        Quiver.parse("nonsense")


def test_enumeration_a2(ctx_factory):
    ctx = ctx_factory("A2", 2)
    names = {c.name for c in ctx.iso_classes_upto((1, 1))}
    assert names == {"0", "S1", "S2", "S1+S2", "P1"}
    assert len(ctx.iso_classes_upto((0, 0))) == 1
    # bounds are normalised to ints, and a bad one is refused after others are cached
    assert ctx.iso_classes_upto([1, 1]) is ctx.iso_classes_upto((1, 1))
    for bad in [(1,), (1, -1), (1, 1, 1)]:
        with pytest.raises(UsageError, match="bad bound"):
            ctx.iso_classes_upto(bad)


def test_enumeration_a1(ctx_factory):
    ctx = ctx_factory("A1", 2)
    names = [c.name for c in ctx.iso_classes_upto((2,))]
    assert names == ["0", "S1", "S1+S1"]


def test_enumeration_class_counts_match_orbit_partition(ctx_factory):
    # sum over classes of |orbit| must exhaust all representations per cell
    ctx = ctx_factory("A2", 3)
    cell = ctx._cell((1, 1))
    assert len(cell.orbit_of) == 3  # q^1 matrices
    assert sorted(c.name for c in cell.classes) == ["P1", "S1+S2"]


def test_kronecker_has_extra_indecomposables(ctx_factory):
    # dimension vector (1,1) over the Kronecker quiver: q+1 regular classes
    # plus the decomposable one
    ctx = ctx_factory("2; 1->2, 1->2", 2)
    classes = ctx.iso_classes_with_dims((1, 1))
    assert len(classes) == 4  # S1+S2 and three indecomposables (q + 1)
    x_names = [c.name for c in classes if c.name.startswith("X")]
    assert len(x_names) == 3


def test_hom_ext_dimensions(ctx_factory):
    for q in (2, 3):
        ctx = ctx_factory("A2", q)
        S1 = ctx.class_by_name("S1")
        S2 = ctx.class_by_name("S2")
        P1 = ctx.class_by_name("P1")

        def hom_ext(a, b):
            return ctx.hom_dim(a, b), ctx.ext_dim(a, b)

        assert hom_ext(S1, S2) == (0, 1)
        assert hom_ext(S2, S1) == (0, 0)
        assert hom_ext(S1, S1) == (1, 0)
        assert hom_ext(ctx.zero_class, S2) == (0, 0)
        assert hom_ext(P1, S1) == (1, 0)
        assert hom_ext(P1, S2) == (0, 0)
        assert hom_ext(S2, P1) == (1, 0)


def test_euler_form(ctx_factory):
    ctx = ctx_factory("A2", 2)
    assert ctx.quiver.euler((1, 0), (0, 1)) == -1
    assert ctx.quiver.euler((1, 0), (0, 0)) == 0
    # on doubled vectors the form counts quarter units: <S1/2, S1/2> = 1/4
    assert ctx.quiver.euler((1, 0), (1, 0)) == 1
    assert ctx.sym_t_units((1, 0), (0, 1)) == -1


def test_euler_matches_hom_minus_ext(ctx_factory):
    for quiver in ("A2", "A3"):
        ctx = ctx_factory(quiver, 2)
        classes = ctx.iso_classes_upto((1,) * ctx.quiver.n)
        for m in classes:
            for n in classes:
                h, e = ctx.hom_dim(m, n), ctx.ext_dim(m, n)
                assert h - e == ctx.quiver.euler(m.dims, n.dims)


def test_aut_counts(ctx_factory):
    for q in (2, 3):
        ctx = ctx_factory("A2", q)
        assert ctx.aut_count(ctx.zero_class) == 1
        assert ctx.aut_count(ctx.class_by_name("S1")) == q - 1
        assert ctx.aut_count(ctx.class_by_name("P1")) == q - 1
        # |GL_2(F_q)| by the standard order formula, an independent oracle
        assert ctx.aut_count(ctx.class_by_name("S1+S1")) == (q**2 - 1) * (q**2 - q)


def test_aut_count_nonsplit_endomorphisms(ctx_factory):
    # End(P1 + S1) over A2 is 3-dimensional; brute force must see exactly
    # the invertible pairs
    ctx = ctx_factory("A2", 2)
    cls = ctx.class_by_name("S1+P1")
    assert ctx.aut_count(cls) == 2  # unipotent Hom(P1,S1) times two units


def test_submodule_hall_numbers(ctx_factory):
    for q in (2, 3):
        ctx = ctx_factory("A2", q)
        S1 = ctx.class_by_name("S1")
        S2 = ctx.class_by_name("S2")
        P1 = ctx.class_by_name("P1")
        SS = ctx.class_by_name("S1+S2")
        assert ctx.submodule_hall_number(P1, S1, S2) == 1
        assert ctx.submodule_hall_number(P1, S2, S1) == 0
        assert ctx.submodule_hall_number(SS, S1, S2) == 1
        assert ctx.submodule_hall_number(SS, S2, S1) == 1
        assert ctx.submodule_hall_number(P1, ctx.zero_class, P1) == 1
        assert ctx.submodule_hall_number(P1, P1, ctx.zero_class) == 1
        # dimension mismatch short-circuits
        assert ctx.submodule_hall_number(P1, S1, S1) == 0


def test_submodule_partition_counts_each_submodule_once(ctx_factory):
    # For each L and each sub-dimension k: summing g^L_{M,N} over all class
    # pairs of the right dimensions equals the raw count of arrow-closed
    # subspace tuples, counted directly here without classification.
    ctx = ctx_factory("A2", 2)
    q = ctx.q
    for L in ctx.iso_classes_upto((1, 2)):
        rep = ctx.representative(L)
        for k in product(*(range(d + 1) for d in L.dims)):
            direct = 0
            for rows in product(
                *(linalg.subspaces(rep.dims[v], k[v], q) for v in range(2))
            ):
                if ctx._subrep(rep, rows) is not None:
                    direct += 1
            total = 0
            mdims = tuple(a - b for a, b in zip(L.dims, k))
            for n_cls in ctx.iso_classes_with_dims(k):
                for m_cls in ctx.iso_classes_with_dims(mdims):
                    total += ctx.submodule_hall_number(L, m_cls, n_cls)
            assert total == direct, (L.name, k)


def oracle_submodule_hall_number(ctx, L, M, N):
    """g^L_{M,N} by its own scan of the subspace tuples with dims N."""
    if tuple(m + n for m, n in zip(M.dims, N.dims)) != L.dims:
        return 0
    repL = ctx.representative(L)
    count = 0
    for rows in product(
        *(linalg.subspaces(repL.dims[v], N.dims[v], ctx.q) for v in range(ctx.quiver.n))
    ):
        sub = ctx._subrep(repL, rows)
        if sub is None or ctx.classify_rep(sub) is not N:
            continue
        count += ctx.classify_rep(ctx._quotient_rep(repL, rows)) is M
    return count


@pytest.mark.parametrize(
    "quiver, bound",
    [("A2", (2, 1)), ("A3", (1, 1, 1)), ("2; 1->2, 1->2", (1, 1))],
)
@pytest.mark.parametrize("q", [2, 3])
def test_submodule_table_matches_per_triple_scan(quiver, bound, q):
    """Each table (L, d) holds exactly the pairs (N, M) with dims d and
    L - d that the per-triple scan counts as nonzero, with its counts, and
    submodule_hall_number reads the same number for every triple."""
    ctx = RepContext(Quiver.parse(quiver), q)
    classes = ctx.iso_classes_upto(bound)
    for L in classes:
        for d in product(*(range(x + 1) for x in L.dims)):
            want = {}
            for N in ctx.iso_classes_with_dims(d):
                for M in ctx.iso_classes_with_dims(tuple(x - y for x, y in zip(L.dims, d))):
                    g = oracle_submodule_hall_number(ctx, L, M, N)
                    assert ctx.submodule_hall_number(L, M, N) == g
                    if g:
                        want[(N, M)] = g
            assert ctx.submodule_table(L, d) == want, (L.name, d)
            assert ctx.submodule_table(L, list(d)) is ctx.submodule_table(L, d)


def test_submodule_table_refuses_bad_input():
    a, b = (RepContext(Quiver.parse("A2"), 2) for _ in range(2))
    P1, S1, S2 = (a.class_by_name(name) for name in ("P1", "S1", "S2"))
    foreign = {name: b.class_by_name(name) for name in ("P1", "S1", "S2")}
    for args, where in (
        ((foreign["P1"], S1, S2), "as L"),
        ((P1, foreign["S1"], S2), "as M"),
        ((P1, S1, foreign["S2"]), "as N"),
    ):
        with pytest.raises(UsageError, match=f"{where} belongs to another context"):
            a.submodule_hall_number(*args)
    with pytest.raises(UsageError, match="as L belongs to another context"):
        a.submodule_table(foreign["P1"], (0, 1))
    with pytest.raises(UsageError, match="expected an IsoClass"):
        a.submodule_hall_number("P1", S1, S2)
    for dims in ((0,), (1, -1)):
        with pytest.raises(UsageError, match="bad submodule dimension vector"):
            a.submodule_table(P1, dims)
    assert a.submodule_hall_number(P1, S1, S2) == 1
    assert b.submodule_hall_number(*foreign.values()) == 1


def test_submodule_table_cap_is_per_dimension_vector():
    """The scan of (L, d) stops at max_brute_force subspace tuples with the
    count in the message, whatever else is cached; a smaller d still runs."""
    ctx = RepContext(Quiver.parse("A2"), 2, max_brute_force=2)
    L = ctx.class_by_name("S1+S1")
    assert ctx.submodule_table(L, (0, 0)) == {(ctx.zero_class, L): 1}
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match=r"^3 subspace tuples to scan \(cap 2\)$"):
            ctx.submodule_hall_number(L, ctx.class_by_name("S1"), ctx.class_by_name("S1"))


def oracle_quotient_rep(ctx, repL, rows):
    """L / span(rows) through a complement of the rows, completed from the
    standard basis, and one inverse change of basis per vertex."""
    q = ctx.q
    comp = []
    inv_basis = []
    for v in range(ctx.quiver.n):
        d = repL.dims[v]
        identity = [[int(i == j) for j in range(d)] for i in range(d)]
        c = linalg.extend_row_basis(rows[v], identity, q)
        comp.append(c)
        w = rows[v] + c  # rows form a basis
        inv_basis.append(linalg.inverse([list(col) for col in zip(*w)], q))
    mats = []
    for idx, (s, t) in enumerate(ctx.quiver.arrows):
        # coordinates of L_a c in the basis rows[t] + comp[t], for c in comp[s]
        image_t = linalg.mul_t(comp[s], repL.mats[idx], q)
        coords = linalg.mul_t(inv_basis[t], image_t, q)
        mats.append(coords[len(rows[t]) :])
    return Rep(tuple(map(len, comp)), tuple(mats))


def is_isomorphic(ctx, repA, repB) -> bool:
    """Exhaustive invertible-intertwiner search; independent of orbits."""
    if repA.dims != repB.dims:
        return False
    if not any(repA.dims):
        return True
    maps = ctx._invertible_maps(ctx.hom_basis(repA, repB), repA.dims, "Hom")
    return next(maps, None) is not None


def random_base_change(ctx, rep, rng):
    """Random isomorphic copy of rep: g_t m g_s^-1 on each arrow s -> t."""
    q = ctx.q
    gs = []
    for d in rep.dims:
        while True:
            g = [[rng.randrange(q) for _ in range(d)] for _ in range(d)]
            if d == 0 or linalg.is_invertible(g, q):
                gs.append(g)
                break
    out = []
    for idx, (s, t) in enumerate(ctx.quiver.arrows):
        ginv_t = [list(col) for col in zip(*linalg.inverse(gs[s], q))]
        # mul_t(ginv_t, m) is (m g_s^-1)^T
        out.append(linalg.mul_t(gs[t], linalg.mul_t(ginv_t, rep.mats[idx], q), q))
    return Rep(rep.dims, tuple(out))


def oracle_syzygy(ctx, cover, kernels):
    """The kernel of a projective cover as a representation, arrow by arrow:
    the image of each kernel vector solved in the kernel basis."""
    q = ctx.q
    iota = [
        [[k[i] for k in kernels[v]] for i in range(cover.dims[v])]
        for v in range(ctx.quiver.n)
    ]
    k_mats = []
    for idx, (s, t) in enumerate(ctx.quiver.arrows):
        image = linalg.mul_t(cover.mats[idx], kernels[s], q)
        z = linalg.solve(iota[t], image, len(kernels[t]), q)
        assert z is not None
        k_mats.append(z)
    return Rep(tuple(map(len, kernels)), tuple(k_mats))


@pytest.mark.parametrize(
    "quiver, bound",
    [("A2", (2, 2)), ("A3", (1, 1, 1)), ("2; 1->2, 1->2", (2, 2))],
)
@pytest.mark.parametrize("q", [2, 3])
def test_restriction_and_homology_match_oracles(dctx_factory, quiver, bound, q):
    """Syzygies (restrictions of the cover) equal the arrow-by-arrow oracle
    matrix for matrix, and quotients (homology of an inclusion) have the
    class of the complement-basis oracle for every arrow-closed subspace
    tuple."""
    d = dctx_factory(quiver, q)
    ctx = d.rep
    quotients = 0
    for cls in ctx.iso_classes_upto(bound):
        syzygy, cover, iota = d._stalk_resolution(cls)
        kernels = [[list(col) for col in zip(*m)] for m in iota]
        want = oracle_syzygy(ctx, cover, kernels)
        assert (syzygy.dims, syzygy.mats) == (want.dims, want.mats), cls
        rep = ctx.representative(cls)
        per_vertex = [
            [s for k in range(dim + 1) for s in linalg.subspaces(dim, k, q)]
            for dim in rep.dims
        ]
        for rows in product(*per_vertex):
            if ctx._subrep(rep, rows) is None:
                continue
            got = ctx.classify_rep(ctx._quotient_rep(rep, rows))
            want = ctx.classify_rep(oracle_quotient_rep(ctx, rep, rows))
            assert got == want, (cls, rows)
            quotients += 1
    assert quotients


def test_classification_invariant_under_base_change(ctx_factory):
    rng = random.Random(17)
    for quiver, q in (("A2", 2), ("A2", 3), ("A3", 2)):
        ctx = ctx_factory(quiver, q)
        for cls in ctx.iso_classes_upto((1,) * ctx.quiver.n):
            rep = ctx.representative(cls)
            for _ in range(5):
                moved = random_base_change(ctx, rep, rng)
                assert ctx.classify_rep(moved) == cls


def test_intertwiner_isomorphism_agrees_with_orbits(ctx_factory):
    # the exhaustive invertible-intertwiner search is an independent oracle
    # for the orbit-partition classification
    ctx = ctx_factory("A2", 2)
    rng = random.Random(23)
    classes = ctx.iso_classes_upto((1, 1))
    reps = {c: ctx.representative(c) for c in classes}
    for a in classes:
        for b in classes:
            expected = a == b
            assert is_isomorphic(ctx, reps[a], reps[b]) == expected
    # and on scrambled representatives
    for c in classes:
        moved = random_base_change(ctx, reps[c], rng)
        assert is_isomorphic(ctx, reps[c], moved)


@pytest.mark.parametrize(
    "quiver, bound",
    [("A2", (2, 2)), ("A3", (1, 1, 1)), ("2; 1->2, 1->2", (2, 2))],
)
@pytest.mark.parametrize("q", [2, 3])
def test_hom_basis_intertwines(ctx_factory, quiver, bound, q):
    ctx = ctx_factory(quiver, q)
    classes = ctx.iso_classes_upto(bound)
    for M, N in product(classes, repeat=2):
        repM, repN = ctx.representative(M), ctx.representative(N)
        basis = ctx.hom_basis(repM, repN)
        assert len(basis) == ctx.hom_dim(M, N)
        for phi in basis:
            for v in range(ctx.quiver.n):
                assert _is_int_rows(phi[v], (repN.dims[v], repM.dims[v]), q)
            for idx, (s, t) in enumerate(ctx.quiver.arrows):
                lhs = _matmul(phi[t], repM.mats[idx], repM.dims[s], q)
                rhs = _matmul(repN.mats[idx], phi[s], repM.dims[s], q)
                assert lhs == rhs, (M, N, idx)
        if basis:
            flat = [[x for m in phi for row in m for x in row] for phi in basis]
            assert linalg.rank(flat, q) == len(basis)  # a basis, not a spanning set


def _is_int_rows(m, shape, q) -> bool:
    """m is a list of `shape[0]` lists of `shape[1]` ints in 0..q-1 (numpy
    integers do not count)."""
    rows, cols = shape
    return (
        type(m) is list
        and len(m) == rows
        and all(type(row) is list and len(row) == cols for row in m)
        and all(type(x) is int and 0 <= x < q for row in m for x in row)
    )


def _matmul(a, b, cols, q):
    """a b mod q for int-row matrices, b with cols columns."""
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) % q for j in range(cols)]
        for row in a
    ]


@pytest.mark.parametrize(
    "quiver, bound",
    [("A2", (2, 2)), ("A3", (1, 1, 1)), ("2; 1->2, 1->2", (2, 2))],
)
@pytest.mark.parametrize("q", [2, 3])
def test_matrices_are_int_rows(dctx_factory, quiver, bound, q):
    """Representatives, Hom bases and resolutions hold every matrix as a list
    of int rows shaped by the dimension vectors, and make_rep turns numpy
    arrays and unreduced rows into the same rows."""
    d = dctx_factory(quiver, q)
    ctx = d.rep
    arrows = ctx.quiver.arrows
    classes = ctx.iso_classes_upto(bound)
    for M in classes:
        rep = ctx.representative(M)
        for m, (s, t) in zip(rep.mats, arrows):
            assert _is_int_rows(m, (rep.dims[t], rep.dims[s]), q), M
        for N in classes:
            repN = ctx.representative(N)
            for phi in ctx.hom_basis(rep, repN):
                for v, m in enumerate(phi):
                    assert _is_int_rows(m, (repN.dims[v], rep.dims[v]), q), (M, N)
        cpx = d.resolution(d.stalk(M, 1))
        for n, term in cpx.terms.items():
            for m, (s, t) in zip(term.mats, arrows):
                assert _is_int_rows(m, (term.dims[t], term.dims[s]), q), (M, n)
            for v, m in enumerate(cpx.diff(n)):
                assert _is_int_rows(m, (cpx.term(n + 1).dims[v], term.dims[v]), q)

        shapes = [(rep.dims[t], rep.dims[s]) for s, t in arrows]
        arrays = [np.array(m, dtype=np.int64).reshape(sh) for m, sh in zip(rep.mats, shapes)]
        unreduced = [[[x + q * k for x in row] for row in m] for k, m in enumerate(rep.mats)]
        for mats in (arrays, unreduced):
            made = make_rep(ctx.quiver, q, rep.dims, mats)
            assert made.dims == rep.dims and made.mats == rep.mats, M
        one_more_row = [m + [[0] * sh[1]] for m, sh in zip(rep.mats, shapes)]
        vectors = [[1] for _ in arrows]  # a vector per arrow, not a matrix
        for bad in (one_more_row, vectors):
            with pytest.raises(UsageError):
                make_rep(ctx.quiver, q, rep.dims, bad)


def test_orbit_classification_matches_intertwiner_on_random_reps(ctx_factory):
    # two independent isomorphism deciders must agree on arbitrary matrices
    rng = random.Random(71)
    for quiver, q in (("A2", 2), ("A2", 3)):
        ctx = ctx_factory(quiver, q)
        for _ in range(40):
            dims = tuple(rng.randint(0, 2) for _ in range(ctx.quiver.n))
            reps = []
            for _ in range(2):
                mats = [
                    [[rng.randrange(q) for _ in range(dims[s])] for _ in range(dims[t])]
                    for s, t in ctx.quiver.arrows
                ]
                reps.append(Rep(dims, tuple(mats)))
            same_class = ctx.classify_rep(reps[0]) == ctx.classify_rep(reps[1])
            assert same_class == is_isomorphic(ctx, reps[0], reps[1])


def test_q5_smoke(ctx_factory):
    ctx = ctx_factory("A1", 5)
    S = ctx.class_by_name("S1")
    assert ctx.aut_count(S) == 4
    assert ctx.aut_count(ctx.class_by_name("S1+S1")) == (25 - 1) * (25 - 5)
    assert (ctx.hom_dim(S, S), ctx.ext_dim(S, S)) == (1, 0)


def test_iso_classes_are_interned(ctx_factory):
    ctx = ctx_factory("A2", 2)
    a = ctx.class_by_name("S1+P1")
    b = ctx.direct_sum_class(ctx.class_by_name("P1"), ctx.class_by_name("S1"))
    assert a is b


def test_iso_classes_of_two_contexts_are_distinct():
    a, b = (RepContext(Quiver.parse("A2"), 2) for _ in range(2))
    p1a, p1b = a.class_by_name("P1"), b.class_by_name("P1")
    assert (p1a.key, p1a.name, p1a.dims) == (p1b.key, p1b.name, p1b.dims)
    assert p1a != p1b
    assert p1b not in {p1a: 1}


def test_iso_classes_upto_is_cached_per_bound(monkeypatch):
    ctx = RepContext(Quiver.parse("A2"), 2)
    first = ctx.iso_classes_upto((2, 1))

    def no_cells(dims):
        raise AssertionError(f"cell {dims} looked up again")

    monkeypatch.setattr(ctx, "_cell", no_cells)
    second = ctx.iso_classes_upto([2, 1])  # the same bound, normalized
    # one immutable tuple, so no caller can corrupt the cache
    assert second is first and isinstance(second, tuple)
    with pytest.raises(UsageError):
        ctx.iso_classes_upto((2, -1))
    with pytest.raises(UsageError):
        ctx.iso_classes_upto((2,))


@pytest.mark.parametrize("quiver", ["A2", "2; 1->2, 1->2"])
@pytest.mark.parametrize("q", [2, 3])
def test_classify_rep_accepts_int_rows(ctx_factory, quiver, q):
    """Matrices given as lists of int rows, entries unreduced or not, get the
    class of the representative with those rows."""
    ctx = ctx_factory(quiver, q)
    rng = random.Random(q)
    for cls in ctx.iso_classes_upto((2, 2)):
        rep = ctx.representative(cls)
        rows = tuple([list(row) for row in m] for m in rep.mats)
        assert ctx.classify_rep(Rep(rep.dims, rows)) is cls
        shifted = tuple(
            [[x + q * rng.randrange(3) for x in row] for row in m] for m in rows
        )
        assert ctx.classify_rep(Rep(rep.dims, shifted)) is cls


@pytest.mark.parametrize("mats", [([[1, 0]],), (np.array([[1, 0]]),), ()])
def test_classify_rep_rejects_wrong_entry_count(ctx_factory, mats):
    """A matrix of the wrong shape for the dimension vector is an error, not a
    silently truncated code."""
    ctx = ctx_factory("A2", 2)
    with pytest.raises(InvariantError):
        ctx.classify_rep(Rep((1, 1), mats))


def test_class_name_parsing(ctx_factory):
    ctx = ctx_factory("A3", 2)
    assert ctx.class_by_name("0") is ctx.zero_class
    p2 = ctx.class_by_name("P2")
    assert p2.dims == (0, 1, 1)
    i2 = ctx.class_by_name("I2")
    assert i2.dims == (1, 1, 0)
    both = ctx.class_by_name("P2+I2")
    assert both.dims == (1, 2, 1)
    for text in ("S9", "garbage", "", "S1+", "S1 S2", "0+S1", "S1+0", "+S1"):
        with pytest.raises(ParseError):
            ctx.class_by_name(text)


def test_resource_cap():
    ctx = RepContext(Quiver.parse("A2"), 2, max_cell_reps=4)
    with pytest.raises(ResourceLimitError):
        ctx.iso_classes_upto((2, 2))


def test_reject_nonprime_q():
    with pytest.raises(UsageError):
        RepContext(Quiver.parse("A2"), 4)


def test_riedtmann_identity_small(a2_q2):
    # g^L_{M,N} = |Ext^1(M,N)_L| / |Hom(M,N)| * a_L / (a_M a_N)
    from fractions import Fraction

    d = a2_q2
    ctx = d.rep
    S1 = ctx.class_by_name("S1")
    S2 = ctx.class_by_name("S2")
    P1 = ctx.class_by_name("P1")
    fibers = d.module_fiber_counts(d.stalk(S1), d.stalk(S2))
    for L in (P1, ctx.class_by_name("S1+S2")):
        lhs = Fraction(ctx.submodule_hall_number(L, S1, S2))
        rhs = (
            Fraction(fibers.get(L, 0))
            / Fraction(ctx.q) ** ctx.hom_dim(S1, S2)
            * Fraction(ctx.aut_count(L), ctx.aut_count(S1) * ctx.aut_count(S2))
        )
        assert lhs == rhs


@pytest.mark.parametrize("text", ["A2", "A3", "2; 1->2, 1->2"])
def test_euler_form_is_identity_minus_adjacency(text):
    quiver = Quiver.parse(text)
    n = quiver.n
    adjacency = np.zeros((n, n), dtype=np.int64)
    for s, t in quiver.arrows:
        adjacency[s, t] += 1
    form = np.eye(n, dtype=np.int64) - adjacency
    rng = random.Random(len(text))
    as_array = lambda v: np.asarray(v, dtype=np.int64)
    for _ in range(40):
        d = [rng.randint(-4, 4) for _ in range(n)]
        e = [rng.randint(-4, 4) for _ in range(n)]
        want = int(as_array(d) @ form @ as_array(e))
        for convert in (tuple, list, as_array):
            got = quiver.euler(convert(d), convert(e))
            assert got == want
            assert type(got) is int


def test_negative_ext_raises_invariant_error(ctx_factory, monkeypatch):
    ctx = ctx_factory("A2", 2)
    monkeypatch.setattr(RepContext, "hom_dim", lambda self, M, N: -5)
    with pytest.raises(InvariantError, match="Ext"):
        ctx.ext_dim(ctx.class_by_name("S1"), ctx.class_by_name("S2"))


def test_invariant_error_survives_optimize():
    script = textwrap.dedent(
        """
        from periodic_hall.errors import InvariantError
        from periodic_hall.repcat import Quiver, RepContext

        assert False, "assertions are on"
        ctx = RepContext(Quiver.parse("A2"), 2)
        RepContext.hom_dim = lambda self, M, N: -5
        try:
            ctx.ext_dim(ctx.class_by_name("S1"), ctx.class_by_name("S2"))
        except InvariantError as exc:
            print("InvariantError:", exc)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("InvariantError:")


# -- oracles for the orbit tables and the closed-form |Aut| ---------------------

KRONECKER = "2; 1->2, 1->2"


@pytest.mark.parametrize(
    "quiver, bound", [("A2", (2, 2)), ("A3", (2, 1, 2)), (KRONECKER, (2, 2))]
)
@pytest.mark.parametrize("q", [2, 3])
def test_closed_form_aut_matches_enumeration(ctx_factory, quiver, bound, q):
    ctx = ctx_factory(quiver, q)
    decomposable = 0
    for cls in ctx.iso_classes_upto(bound):
        assert ctx.aut_count(cls) == ctx._enumerated_aut_count(cls), cls.name
        decomposable += sum(mult for _, mult in cls.key) > 1
    assert decomposable > 0


def test_residue_degree_reads_units_of_a_local_endomorphism_ring(ctx_factory):
    for q in (2, 3, 5):
        for a in range(3):
            for d in range(1, 4):
                assert _residue_degree(q**a * (q**d - 1), q) == d
    with pytest.raises(InvariantError):
        _residue_degree(5, 3)
    # the Kronecker modules of dimension (2,2) include regular simples with
    # End = F_{q^2}, one per closed point of degree 2 on P^1
    ctx = ctx_factory(KRONECKER, 2)
    degrees = [
        _residue_degree(ctx.aut_count(c), 2) for c in ctx.iso_classes_with_dims((2, 2))
        if len(c.key) == 1 and c.key[0][1] == 1
    ]
    assert degrees.count(2) == 1  # x^2 + x + 1, the one irreducible quadratic over F_2


def test_closed_form_aut_past_the_enumeration_cap():
    # End(S1+S2+P1+P1) is 10-dimensional: 3^10 maps would exceed this cap
    ctx = RepContext(Quiver.parse("A2"), 3, max_brute_force=3**9)
    M = ctx.class_by_name("S1+S2+P1+P1")
    assert ctx.aut_count(M) == 15552
    with pytest.raises(ResourceLimitError, match="End space"):
        ctx._enumerated_aut_count(M)


def _dfs_orbit_table(ctx, cell):
    """Reference orbit enumeration: depth-first search from each unvisited
    code in increasing order, applying base-change matrices."""
    q = ctx.q
    root = next(g for g in range(1, q) if len({pow(g, k, q) for k in range(q - 1)}) == q - 1)
    gens = []
    for v, d in enumerate(cell.dims):
        pairs = [(i, j, 1, q - 1) for i in range(d) for j in range(d) if i != j]
        if q > 2 and d:
            pairs.append((0, 0, root, pow(root, q - 2, q)))
        for i, j, a, b in pairs:
            g = [[int(k == l) for l in range(d)] for k in range(d)]
            ginv = [row[:] for row in g]
            g[i][j], ginv[i][j] = a, b
            gens.append((v, g, ginv))
    orbit_of = [-1] * q ** len(cell.pows)
    first_code = []
    for code in range(len(orbit_of)):
        if orbit_of[code] >= 0:
            continue
        oid = len(first_code)
        first_code.append(code)
        orbit_of[code] = oid
        stack = [cell.decode(code, q)]
        while stack:
            mats = stack.pop()
            for v, g, ginv in gens:
                dims = cell.dims
                new = tuple(
                    _matmul(g, m, dims[s], q) if t == v
                    else _matmul(m, ginv, dims[v], q) if s == v else m
                    for m, (s, t) in zip(mats, ctx.quiver.arrows)
                )
                c = cell.encode([x for m in new for row in m for x in row])
                if orbit_of[c] < 0:
                    orbit_of[c] = oid
                    stack.append(new)
    return orbit_of, first_code


@pytest.mark.parametrize(
    "quiver, bound, q",
    [
        ("A2", (3, 3), 2),
        ("A2", (3, 3), 3),
        ("A3", (2, 2, 2), 2),
        (KRONECKER, (2, 2), 2),
        (KRONECKER, (2, 2), 3),
        (KRONECKER, (3, 2), 2),
    ],
)
def test_orbit_tables_match_depth_first_search(monkeypatch, quiver, bound, q):
    fast = RepContext(Quiver.parse(quiver), q)
    fast.iso_classes_upto(bound)
    tables = {}

    def dfs_minima(self, cell, n_reps):
        orbit_of, first_code = tables[cell.dims] = _dfs_orbit_table(self, cell)
        return np.asarray(first_code, dtype=np.int64)[orbit_of]

    monkeypatch.setattr(RepContext, "_orbit_minima", dfs_minima)
    slow = RepContext(Quiver.parse(quiver), q)
    slow.iso_classes_upto(bound)
    assert fast._cells.keys() == slow._cells.keys()
    for dims, cell in fast._cells.items():
        if dims in tables:
            orbit_of, first_code = tables[dims]
            assert cell.orbit_of.tolist() == orbit_of, dims
            assert cell.first_code == first_code, dims
        assert [c.name for c in cell.classes] == [
            c.name for c in slow._cells[dims].classes
        ], dims
    assert len(fast._indecs) == len(slow._indecs)
    for a, b in zip(fast._indecs, slow._indecs):
        assert (a.name, a.dims) == (b.name, b.dims)
        assert a.rep.mats == b.rep.mats, a.name


def test_orbit_tables_hold_one_generator_at_a_time():
    # A2 (1,14) at q=2: 2^14 codes and 182 transvections at vertex 2, so
    # holding every generator's permutation would take 182 * 4 bytes per code
    ctx = RepContext(Quiver.parse("A2"), 2)
    ctx.iso_classes_upto((0, 14))
    tracemalloc.start()
    try:
        cell = ctx._cell((1, 14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_reps = len(cell.orbit_of)
    assert n_reps == 2**14
    assert peak < (len(cell.pows) + 64) * n_reps  # digits, plus a few code arrays


_PROPERTY_QUIVERS = ["A2", "A3", KRONECKER]


@st.composite
def _reps_with_base_change(draw):
    text = draw(st.sampled_from(_PROPERTY_QUIVERS))
    q = draw(st.sampled_from([2, 3]))
    quiver = Quiver.parse(text)
    dims = draw(
        st.tuples(*[st.integers(0, 3)] * quiver.n).filter(
            lambda d: q ** sum(d[s] * d[t] for s, t in quiver.arrows) <= 3**9
        )
    )
    mats = []
    for s, t in quiver.arrows:
        size = dims[t] * dims[s]
        entries = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
        mats.append([entries[i * dims[s] : (i + 1) * dims[s]] for i in range(dims[t])])
    return text, q, Rep(dims, tuple(mats)), draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_reps_with_base_change())
def test_classification_is_invariant_under_random_base_change(case):
    text, q, rep, seed = case
    ctx = _rep_context(text, q)
    moved = random_base_change(ctx, rep, random.Random(seed))
    assert ctx.classify_rep(moved) == ctx.classify_rep(rep)


@st.composite
def _quivers_with_vectors(draw):
    """An acyclic quiver on at most 3 vertices, arrows repeated freely (the
    Kronecker quiver among them), and two integer vectors on its vertices."""
    n = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))  # arrows run forward in this order
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    vector = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    return Quiver(n, arrows), draw(vector), draw(vector)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_quivers_with_vectors())
@example((Quiver.parse(KRONECKER), [2, -1], [1, 3]))
def test_euler_functionals_agree_with_euler_form(case):
    quiver, d, e = case
    want = quiver.euler(d, e)
    assert sum(x * y for x, y in zip(quiver.euler_left(d), e)) == want
    assert sum(x * y for x, y in zip(d, quiver.euler_right(e))) == want
