"""Derived-category model: Hom/brace bookkeeping, cones, fiber counts."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from periodic_hall.derived import DerivedContext
from periodic_hall.errors import ResourceLimitError
from periodic_hall.repcat import Quiver, RepContext
from periodic_hall.suites import graded_objects_upto, partition_sweep


def test_graded_literals(a2_q2):
    d = a2_q2
    x = d.parse_graded("S1@0 + P1@2")
    assert str(x) == "S1@0 + P1@2"
    assert x.part(2).name == "P1"
    grouped = d.parse_graded("S1+S2@0")
    assert grouped.part(0).name == "S1+S2"
    assert d.parse_graded("0").is_zero
    assert d.parse_graded("S1@-1 + S2@0").support() == (-1, 0)


def test_db_hom_dim(a2_q2):
    d = a2_q2
    ctx = d.rep
    S1 = d.stalk(ctx.class_by_name("S1"))
    S2 = d.stalk(ctx.class_by_name("S2"))
    P1 = ctx.class_by_name("P1")
    # Hom(S1, S2[1]) = Ext^1(S1, S2)
    assert d.db_hom_dim(S1, S2.shift(1)) == 1
    # negative-degree Ext vanishes
    assert d.db_hom_dim(S1.shift(1), S2) == 0
    # shift invariance
    I = d.stalk(P1, 1)
    assert d.db_hom_dim(I, I) == ctx.hom_dim(P1, P1)


def test_brace_factor(a2_q2):
    d = a2_q2
    ctx = d.rep
    A = d.stalk(ctx.class_by_name("P1"))
    B = d.stalk(ctx.class_by_name("P1"))
    assert d.brace_factor(A, B) == d.field.one
    # only the first shift survives: {A, B[1]} = q^(-hom(A,B))
    assert d.brace_factor(A, B.shift(1)) == d.field.q_power(-1)
    assert d.brace_factor(d.zero_object(), B) == d.field.one
    # two steps apart: the i=1 factor is now an Ext group
    S1 = d.stalk(ctx.class_by_name("S1"))
    S2 = d.stalk(ctx.class_by_name("S2"))
    assert d.brace_exponent(S1, S2.shift(2)) == -d.rep.ext_dim(
        ctx.class_by_name("S1"), ctx.class_by_name("S2")
    )


def test_resolution_homology_reproduces_object(a2_q2, a2_q3):
    for d in (a2_q2, a2_q3):
        for x in graded_objects_upto(d, 3, degrees=(-1, 0, 2)):
            assert d.complex_homology(d.resolution(x)) == x


def test_cone_of_zero_map_splits(a2_q2):
    d = a2_q2
    ctx = d.rep
    X = d.parse_graded("S1@0 + S2@1")
    Y = d.parse_graded("P1@0")
    counter = d.cone_counter(X, Y)
    f = counter.chain_map_from_vector([0] * counter.layout.size)
    L = d.cone_class(f)
    assert L == d.parse_graded("S1+P1@0 + S2@1")


def test_cone_of_identity_vanishes(a2_q2):
    d = a2_q2
    ctx = d.rep
    I = ctx.class_by_name("P1")
    X = d.stalk(I, 1)
    counter = d.cone_counter(X, d.stalk(I))  # target resolves (I)[1]
    # the identity chain map P(I[1]) -> P(I)[1] == P(I[1])
    vec = [0] * counter.layout.size
    for deg, vertex, rows, cols, off in counter.layout.blocks:
        assert rows == cols
        vec[off : off + rows * cols] = [int(i == j) for i in range(rows) for j in range(cols)]
    assert d.cone_class(counter.chain_map_from_vector(vec)).is_zero


def test_cone_of_extension_class(a2_q2):
    d = a2_q2
    ctx = d.rep
    X = d.stalk(ctx.class_by_name("S1"))
    Y = d.stalk(ctx.class_by_name("S2"))
    counter = d.cone_counter(X, Y)
    assert counter.complement_rows.shape[0] == 1
    f = counter.chain_map_from_vector(counter.complement_rows[0].tolist())
    assert d.cone_class(f) == d.stalk(ctx.class_by_name("P1"))


def test_cone_class_homotopy_invariant(a2_q2):
    d = a2_q2
    rng = random.Random(31)
    X = d.parse_graded("S1@0 + S2@1")
    Y = d.parse_graded("P1@0 + S1@1")
    counter = d.cone_counter(X, Y)
    homotopies = counter.null_homotopic_vectors()
    assert homotopies, "test needs a nonzero null-homotopic space"
    for row in counter.chain_basis.tolist():
        base = d.cone_class(counter.chain_map_from_vector(row))
        for _ in range(3):
            coeffs = [rng.randrange(d.q) for _ in homotopies]
            moved = [
                (x + sum(c * h[i] for c, h in zip(coeffs, homotopies))) % d.q
                for i, x in enumerate(row)
            ]
            assert d.cone_class(counter.chain_map_from_vector(moved)) == base


def test_derived_hall_number_examples(dctx_factory):
    for q in (2, 3):
        d = dctx_factory("A2", q)
        ctx = d.rep
        S1 = d.stalk(ctx.class_by_name("S1"))
        S2 = d.stalk(ctx.class_by_name("S2"))
        P1 = d.stalk(ctx.class_by_name("P1"))
        split = d.stalk(ctx.class_by_name("S1+S2"))
        assert d.derived_hall_number(S1, S2, P1) == d.field.from_rational(q - 1)
        assert d.derived_hall_number(S1, S2, split) == d.field.one
        # no Homs or Exts in either direction: only the split cone
        assert d.derived_hall_number(
            S2, S1, d.stalk(ctx.class_by_name("S1+S2"))
        ) == d.field.one
        # quasi-isomorphisms: H^0_(I[1], I) = |Aut(I)|
        for name in ("S1", "P1"):
            I = ctx.class_by_name(name)
            assert d.derived_hall_number(
                d.stalk(I, 1), d.stalk(I), d.zero_object()
            ) == d.field.from_rational(ctx.aut_count(I))


def test_hall_number_zero_on_k_class_mismatch(a2_q2):
    d = a2_q2
    ctx = d.rep
    S1 = d.stalk(ctx.class_by_name("S1"))
    S2 = d.stalk(ctx.class_by_name("S2"))
    assert d.derived_hall_number(S1, S2, S1) == d.field.zero
    assert d.derived_hall_number(S1, S2, d.zero_object()) == d.field.zero


def test_formula_unwinding_on_modules(a2_q3):
    # H^M * {X,Y} * |Hom(X,Y)| = |fiber| exactly, for module stalks
    d = a2_q3
    ctx = d.rep
    for a in ("S1", "S2", "P1"):
        for b in ("S1", "S2", "P1"):
            X, Y = d.stalk(ctx.class_by_name(a)), d.stalk(ctx.class_by_name(b))
            fibers = d.fiber_counts(X, Y)
            hom_size = d.field.q_power(d.db_hom_dim(X, Y))
            for L, count in fibers.items():
                h = d.derived_hall_number(X, Y, L)
                assert h * d.brace_factor(X, Y) * hom_size == d.field.from_rational(
                    count
                )


# sha256 of the per-pair fiber tallies over graded_objects_upto(d, 2), pinned
# from the numpy-array elimination that the int-row kernel replaced; both
# count modes must reproduce it.
PINNED_TALLIES = {
    ("A3", 2): (32, "f470d5b5d757db26028aad41b55e9bb3806b013818823916a1aea243f6996d08"),
    ("A2", 5): (17, "59949c3d8e0861404201d7c3ef0279c38936e38dc8292066ff031c594c37d09e"),
}


def tally_digest(d, objects, mode):
    h = hashlib.sha256()
    for X in objects:
        for Y in objects:
            counts = d.fiber_counts(X, Y, mode=mode)
            tally = ";".join(sorted(f"{L}={c}" for L, c in counts.items()))
            h.update(f"{X}|{Y}|{tally}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("quiver, q", sorted(PINNED_TALLIES))
def test_fiber_tallies_pinned(quiver, q):
    n_objects, expected = PINNED_TALLIES[(quiver, q)]
    d = DerivedContext(RepContext(Quiver.parse(quiver), q))
    objects = graded_objects_upto(d, 2, degrees=(0, 1))
    assert len(objects) == n_objects
    for mode in ("quotient", "total"):
        assert tally_digest(d, objects, mode) == expected, mode


def test_count_modes_agree(dctx_factory):
    for q in (2, 3):
        d = dctx_factory("A2", q)
        for X in graded_objects_upto(d, 2, degrees=(0, 1)):
            for Y in graded_objects_upto(d, 2, degrees=(0, 1)):
                assert d.fiber_counts(X, Y, mode="quotient") == d.fiber_counts(
                    X, Y, mode="total"
                )


def test_partition_identity_small(a2_q2):
    report = partition_sweep(a2_q2, 2, mode="total")
    assert report["passed"], report["failures"][:3]


def test_ext_dimension_against_resolution(a2_q2):
    # independent route to Ext^1: apply Hom(-, N) to the projective
    # resolution of M and take the alternating sum
    d = a2_q2
    ctx = d.rep
    classes = ctx.iso_classes_upto((1, 1))
    for M in classes:
        res = d.resolution(d.stalk(M))
        cover = res.term(0)
        syzygy = res.term(-1)
        cover_cls = ctx.classify_rep(cover)
        syz_cls = ctx.classify_rep(syzygy)
        for N in classes:
            indep = (
                ctx.hom_dim(syz_cls, N)
                - ctx.hom_dim(cover_cls, N)
                + ctx.hom_dim(M, N)
            )
            assert indep == ctx.ext_dim(M, N), (M.name, N.name)


def test_resource_cap_on_chain_maps():
    ctx = RepContext(Quiver.parse("A2"), 2)
    d = DerivedContext(ctx, cap_dim=0)
    X = d.stalk(ctx.class_by_name("S1"))
    Y = d.stalk(ctx.class_by_name("S2"))
    with pytest.raises(ResourceLimitError):
        d.fiber_counts(X, Y)


def untabulated_hall_factors(d, A, B, I):
    """hall_factors spelled out position by position, with no table."""
    m = len(A)
    factors = []
    for i in range(m):
        X = d.graded({1: I[i], 0: A[i]})
        Y = d.graded({0: B[i], -1: I[(i - 1) % m]})
        counts = d.module_fiber_counts(X, Y)
        if not counts:
            return None
        weight = Fraction(d.q) ** -d.hall_denominator_exponent(X, Y)
        weight /= d.rep.aut_count(I[i])
        factors.append({cls: c * weight for cls, c in counts.items()})
    return factors


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 3])
def test_hall_factor_table_matches_fresh_context(q, m, monkeypatch):
    """Table entries equal an untabulated computation on a fresh context,
    and every key, empty fibers included, fills the table exactly once."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), q))
    fresh = DerivedContext(d.rep)
    classes = d.rep.iso_classes_upto((1, 1))
    calls = []
    original = d.module_fiber_counts

    def counting(X, Y):
        calls.append((X, Y))
        return original(X, Y)

    monkeypatch.setattr(d, "module_fiber_counts", counting)
    rng = random.Random(10 * q + m)
    pairs = [
        (tuple(rng.choice(classes) for _ in range(m)), tuple(rng.choice(classes) for _ in range(m)))
        for _ in range(3)
    ]
    seen_empty = False
    for A, B in pairs:
        for I in product(classes, repeat=m):
            got = d.hall_factors(A, B, I)
            assert got == untabulated_hall_factors(fresh, A, B, I)
            seen_empty |= got is None
    assert seen_empty
    assert len(calls) == len(d._hall_table)
    filled = len(calls)
    for A, B in pairs:
        for I in product(classes, repeat=m):
            d.hall_factors(A, B, I)
    assert len(calls) == filled
