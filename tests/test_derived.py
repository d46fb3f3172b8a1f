"""Derived-category model: Hom/brace bookkeeping, cones, fiber counts."""

import hashlib
import random
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_hall.derived import ConeCounter, DerivedContext, _graded_homology
from periodic_hall.errors import InvariantError, ResourceLimitError, UsageError
from periodic_hall.extended import ExtendedAlgebra
from periodic_hall.periodic import PeriodicAlgebra
from periodic_hall.repcat import Quiver, RepContext
from periodic_hall.suites import graded_objects_upto, partition_sweep


def test_graded_literals(a2_q2):
    d = a2_q2
    x = d.parse_graded("S1@0 + P1@2")
    assert str(x) == "S1@0 + P1@2"
    assert [(deg, cls.name) for deg, cls in x.entries] == [(0, "S1"), (2, "P1")]
    grouped = d.parse_graded("S1+S2@0")
    assert [(deg, cls.name) for deg, cls in grouped.entries] == [(0, "S1+S2")]
    assert d.parse_graded("0").is_zero
    assert [deg for deg, _ in d.parse_graded("S1@-1 + S2@0").entries] == [-1, 0]


def test_hall_fill_rejects_class_of_wrong_dimension_vector(monkeypatch):
    """Every class M of a Hall-table fiber has dim A + dim B - dim I - dim
    I'; a fill that breaks this raises instead of mispricing the extended
    exponent."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), 2))
    S1, S2, zero = (d.rep.class_by_name(name) for name in ("S1", "S2", "0"))
    monkeypatch.setattr(d, "module_fiber_counts", lambda X, Y: {S1: 1})
    with pytest.raises(InvariantError, match="has dims"):
        d.connecting_terms((S1, zero, zero), (S2, zero, zero))


def test_graded_rejects_classes_of_another_context(a2_q2, dctx_factory):
    other = dctx_factory("2; 2->1", 2)
    S1 = other.rep.class_by_name("S1")
    for build in (
        lambda: a2_q2.graded({0: S1}),
        lambda: a2_q2.stalk(S1, 1),
        lambda: a2_q2.graded([(0, other.rep.zero_class)]),
    ):
        with pytest.raises(UsageError, match="another context"):
            build()
    with pytest.raises(UsageError, match="expected an IsoClass"):
        a2_q2.graded({0: "S1"})


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
    assert d.brace_exponent(A, B) == 0
    # only the first shift survives: {A, B[1]} = q^(-hom(A,B))
    assert d.brace_exponent(A, B.shift(1)) == -1
    assert d.brace_exponent(d.graded([]), B) == 0
    # two steps apart: the i=1 factor is now an Ext group
    S1 = d.stalk(ctx.class_by_name("S1"))
    S2 = d.stalk(ctx.class_by_name("S2"))
    assert d.brace_exponent(S1, S2.shift(2)) == -d.rep.ext_dim(
        ctx.class_by_name("S1"), ctx.class_by_name("S2")
    )


def test_resolution_homology_reproduces_object(a2_q2, a2_q3):
    for d in (a2_q2, a2_q3):
        for x in graded_objects_upto(d, 3, degrees=(-1, 0, 2)):
            cpx = d.resolution(x)
            assert _graded_homology(d.rep, cpx.terms, cpx.diffs, 0) == x


def test_cone_of_zero_map_splits(a2_q2):
    d = a2_q2
    X = d.parse_graded("S1@0 + S2@1")
    Y = d.parse_graded("P1@0")
    counter = ConeCounter(d, X, Y)
    L = counter.cone.homology([0] * counter.layout.size)
    assert L == d.parse_graded("S1+P1@0 + S2@1")


def test_cone_of_identity_vanishes(a2_q2):
    d = a2_q2
    ctx = d.rep
    I = ctx.class_by_name("P1")
    X = d.stalk(I, 1)
    counter = ConeCounter(d, X, d.stalk(I))  # target resolves (I)[1]
    # the identity chain map P(I[1]) -> P(I)[1] == P(I[1])
    vec = [0] * counter.layout.size
    for deg, vertex, rows, cols, off in counter.layout.blocks:
        assert rows == cols
        vec[off : off + rows * cols] = [int(i == j) for i in range(rows) for j in range(cols)]
    assert counter.cone.homology(vec).is_zero


def test_cone_of_extension_class(a2_q2):
    d = a2_q2
    ctx = d.rep
    X = d.stalk(ctx.class_by_name("S1"))
    Y = d.stalk(ctx.class_by_name("S2"))
    counter = ConeCounter(d, X, Y)
    assert counter.complement_rows.shape[0] == 1
    L = counter.cone.homology(counter.complement_rows[0].tolist())
    assert L == d.stalk(ctx.class_by_name("P1"))


def test_cone_class_homotopy_invariant(a2_q2):
    d = a2_q2
    rng = random.Random(31)
    X = d.parse_graded("S1@0 + S2@1")
    Y = d.parse_graded("P1@0 + S1@1")
    counter = ConeCounter(d, X, Y)
    homotopies = counter.homotopy_rows
    assert homotopies, "test needs a nonzero null-homotopic space"
    for row in counter.chain_basis.tolist():
        base = counter.cone.homology(row)
        for _ in range(3):
            coeffs = [rng.randrange(d.q) for _ in homotopies]
            moved = [
                (x + sum(c * h[i] for c, h in zip(coeffs, homotopies))) % d.q
                for i, x in enumerate(row)
            ]
            assert counter.cone.homology(moved) == base


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
                d.stalk(I, 1), d.stalk(I), d.graded([])
            ) == d.field.from_rational(ctx.aut_count(I))


def test_hall_number_zero_on_k_class_mismatch(a2_q2):
    d = a2_q2
    ctx = d.rep
    S1 = d.stalk(ctx.class_by_name("S1"))
    S2 = d.stalk(ctx.class_by_name("S2"))
    assert d.derived_hall_number(S1, S2, S1) == d.field.zero
    assert d.derived_hall_number(S1, S2, d.graded([])) == d.field.zero


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
                brace = d.field.q_power(d.brace_exponent(X, Y))
                assert h * brace * hom_size == d.field.from_rational(count)


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
    """The Hall factors of connecting_terms spelled out position by position,
    with no table: {M: H(M; I_i[1] + A_i, B_i + I_{i-1}[-1]) / |Aut(I_i)|}."""
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
    """Every position key that connecting_terms reaches fills the table
    exactly once, with the nonempty module fiber counts of a fresh context."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), q))
    fresh = DerivedContext(d.rep)
    classes = d.rep.iso_classes_upto((1, 1))
    fills = []
    original = d._hall_fibers

    def recording(a, b, i_cls, i_prev):
        fiber = original(a, b, i_cls, i_prev)
        fills.append(((a, b, i_cls, i_prev), fiber))
        return fiber

    monkeypatch.setattr(d, "_hall_fibers", recording)
    rng = random.Random(10 * q + m)
    pairs = [
        (tuple(rng.choice(classes) for _ in range(m)), tuple(rng.choice(classes) for _ in range(m)))
        for _ in range(12)
    ]
    for A, B in pairs:
        d.connecting_terms(A, B)
    assert len({key for key, _ in fills}) == len(fills) == len(d._hall_table)
    for (a, b, i_cls, i_prev), fiber in fills:
        X = fresh.graded({1: i_cls, 0: a})
        Y = fresh.graded({0: b, -1: i_prev})
        assert fiber == fresh.module_fiber_counts(X, Y)
    assert fills and all(fiber for _, fiber in fills)
    filled = len(fills)
    for A, B in pairs:
        d._connecting_memo = None
        d.connecting_terms(A, B)
    assert len(fills) == filled


@pytest.mark.parametrize("m", [1, 3])
def test_connecting_terms_match_rational_factors(m):
    """Each num that connecting_terms yields for (dims, M) satisfies
    num * q^-e / den = sum over the I with those dims of prod_i H_i(M_i),
    with the factors computed untabulated, and the (dims, M) keys are
    exactly those the untabulated factors allow."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), 3))
    fresh = DerivedContext(d.rep)
    q = d.q
    classes = d.rep.iso_classes_upto((1, 1))
    nonzero = [c for c in classes if not c.is_zero]
    rng = random.Random(m)
    pairs = [(tuple(nonzero[:1]) * m, tuple(nonzero[:1]) * m)] + [
        (tuple(rng.choice(nonzero) for _ in range(m)), tuple(rng.choice(nonzero) for _ in range(m)))
        for _ in range(6)
    ]
    seen_den = set()
    for A, B in pairs:
        e, den, groups = d.connecting_terms(A, B)
        assert e == sum(map(d.rep.hom_dim, A, B))
        want = {}
        for I in product(classes, repeat=m):
            unpruned = all(
                x <= min(y, z)
                for i, c in enumerate(I)
                for x, y, z in zip(c.dims, B[i].dims, A[(i + 1) % m].dims)
            )
            factors = untabulated_hall_factors(fresh, A, B, I) if unpruned else None
            if factors is None:
                continue
            group = want.setdefault(tuple(c.dims for c in I), {})
            for M in product(*factors):
                value = 1
                for i in range(m):
                    value *= factors[i][M[i]]
                group[M] = group.get(M, 0) + value
        assert {dims: set(terms) for dims, terms in groups.items()} == {
            dims: set(terms) for dims, terms in want.items()
        }
        for dims, terms in groups.items():
            for M, num in terms.items():
                assert isinstance(num, int)
                assert num * Fraction(q) ** -e / den == want[dims][M]
        seen_den.add(den)
    # |Aut(S)| = q - 1 = 2 at q = 3: some den is a product over positions
    assert max(seen_den) >= 2**m


def min_dims_connecting_terms(d, A, B):
    """connecting_terms by the walk over every class I_i up to min(dim B_i,
    dim A_{i+1}), each tuple left at its first empty fiber, with no tables."""
    m, rep = len(A), d.rep
    candidates = [
        rep.iso_classes_upto(tuple(map(min, B[i].dims, A[(i + 1) % m].dims)))
        for i in range(m)
    ]
    found = []
    for I in product(*candidates):
        counts = []
        for i in range(m):
            fiber = d._hall_fibers(A[i], B[i], I[i], I[i - 1])
            if not fiber:
                break
            counts.append(fiber)
        else:
            found.append((tuple(c.dims for c in I), prod(map(rep.aut_count, I)), counts))
    den = lcm(*(aut for _, aut, _ in found))
    groups = {}
    for dims, aut, counts in found:
        group = groups.setdefault(dims, {})
        for choice in product(*map(dict.items, counts)):
            modules, ns = zip(*choice)
            group[modules] = group.get(modules, 0) + prod(ns) * (den // aut)
    return sum(map(rep.hom_dim, A, B)), den, groups


@pytest.mark.parametrize(
    "quiver, bound, pairs",
    [("A2", (1, 1), 20), ("2; 1->2, 1->2", (1, 1), 12), ("3; 1->2, 3->2", (1, 1, 1), 10)],
)
@pytest.mark.parametrize("m", [1, 3, 5])
def test_sub_quot_candidates_match_min_dims_walk(quiver, bound, pairs, m):
    """The walk over Sub(B_i) and Quot(A_{i+1}) gives the (e, den, groups)
    of the walk over every class up to min(dim B_i, dim A_{i+1})."""
    d = DerivedContext(RepContext(Quiver.parse(quiver), 2))
    oracle = DerivedContext(d.rep)
    classes = d.rep.iso_classes_upto(bound)
    rng = random.Random(m)
    for _ in range(pairs):
        A = tuple(rng.choice(classes) for _ in range(m))
        B = tuple(rng.choice(classes) for _ in range(m))
        assert d.connecting_terms(A, B) == min_dims_connecting_terms(oracle, A, B)
    # some row is narrower than its min-dims list, so the two walks differ
    assert any(
        len(row) < len(d.rep.iso_classes_upto(tuple(map(min, b.dims, a_next.dims))))
        for (b, a_next), row in d._candidates.items()
    )


def test_candidate_outside_sub_raises(monkeypatch):
    """S1 is a quotient of P1 but not a submodule of it: a candidate row
    that holds it anyway meets an empty fiber and raises."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), 2))
    P1, S1 = d.rep.class_by_name("P1"), d.rep.class_by_name("S1")
    assert [c.name for c, _, _ in d._candidate_row(P1, P1)] == ["0", "P1"]
    original = d._candidate_row

    def with_s1(b, a_next):
        return original(b, a_next) + ((S1, S1.dims, d.rep.aut_count(S1)),)

    monkeypatch.setattr(d, "_candidate_row", with_s1)
    with pytest.raises(InvariantError, match=r"empty Hall fiber at \(P1, P1, S1, S1\)"):
        d.connecting_terms((P1,), (P1,))
    assert all(d._hall_table.values())


def snapshot(connecting):
    """A copy of a connecting_terms result that shares no dict with it."""
    e, den, groups = connecting
    return e, den, {dims: dict(terms) for dims, terms in groups.items()}


def test_connecting_memo_interleaved_with_both_twists():
    """Interleaved calls over different pairs and both periods, mixed with
    element products, return what a fresh context returns; a repeated pair
    gets the memoized list back, and neither twist mutates it."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), 2))
    rep = d.rep
    classes = rep.iso_classes_upto((1, 1))
    algebras = {m: (PeriodicAlgebra(d, m), ExtendedAlgebra(d, m)) for m in (1, 3)}
    rng = random.Random(5)

    def tup(m):
        return tuple(rng.choice(classes) for _ in range(m))

    def moved(z, algebra):
        """z as an element of algebra, which interns basis elements of its own."""
        return algebra.element({algebra.basis(b.classes): s for b, s in z.terms.items()})

    for step in range(60):
        m = rng.choice((1, 3))
        P, E = algebras[m]
        A, B = tup(m), tup(m)
        if step % 4 == 3:
            x = P.monomial(P.basis(A)) + P.monomial(P.basis(B))
            y = P.monomial(P.basis(tup(m)))
            fresh = PeriodicAlgebra(DerivedContext(rep), m)
            want = fresh.multiply(moved(x, fresh), moved(y, fresh))
            assert P.multiply(x, y) == moved(want, P)
            continue
        got = d.connecting_terms(A, B)
        want = DerivedContext(rep).connecting_terms(A, B)
        assert got == want
        kept = snapshot(got)
        P._compute_basis_product(P.basis(A), P.basis(B))
        E._basis_product(E.basis(A), E.basis(B))
        assert d.connecting_terms(A, B) is got
        assert got == kept


@pytest.mark.parametrize("quiver, q", [("A2", 2), ("A2", 3), ("2; 1->2, 1->2", 2)])
def test_hall_exponent_is_hom_dim(dctx_factory, quiver, q):
    """X = I[1] + A and Y = B + I'[-1] have no positive degree gaps, so the
    Hall exponent of every position key is hom(A, B) whatever I and I' are,
    and every connecting tuple of a pair shares e = sum_i hom(A_i, B_i)."""
    d = dctx_factory(quiver, q)
    rep = d.rep
    classes = rep.iso_classes_upto((1, 1))
    nonempty = 0
    for a, b in product(classes, repeat=2):
        for i_cls in rep.iso_classes_upto(b.dims):
            for i_prev in rep.iso_classes_upto(a.dims):
                X = d.graded({1: i_cls, 0: a})
                Y = d.graded({0: b, -1: i_prev})
                assert d.hall_denominator_exponent(X, Y) == rep.hom_dim(a, b)
                nonempty += bool(d._hall_fibers(a, b, i_cls, i_prev))
    assert nonempty
    rng = random.Random(q)
    shared = 0  # pairs with more than one connecting tuple
    for _ in range(40):
        A = tuple(rng.choice(classes) for _ in range(3))
        B = tuple(rng.choice(classes) for _ in range(3))
        e, _, groups = d.connecting_terms(A, B)
        assert e == sum(map(rep.hom_dim, A, B))
        shared += len(groups) > 1
    assert shared


def test_hall_fill_rejects_exponent_other_than_hom_dim(monkeypatch):
    """A fill whose generic Hall exponent is not hom(A_i, B_i) raises, even
    though every connecting tuple of the pair would share the wrong one."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), 2))
    original = d.hall_denominator_exponent
    monkeypatch.setattr(d, "hall_denominator_exponent", lambda X, Y: original(X, Y) + 1)
    P = PeriodicAlgebra(d, 3)
    Z = d.rep.zero_class
    a = P.basis([d.rep.class_by_name("S1"), Z, Z])
    b = P.basis([d.rep.class_by_name("S2"), Z, Z])
    with pytest.raises(InvariantError, match="Hall exponent"):
        P.basis_product(a, b)


def test_unknown_count_mode_is_rejected():
    d = DerivedContext(RepContext(Quiver.parse("A2"), 2))
    X = d.stalk(d.rep.class_by_name("S1"))
    Y = d.stalk(d.rep.class_by_name("S2"))
    with pytest.raises(UsageError, match="unknown count mode 'Quotient'"):
        d.fiber_counts(X, Y, mode="Quotient")
    with pytest.raises(UsageError, match="unknown count mode 'bogus'"):
        partition_sweep(d, 1, mode="bogus")


TRIANGLE = "3; 1->2, 2->3, 1->3"


def test_triangle_projective_sees_two_paths():
    """Two paths run from 1 to 3, so P1 is 2-dimensional at vertex 3."""
    rep = RepContext(Quiver.parse(TRIANGLE), 2)
    assert rep.class_by_name("P1").dims == (1, 1, 2)


@st.composite
def _small_quivers(draw):
    """Literal of an acyclic quiver on at most 3 vertices with at most 3
    arrows, repeated arrows allowed; four parallel arrows already trip the
    default cap_dim in total mode at total dimension 1."""
    n = draw(st.integers(1, 3))
    order = draw(st.permutations(range(1, n + 1)))  # arrows run forward
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return f"{n}; " + ", ".join(f"{s}->{t}" for s, t in arrows)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_small_quivers())
@example(TRIANGLE)
def test_partition_identity_on_random_quivers(text):
    """Over the graded objects of total dimension 1 at q = 2, quotient and
    total counts agree and each fiber partition sums to |Hom(X, Y[1])|."""
    d = DerivedContext(RepContext(Quiver.parse(text), 2))
    objects = graded_objects_upto(d, 1)
    for X in objects:
        for Y in objects:
            assert d.fiber_counts(X, Y, mode="quotient") == d.fiber_counts(
                X, Y, mode="total"
            ), (X, Y)
    report = partition_sweep(d, 1)
    assert report["passed"], report["failures"][:3]


def fill_mismatches(d, bound):
    """(keys, nonempty, mismatches) over the position keys (A, B, I, I')
    with A, B within bound, dim I <= dim B and dim I' <= dim A: each fill of
    d against the module fiber counts of the cone over (I[1] + A, B +
    I'[-1]) in a fresh context, the oracle for the stalk Ext formula."""
    rep = d.rep
    oracle = DerivedContext(rep, cap_dim=d.cap_dim, count_mode=d.count_mode)
    keys = nonempty = 0
    mismatches = []
    classes = rep.iso_classes_upto(bound)
    for a, b in product(classes, repeat=2):
        for i_cls in rep.iso_classes_upto(b.dims):
            for i_prev in rep.iso_classes_upto(a.dims):
                got = d._hall_fibers(a, b, i_cls, i_prev)
                X = oracle.graded({1: i_cls, 0: a})
                Y = oracle.graded({0: b, -1: i_prev})
                keys += 1
                nonempty += bool(got)
                if got != oracle.module_fiber_counts(X, Y):
                    mismatches.append((a.name, b.name, i_cls.name, i_prev.name))
    return keys, nonempty, mismatches


@pytest.mark.parametrize(
    "quiver, q, counts",
    [("A2", 2, (225, 144)), ("A2", 3, (225, 144)), ("2; 1->2, 1->2", 2, (1089, 324))],
)
def test_hall_fills_match_cone_oracle(quiver, q, counts):
    """Every fill within the bound (1,1), empty keys included, equals the
    cone count over (I[1] + A, B + I'[-1]) that the stalk formula replaces."""
    d = DerivedContext(RepContext(Quiver.parse(quiver), q))
    keys, nonempty, mismatches = fill_mismatches(d, (1, 1))
    assert (keys, nonempty) == counts
    assert not mismatches, mismatches[:5]


def _classes_of_total_dim(rep, most):
    return [
        cls
        for dims in product(range(most + 1), repeat=rep.quiver.n)
        if sum(dims) <= most
        for cls in rep.iso_classes_with_dims(dims)
    ]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_small_quivers(), st.data())
def test_hall_fills_match_cone_oracle_on_random_quivers(text, data):
    """The stalk Ext formula against the cone oracle at q = 2 on random keys
    with nonzero A, B and dim A + dim B <= 3.  The oracle's chain-map space
    is then at most hom(I, B) + ext(A, B) + hom(A, I') <= 1 + 6 + 4 = 11
    dimensional, under the default cap_dim of 14, even with three parallel
    arrows.  I and I' are drawn largest class first, since hypothesis
    leans to the head of a list and the zero class heads it."""
    d = DerivedContext(RepContext(Quiver.parse(text), 2))
    rep = d.rep
    oracle = DerivedContext(rep)
    classes = [cls for cls in _classes_of_total_dim(rep, 2) if not cls.is_zero]
    for _ in range(6):
        a = data.draw(st.sampled_from(classes))
        b = data.draw(st.sampled_from([c for c in classes if c.total_dim + a.total_dim <= 3]))
        i_cls = data.draw(st.sampled_from(rep.iso_classes_upto(b.dims)[::-1]))
        i_prev = data.draw(st.sampled_from(rep.iso_classes_upto(a.dims)[::-1]))
        X = oracle.graded({1: i_cls, 0: a})
        Y = oracle.graded({0: b, -1: i_prev})
        assert d._hall_fibers(a, b, i_cls, i_prev) == oracle.module_fiber_counts(X, Y), (
            a, b, i_cls, i_prev
        )


def test_hall_fill_rejects_stalk_ext_larger_than_operands(monkeypatch):
    """Ext^1(A, B) -> Ext^1(K, C) is onto, so a fill that meets a pair (K, C)
    with the larger Ext raises instead of weighting it by a negative power."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), 2))
    S1, S2, zero = (d.rep.class_by_name(name) for name in ("S1", "S2", "0"))
    two_s2 = d.rep.class_by_name("S2+S2")
    assert (d.rep.ext_dim(S1, S2), d.rep.ext_dim(S1, two_s2)) == (1, 2)
    monkeypatch.setattr(d, "_cokernels", lambda b, i_cls: {two_s2: 1})
    with pytest.raises(InvariantError, match=r"Ext\^1\(S1, S2\+S2\) = 2 exceeds"):
        d._hall_fibers(S1, S2, zero, zero)


def test_hall_fill_rejects_stalk_fibers_not_summing_to_ext(monkeypatch):
    """The fibers of Ext^1(K, C) partition its q^ext(K, C) classes; a stalk
    count that drops one raises."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), 2))
    S1, S2, zero = (d.rep.class_by_name(name) for name in ("S1", "S2", "0"))
    original = d.module_fiber_counts

    def first_fiber_only(X, Y):
        return dict(list(original(X, Y).items())[:1])

    monkeypatch.setattr(d, "module_fiber_counts", first_fiber_only)
    with pytest.raises(InvariantError, match=r"Ext\^1\(S1, S2\) hold 1 classes, not q\^1"):
        d._hall_fibers(S1, S2, zero, zero)


def test_hall_fill_caps_only_the_stalk_cones():
    """A fill cones the stalk pairs (K, C) alone, so cap_dim trips on
    ext(K, C): at cap 0 the key (S1, S2, 0, 0) still raises, since
    ext(S1, S2) = 1, while (S1, S2, S2, S1), whose only pair is (0, 0),
    fills, though its cone over I[1] + A has 3 free dimensions."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), 2), cap_dim=0)
    S1, S2, zero = (d.rep.class_by_name(name) for name in ("S1", "S2", "0"))
    with pytest.raises(ResourceLimitError, match="exceeds cap 0"):
        d._hall_fibers(S1, S2, zero, zero)
    assert d._hall_fibers(S1, S2, S2, S1) == {zero: 2}
    X, Y = d.graded({1: S2, 0: S1}), d.graded({0: S2, -1: S1})
    assert d.db_hom_dim(X, Y.shift(1)) == 3
    with pytest.raises(ResourceLimitError, match="dimension 3 exceeds cap 0"):
        d.fiber_counts(X, Y)
