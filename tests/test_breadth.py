"""Coverage beyond the A2 workhorse: A3, period five, multiple arrows."""

import random

from periodic_hall.derived import DerivedContext
from periodic_hall.embed import Embedding
from periodic_hall.extended import ExtendedAlgebra
from periodic_hall.periodic import PeriodicAlgebra
from periodic_hall.repcat import Quiver, RepContext
from periodic_hall import suites

from conftest import _derived_context


def test_a3_embedding_single_degree():
    d = _derived_context("A3", 2)
    emb = Embedding(PeriodicAlgebra(d, 3), ExtendedAlgebra(d, 3))
    report = suites.embedding_sweep(emb, (1, 1, 1), max_degrees=1)
    assert report["passed"], report["failures"][:2]
    assert report["checked"] == 37**2


def test_a3_associativity():
    # simple-module pool keeps triple products inside small orbit cells
    d = _derived_context("A3", 2)
    rng = random.Random(202)
    for m in (1, 3):
        P = PeriodicAlgebra(d, m)
        rep = suites.associativity_sweep(P, 8, rng, (1, 1, 1), max_total=1)
        assert rep["passed"], rep["failures"][:2]
    E = ExtendedAlgebra(d, 2)
    rep = suites.associativity_sweep(E, 8, rng, (1, 1, 1), max_total=1)
    assert rep["passed"], rep["failures"][:2]


def test_period_five_golden_and_embedding():
    d = _derived_context("A2", 2)
    P = PeriodicAlgebra(d, 5)
    E = ExtendedAlgebra(d, 5)
    emb = Embedding(P, E)
    ctx = d.rep
    Z = ctx.zero_class
    S1, S2 = ctx.class_by_name("S1"), ctx.class_by_name("S2")
    a = P.basis([S1, Z, Z, Z, Z])
    b = P.basis([S2, Z, Z, Z, Z])
    got = P.multiply(P.monomial(a), P.monomial(b))
    vinv = d.field.v_power(-4)
    want = P.element(
        {
            P.basis([ctx.class_by_name("S1+S2"), Z, Z, Z, Z]): vinv,
            P.basis([ctx.class_by_name("P1"), Z, Z, Z, Z]): vinv,
        }
    )
    assert got == want
    rng = random.Random(7)
    for _ in range(6):
        x = P.basis(suites.sample_module_tuple(ctx, rng, 5, (1, 1)))
        y = P.basis(suites.sample_module_tuple(ctx, rng, 5, (1, 1)))
        assert emb.verify_homomorphism(x, y)["equal"]


def test_kronecker_quiver_fibers():
    # two parallel arrows: Ext^1(S1, S2) is two-dimensional and the fiber
    # over the decomposable middle term plus the q+1 regular classes
    # exhausts all q^2 morphisms
    ctx = RepContext(Quiver.parse("2; 1->2, 1->2"), 2)
    d = DerivedContext(ctx)
    S1 = d.stalk(ctx.class_by_name("S1"))
    S2 = d.stalk(ctx.class_by_name("S2"))
    counts = d.fiber_counts(S1, S2)
    assert sum(counts.values()) == ctx.q ** 2
    split = d.stalk(ctx.class_by_name("S1+S2"))
    assert counts[split] == 1
    regulars = {L: c for L, c in counts.items() if L != split}
    assert len(regulars) == ctx.q + 1
    assert all(c == ctx.q - 1 for c in regulars.values())


def test_kronecker_partition_quotient_mode():
    ctx = RepContext(Quiver.parse("2; 1->2, 1->2"), 2)
    d = DerivedContext(ctx, count_mode="quotient")
    report = suites.partition_sweep(d, 2)
    assert report["passed"], report["failures"][:2]


def test_kronecker_x_names_roundtrip():
    ctx = RepContext(Quiver.parse("2; 1->2, 1->2"), 2)
    classes = ctx.iso_classes_with_dims((1, 1))
    x_names = sorted(c.name for c in classes if c.name.startswith("X"))
    assert x_names == ["X1x1n0", "X1x1n1", "X1x1n2"]
    for name in x_names:
        fresh = RepContext(Quiver.parse("2; 1->2, 1->2"), 2)
        assert fresh.class_by_name(name).name == name


def test_nonmonomial_coefficients_roundtrip():
    d = _derived_context("A2", 2)
    P = PeriodicAlgebra(d, 3)
    ctx = d.rep
    Z = ctx.zero_class
    x = P.monomial(P.basis([ctx.class_by_name("S1"), Z, Z]))
    el = x * (d.field.one + d.field.v_power(4)) - P.unit()
    text = str(el)
    assert "(" in text  # the coefficient 1 + v has two terms
    assert P.parse_element(text) == el
