"""The basis-wise embedding of the periodic algebra into the extended one."""

import hashlib
import json
import random
from collections import Counter

import numpy as np
import pytest
from conftest import product_scalars, record_scalar

from periodic_hall.combo import Element
from periodic_hall.embed import (
    Embedding,
    PhiImage,
    check_identity_3_2,
    phi_exponent_t_units,
    _same_value,
)
from periodic_hall.errors import EvenPeriodError, UsageError
from periodic_hall.extended import ExtendedAlgebra, ExtendedBasisElement
from periodic_hall.periodic import PeriodicAlgebra, PeriodicObject
from periodic_hall.scalar import ScalarField
from periodic_hall.suites import (
    embedding_sweep,
    periodic_basis_elements,
    sample_module_tuple,
)


def make_embedding(dctx, m):
    return Embedding(PeriodicAlgebra(dctx, m), ExtendedAlgebra(dctx, m))


def test_even_period_rejected(a2_q2):
    with pytest.raises(EvenPeriodError):
        make_embedding(a2_q2, 2)


def test_mismatched_contexts_rejected(a2_q2, a2_q3):
    P = PeriodicAlgebra(a2_q2, 3)
    E = ExtendedAlgebra(a2_q3, 3)
    with pytest.raises(UsageError):
        Embedding(P, E)


def test_operands_from_different_algebras_rejected(a2_q2):
    # both algebras build the same Element type; only the owning algebra
    # tells their elements apart
    P = PeriodicAlgebra(a2_q2, 3)
    E = ExtendedAlgebra(a2_q2, 3)
    other = PeriodicAlgebra(a2_q2, 3)
    S1 = a2_q2.rep.class_by_name("S1")
    Z = a2_q2.rep.zero_class
    x = P.monomial(P.basis([S1, Z, Z]))
    cases = [
        lambda: x + E.unit(),
        lambda: E.unit() - x,
        lambda: E.multiply(E.unit(), x),
        lambda: E.unit() * x,
        lambda: x + other.unit(),
        lambda: x * other.monomial(other.basis([S1, Z, Z])),
    ]
    for case in cases:
        with pytest.raises(UsageError, match="operands belong to different algebras"):
            case()
    assert P.unit() != E.unit()
    assert P.unit() != other.unit()


def test_classes_of_another_context_rejected(a2_q2, dctx_factory):
    """S1 and S2 of the quiver 2 -> 1 are not the A2 classes of those names:
    an algebra over A2 refuses them, in a basis element and in an element."""
    other = dctx_factory("2; 2->1", 2)
    S1, S2 = (other.rep.class_by_name(name) for name in ("S1", "S2"))
    P = PeriodicAlgebra(a2_q2, 1)
    E = ExtendedAlgebra(a2_q2, 1)
    foreign = PeriodicAlgebra(other, 1)
    emb = Embedding(P, E)
    cases = [
        lambda: P.basis([S1]),
        lambda: P.basis([other.rep.zero_class]),
        lambda: E.basis([S2]),
    ]
    for case in cases:
        with pytest.raises(UsageError, match="another context"):
            case()
    # a basis element of the other context's algebra is not one of P's
    cases = [
        lambda: P.element({foreign.basis([S1]): P.field.one}),
        lambda: emb.phi_basis(foreign.basis([S2])),
    ]
    for case in cases:
        with pytest.raises(UsageError, match="not a basis element of this algebra"):
            case()
    # a refused class enters neither registry
    assert not P._registry and not E._registry
    assert P.basis([a2_q2.rep.class_by_name("S1")]) is not foreign.basis([S1])
    # the product that used to read the classes by their A2 names
    a, b = foreign.monomial(foreign.basis([S1])), foreign.monomial(foreign.basis([S2]))
    assert str(foreign.multiply(a, b)) == "[S1+S2@0]"


def test_basis_elements_not_interned_rejected(a2_q2):
    """A basis element with the key of one of P's, built by hand or by a
    second algebra over the same context, is refused at every entry of a
    basis element: element, monomial, phi_basis, phi and the check.  The
    extended algebra refuses its own kind alike."""
    S1, Z = a2_q2.rep.class_by_name("S1"), a2_q2.rep.zero_class
    emb = make_embedding(a2_q2, 3)
    P, E = emb.periodic, emb.extended
    own = P.basis([S1, Z, Z])
    strangers = [PeriodicObject((S1, Z, Z)), PeriodicAlgebra(a2_q2, 3).basis([S1, Z, Z])]
    for b in strangers:
        assert b.key == own.key
        cases = [
            lambda: P.element({b: P.field.one}),
            lambda: P.monomial(b),
            lambda: emb.phi_basis(b),
            lambda: emb.phi(Element(P, {b: P.field.one})),
            lambda: emb.verify_homomorphism(own, b),
            lambda: emb.verify_homomorphism(b, own),
        ]
        for case in cases:
            with pytest.raises(UsageError, match="not a basis element of this algebra"):
                case()
    # no refused element reached phi's cache
    assert set(emb._phi_cache) == {own}

    x = emb.phi_basis(own).basis
    strangers = [
        ExtendedBasisElement(x.classes, x.alphas),
        ExtendedAlgebra(a2_q2, 3).basis(x.classes, x.alphas),
    ]
    for y in strangers:
        assert y.key == x.key
        for case in (lambda: E.element({y: E.field.one}), lambda: E.monomial(y)):
            with pytest.raises(UsageError, match="not a basis element of this algebra"):
                case()


def test_basis_of_the_other_algebra_rejected(a2_q2):
    P = PeriodicAlgebra(a2_q2, 1)
    E = ExtendedAlgebra(a2_q2, 1)
    S1 = a2_q2.rep.class_by_name("S1")
    for algebra, basis in ((P, E.basis([S1])), (E, P.basis([S1]))):
        with pytest.raises(UsageError, match="not a basis element of this algebra"):
            algebra.element({basis: algebra.field.one})


def test_phi_m1(a1_q2):
    emb = make_embedding(a1_q2, 1)
    ctx = emb.rep
    S = ctx.class_by_name("S1")
    image = emb.phi_basis(emb.periodic.basis([S]))
    assert image.units == 0
    assert image.basis.classes == (S,)
    assert image.basis.alphas == ((-1,),)  # doubled -1/2 per unit of [S]


def test_phi_unit(a2_q2):
    emb = make_embedding(a2_q2, 3)
    image = emb.phi_basis(emb.periodic.unit_basis)
    assert image.units == 0
    assert image.basis == emb.extended.unit_basis


def test_phi_m3_frozen_example(a2_q2):
    # phi(u_{S1@0}) = v^{-3/4} u_{S1@0} K(-S1/2 @0) K(+S1/2 @1) K(-S1/2 @2)
    emb = make_embedding(a2_q2, 3)
    ctx = emb.rep
    Z = ctx.zero_class
    image = emb.phi_basis(emb.periodic.basis([ctx.class_by_name("S1"), Z, Z]))
    assert image.units == -3
    assert image.basis.alphas == ((-1, 0), (1, 0), (-1, 0))
    assert image.basis.classes[0].name == "S1"


def test_phi_general_formula_reduces_at_m1(a1_q2, a2_q2):
    # the m>1 exponent formula, evaluated at m=1 with the summation
    # conventions, must give the plain m=1 branch (exponent zero)
    for d in (a1_q2, a2_q2):
        ctx = d.rep
        for cls in ctx.iso_classes_upto((2,) * ctx.quiver.n):
            units = phi_exponent_t_units([cls.dims], 1, ctx.quiver.euler)
            assert units == 0
            emb = make_embedding(d, 1)
            image = emb.phi_basis(emb.periodic.basis([cls]))
            assert image.basis.alphas == (tuple(-x for x in cls.dims),)


def test_homomorphism_on_small_pairs(dctx_factory):
    for q in (2, 3):
        emb = make_embedding(dctx_factory("A2", q), 3)
        ctx = emb.rep
        rng = random.Random(61)
        for _ in range(10):
            a = emb.periodic.basis(sample_module_tuple(ctx, rng, 3, (1, 1)))
            b = emb.periodic.basis(sample_module_tuple(ctx, rng, 3, (1, 1)))
            report = emb.verify_homomorphism(a, b)
            assert report["equal"], report


def test_homomorphism_extends_linearly(a2_q2):
    emb = make_embedding(a2_q2, 3)
    P = emb.periodic
    ctx = emb.rep
    Z = ctx.zero_class
    x = P.monomial(P.basis([ctx.class_by_name("S1"), Z, Z]))
    y = P.monomial(P.basis([Z, ctx.class_by_name("S2"), Z]))
    el = x * emb.field.v_power(2) + y
    lhs = emb.phi(P.multiply(el, el))
    rhs = emb.extended.multiply(emb.phi(el), emb.phi(el))
    assert lhs == rhs


def test_k_bookkeeping_pivot_identity(a2_q2):
    # on each K-free product term: [I_i] - 1/2 sum_k (-1)^k ([A]+[B])_{i+1+k}
    # equals -1/2 sum_k (-1)^k [M]_{i+1+k}
    d = a2_q2
    m = 3
    E = ExtendedAlgebra(d, m)
    ctx = d.rep
    rng = random.Random(9)
    for _ in range(8):
        A = sample_module_tuple(ctx, rng, m, (1, 1))
        B = sample_module_tuple(ctx, rng, m, (1, 1))
        for basis in E.basis_product(E.basis(A), E.basis(B)):
            for i in range(m):
                dbl_i = np.array(basis.alphas[i])  # equals 2 [I_i] here
                ab = sum(
                    (-1) ** k
                    * (
                        np.array(A[(i + 1 + k) % m].dims)
                        + np.array(B[(i + 1 + k) % m].dims)
                    )
                    for k in range(m)
                )
                mm = sum(
                    (-1) ** k * np.array(basis.classes[(i + 1 + k) % m].dims)
                    for k in range(m)
                )
                assert np.array_equal(dbl_i - ab, -mm)


def test_identity_3_2():
    rng = random.Random(123)
    for m in (1, 3, 5):
        for _ in range(30):
            vecs = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(m)]
            for anchor in range(m):
                assert check_identity_3_2(vecs, anchor)
    zeros = [(0, 0)] * 3
    assert check_identity_3_2(zeros, 0)
    with pytest.raises(UsageError):
        check_identity_3_2([(0,), (0,)], 0)


def test_identity_3_2_fails_for_even_m_data():
    # the telescoping argument needs odd m; an even cycle genuinely breaks it
    vecs = [(1, 0), (0, 0), (0, 0), (0, 0)]
    with pytest.raises(UsageError):
        check_identity_3_2(vecs, 0)


def test_injectivity_structure(a2_q2):
    """phi sends distinct basis elements to distinct basis elements."""
    emb = make_embedding(a2_q2, 3)
    elements = periodic_basis_elements(emb.periodic, (1, 1), max_degrees=2)
    images = {emb.phi_basis(b).basis for b in elements}
    assert len(images) == len(elements) > 1


def test_embedding_sweep_m1(dctx_factory):
    for q in (2, 3):
        emb = make_embedding(dctx_factory("A2", q), 1)
        report = embedding_sweep(emb, (1, 1), max_degrees=1)
        assert report["passed"], report["failures"][:2]
        assert report["checked"] == 25


def test_report_shape_on_failure_path(a2_q2):
    # force an unequal comparison through the report helper
    emb = make_embedding(a2_q2, 3)
    P, E = emb.periodic, emb.extended
    ctx = emb.rep
    Z = ctx.zero_class
    lhs = E.monomial(E.basis([ctx.class_by_name("S1"), Z, Z]))
    rhs = E.monomial(E.basis([ctx.class_by_name("S2"), Z, Z]))
    diff = Embedding._first_diff(lhs.terms, rhs.terms, emb.field)
    assert set(diff) == {"basis", "lhs", "rhs"}


@pytest.mark.parametrize("m", [1, 3])
def test_phi_images_are_cached(a2_q2, m):
    emb = make_embedding(a2_q2, m)
    ctx = a2_q2.rep
    rng = random.Random(m)
    for _ in range(20):
        b = emb.periodic.basis(sample_module_tuple(ctx, rng, m, (1, 1)))
        image = emb.phi_basis(b)
        assert emb.phi_basis(b) is image
        # a fresh embedding gives the image of its own basis element alike
        other = make_embedding(a2_q2, m)
        twin = other.phi_basis(other.periodic.basis(b.classes))
        assert (twin.units, twin.basis.key) == (image.units, image.basis.key)


@pytest.mark.parametrize("wrong", ["operand", "product term"])
def test_wrong_phi_is_caught(a2_q2, monkeypatch, wrong):
    """A phi image off by a factor v fails the check, with a readable diff."""
    emb = make_embedding(a2_q2, 3)
    P = emb.periodic
    ctx = emb.rep
    Z = ctx.zero_class
    a = P.basis([ctx.class_by_name("S1"), Z, Z])
    b = P.basis([ctx.class_by_name("S2"), Z, Z])
    assert emb.verify_homomorphism(a, b)["equal"]
    if wrong == "operand":
        target = a
    else:
        # u_{S1@0} u_{S2@0} has the terms [P1@0] and [S1+S2@0]
        target = P.basis([ctx.class_by_name("P1"), Z, Z])
        assert target in P.basis_product(a, b)
    original = emb.phi_basis

    def off_by_v(basis):
        image = original(basis)
        if basis == target:
            return PhiImage(image.units + 4, image.basis)
        return image

    monkeypatch.setattr(emb, "phi_basis", off_by_v)
    report = emb.verify_homomorphism(a, b)
    assert report["equal"] is False
    assert report["pair"] == [str(a), str(b)]
    diff = report["first_diff"]
    assert set(diff) == {"basis", "lhs", "rhs"}
    assert isinstance(diff["basis"], str)
    for side in ("lhs", "rhs"):
        assert len(diff[side]) == 8
        assert all(isinstance(x, str) for x in diff[side])
    assert diff["lhs"] != diff["rhs"]


# (pairs, failing pairs, sha256 of the failing reports) with the K-index of
# every connecting tuple off by one at its first entry, keyed by (q, m,
# max_degrees) of an A2 sweep at bound (1,1); pinned before the algebras
# kept one object per basis element
OFF_BY_ONE_K_PINS = {
    (2, 3, 1): (169, 169, "3e7c3c5885a004e31597419cb72e3906568d6fcdf0404dfa34fdc0d03ce0f15e"),
    (3, 1, 2): (25, 25, "e1430f587dad8ba47b791381b09f9a43fd9f360f787f75eb479e60797b847f04"),
}


@pytest.mark.parametrize("q, m, max_degrees", sorted(OFF_BY_ONE_K_PINS))
def test_off_by_one_k_index_fails_as_pinned(dctx_factory, monkeypatch, q, m, max_degrees):
    """A wrong K-index in the extended product builds basis elements no phi
    image has: every pair fails, with the pinned first_diff reports."""
    original = ExtendedAlgebra._tuple_data

    def off_by_one(self, dims):
        dbl, inner = original(self, dims)
        return [dbl[0] + 1] + dbl[1:], inner

    monkeypatch.setattr(ExtendedAlgebra, "_tuple_data", off_by_one)
    emb = make_embedding(dctx_factory("A2", q), m)
    elements = periodic_basis_elements(emb.periodic, (1, 1), max_degrees=max_degrees)
    h = hashlib.sha256()
    failed = 0
    for a in elements:
        for b in elements:
            report = emb.verify_homomorphism(a, b)
            if not report["equal"]:
                failed += 1
                h.update(json.dumps(report, sort_keys=True).encode())
                h.update(b"\n")
    got = (len(elements) ** 2, failed, h.hexdigest())
    assert got == OFF_BY_ONE_K_PINS[q, m, max_degrees]


def test_basis_check_matches_element_oracle(a2_q2):
    """The basis-level check agrees with phi(a b) and phi(a) phi(b) built
    from monomial elements through Algebra.multiply."""
    emb = make_embedding(a2_q2, 3)
    P, E = emb.periodic, emb.extended
    elements = periodic_basis_elements(P, (1, 1))
    for a in elements:
        for b in elements:
            lhs = emb.phi(P.multiply(P.monomial(a), P.monomial(b)))
            image_a, image_b = emb.phi_basis(a), emb.phi_basis(b)
            rhs = emb.field.v_power(image_a.units + image_b.units) * E.multiply(
                E.monomial(image_a.basis), E.monomial(image_b.basis)
            )
            assert lhs == rhs, (a, b)
            report = emb.verify_homomorphism(a, b)
            assert report["equal"]
            assert report["lhs_terms"] == len(lhs.terms)
            assert report["rhs_terms"] == len(rhs.terms)


def reference_report(emb, a, b) -> dict:
    """The check as first written: both sides scaled by generic products."""
    lhs = {}
    product = product_scalars(emb.periodic, emb.periodic.basis_product(a, b))
    for basis, s in product.items():
        image = emb.phi_basis(basis)
        lhs[image.basis] = s * emb.field.v_power(image.units)
    image_a, image_b = emb.phi_basis(a), emb.phi_basis(b)
    c = emb.field.v_power(image_a.units) * emb.field.v_power(image_b.units)
    product = product_scalars(
        emb.extended, emb.extended.basis_product(image_a.basis, image_b.basis)
    )
    rhs = {basis: c * s for basis, s in product.items()}
    report = {
        "pair": [str(a), str(b)],
        "equal": lhs == rhs,
        "lhs_terms": len(lhs),
        "rhs_terms": len(rhs),
    }
    if lhs != rhs:
        report["first_diff"] = Embedding._first_diff(lhs, rhs, emb.field)
    return report


def shift_degree_1_images(emb, monkeypatch, units):
    """Make phi off by t^units on every image with a nonzero class at degree 1."""
    original = emb.phi_basis

    def shifted(basis):
        image = original(basis)
        if basis.classes[1].is_zero:
            return image
        return PhiImage(image.units + units, image.basis)

    monkeypatch.setattr(emb, "phi_basis", shifted)


def failures_as_in_reference(emb, elements) -> int:
    """How many pairs fail the check, each report equal to the reference."""
    failed = 0
    for a in elements:
        for b in elements:
            report = emb.verify_homomorphism(a, b)
            assert report == reference_report(emb, a, b)
            failed += not report["equal"]
            assert ("first_diff" in report) is not report["equal"]
    return failed


def test_report_matches_generic_product_reference(a2_q3, monkeypatch):
    """Every report of A2 bound (1,1) at q=3, m=3 equals the reference built
    with generic scalar products, before and after a fault in phi that makes
    part of the pairs fail and print their first difference."""
    emb = make_embedding(a2_q3, 3)
    elements = periodic_basis_elements(emb.periodic, (1, 1))
    for a in elements:
        for b in elements:
            assert emb.verify_homomorphism(a, b) == reference_report(emb, a, b)

    shift_degree_1_images(emb, monkeypatch, 3)
    failed = failures_as_in_reference(emb, elements)
    assert 0 < failed < len(elements) ** 2


def test_fault_by_a_power_of_q_fails_as_in_reference(a2_q3, monkeypatch):
    """A phi fault of t^8 = q keeps every exponent's residue mod 8, so only
    the cross-multiplied rationals can catch it; it fails on exactly the
    pairs where the generic-product reference fails."""
    emb = make_embedding(a2_q3, 3)
    elements = periodic_basis_elements(emb.periodic, (1, 1))
    shift_degree_1_images(emb, monkeypatch, 8)
    failed = failures_as_in_reference(emb, elements)
    assert 0 < failed < len(elements) ** 2


# records equal in value to (num, den, n) but not as tuples, for a prime q;
# the first two move the q-power one way and the other, the last scales both
REWRITES = {
    "q-num": lambda num, den, n, q: (num * q, den, n - 8),
    "q-den": lambda num, den, n, q: (num, den * q, n + 8),
    "scaled": lambda num, den, n, q: (2 * num, 2 * den, n),
}


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
@pytest.mark.parametrize("q, m", [(2, 1), (3, 3)])
def test_check_reads_records_by_value(dctx_factory, monkeypatch, rewrite, q, m):
    """With every extended record rewritten to an equal value in another
    form, every A2 bound (1,1) report is still equal."""
    emb = make_embedding(dctx_factory("A2", q), m)
    original = emb.extended.basis_product
    form = REWRITES[rewrite]

    def rewritten(x, y):
        return {b: form(*r, q) for b, r in original(x, y).items()}

    monkeypatch.setattr(emb.extended, "basis_product", rewritten)
    elements = periodic_basis_elements(emb.periodic, (1, 1))
    for a in elements:
        for b in elements:
            assert emb.verify_homomorphism(a, b)["equal"], (a, b)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_same_value_agrees_with_scalar_equality(q):
    """_same_value on records against == on the scalars that multiply builds
    from them, on random pairs of records and on a missing term."""
    field = ScalarField(q)
    rng = random.Random(q)

    def record():
        num = rng.randint(-4, 4) * q ** rng.randint(0, 2)
        return num, rng.choice((1, 2, 3, q, 2 * q, q * q)), rng.randint(-20, 20)

    def other(x):
        num, den, n = x
        j = rng.randint(-2, 2)
        c = rng.choice((1, -1, 2))
        return rng.choice(
            (
                None,
                record(),
                x,
                (num, den, n + rng.randint(1, 7)),  # another residue mod 8
                (c * num * q ** max(j, 0), c * den * q ** max(-j, 0), n - 8 * j),
                (num * q ** max(j, 0) + 1, den * q ** max(-j, 0), n - 8 * j),
                (0, den, rng.randint(-20, 20)),
            )
        )

    outcomes = Counter()
    for _ in range(3000):
        x = record()
        y = other(x)
        scalar = None if y is None else record_scalar(field, y)
        want = record_scalar(field, x) == scalar
        got = _same_value(x, y, q)
        assert got is want, (x, y)
        outcomes[got, y is None, x == y] += 1
    # both verdicts, on equal and unequal tuples, and a missing term
    assert {(True, False, True), (True, False, False), (False, False, False)} <= set(
        outcomes
    )
    assert outcomes[False, True, False]


def test_colliding_images_fail_the_check(a2_q2, monkeypatch):
    """Two periodic product terms sent to one extended basis element are
    caught, although the check compares coefficients one key at a time."""
    emb = make_embedding(a2_q2, 3)
    P = emb.periodic
    ctx = emb.rep
    Z = ctx.zero_class
    a = P.basis([ctx.class_by_name("S1"), Z, Z])
    b = P.basis([ctx.class_by_name("S2"), Z, Z])
    # u_{S1@0} u_{S2@0} has the terms [P1@0] and [S1+S2@0]
    p1 = P.basis([ctx.class_by_name("P1"), Z, Z])
    split = P.basis([ctx.class_by_name("S1+S2"), Z, Z])
    assert set(P.basis_product(a, b)) == {p1, split}
    assert emb.verify_homomorphism(a, b)["equal"]
    original = emb.phi_basis

    def collide(basis):
        image = original(basis)
        if basis == p1:
            return PhiImage(image.units, original(split).basis)
        return image

    monkeypatch.setattr(emb, "phi_basis", collide)
    report = emb.verify_homomorphism(a, b)
    assert report["equal"] is False
    assert (report["lhs_terms"], report["rhs_terms"]) == (1, 2)
    assert report == reference_report(emb, a, b)
    assert report["first_diff"]["basis"] == str(original(p1).basis)
