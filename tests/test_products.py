"""Basis products of both algebras against per-term oracles, the bounded
product caches, and embedding sweeps pinned by digest on the Kronecker
quiver, on A2 and on two orientations of A3."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from conftest import product_scalars

from periodic_hall import combo
from periodic_hall.derived import DerivedContext
from periodic_hall.embed import Embedding
from periodic_hall.extended import ExtendedAlgebra, convention_range
from periodic_hall.periodic import PeriodicAlgebra
from periodic_hall.repcat import Quiver, RepContext
from periodic_hall.suites import embedding_sweep, periodic_basis_elements

KRONECKER = "2; 1->2, 1->2"
TWO_SINK = "3; 1->2, 3->2"


def make_embedding(quiver, q, m):
    d = DerivedContext(RepContext(Quiver.parse(quiver), q))
    return Embedding(PeriodicAlgebra(d, m), ExtendedAlgebra(d, m))


# -- oracles: each twist term by term, with Fraction sums and Euler pairings --


def periodic_product_oracle(P, a, b):
    """u_a u_b with one Fraction per Hall-sum numerator, summed per term,
    keyed by the module tuple of each output."""
    m, rep = P.m, P.rep
    dims_a = [cls.dims for cls in a.classes]
    dims_b = [cls.dims for cls in b.classes]
    twist = 0
    for i in range(m):
        twist += rep.quiver.euler(combo.alternating_sum(dims_a, i, range(m)), dims_b[i])
    e, den, groups = P.derived.connecting_terms(a.classes, b.classes)
    weight = Fraction(P.field.q) ** -e / den
    accum = {}
    for terms in groups.values():
        for modules, num in terms.items():
            accum[modules] = accum.get(modules, 0) + num * weight
    return {
        modules: P.field.term(coeff, 4 * twist)
        for modules, coeff in accum.items()
        if coeff
    }


def extended_product_oracle(E, x, y):
    """u_x u_y with every pairing evaluated by the Euler form, per term,
    keyed by the (classes, alphas) of each output."""
    m, rep = E.m, E.rep
    A, alphas = x.classes, x.alphas
    B, betas = y.classes, y.alphas
    dims_a = [cls.dims for cls in A]
    dims_b = [cls.dims for cls in B]
    a0 = 0
    for i in range(m):
        a0 += 4 * rep.quiver.euler(dims_a[i], dims_b[i])
    for i in range(m):
        delta = [2 * (s - t) for s, t in zip(dims_b[i], dims_b[(i + 1) % m])]
        a0 += rep.sym_t_units(alphas[i], delta)
    for i in convention_range(m):
        a0 += rep.sym_t_units(alphas[i % m], betas[(i - 1) % m])
    a0 -= rep.sym_t_units(alphas[m - 1], betas[0])

    e, den, groups = E.derived.connecting_terms(A, B)
    out = {}
    for dims_i, terms in groups.items():
        dbl_i = [tuple(2 * t for t in v) for v in dims_i]
        inner = -rep.sym_t_units(
            dbl_i[m - 1], tuple(p + q for p, q in zip(alphas[0], betas[0]))
        )
        for i in convention_range(m):
            ab = tuple(p + q for p, q in zip(alphas[(i - 1) % m], betas[(i - 1) % m]))
            inner += rep.sym_t_units(dbl_i[i % m], ab)
        for i in convention_range(m):
            inner += 4 * rep.quiver.euler(dims_i[(i - 1) % m], dims_i[i % m])
        inner -= 4 * rep.quiver.euler(dims_i[0], dims_i[m - 1])
        base = a0 + inner - 8 * e
        gammas = tuple(
            tuple(d2 + p + q for d2, p, q in zip(dbl_i[i], alphas[i], betas[i]))
            for i in range(m)
        )
        steps = [[s - t for s, t in zip(dims_i[i], dims_i[i - 1])] for i in range(m)]
        for modules, num in terms.items():
            m_exp = 0
            for cls, step in zip(modules, steps):
                m_exp += rep.quiver.euler(cls.dims, step)
            scalar = E.field.term(Fraction(num, den), base + 4 * m_exp)
            combo.add_term(out, (modules, gammas), scalar)
    return out


def assert_same_terms(algebra, product, want):
    """Equal scalars on bases of equal keys, in the same term order."""
    got = product_scalars(algebra, product)
    assert [(b.key, s) for b, s in got.items()] == list(want.items())


ORACLE_CASES = [
    ("A2", 2, 1, 2, None),
    ("A2", 2, 3, 2, None),
    ("A2", 2, 5, 2, 150),
    ("A2", 3, 1, 2, None),
    ("A2", 3, 3, 2, 600),
    ("A2", 3, 5, 2, 150),
    (KRONECKER, 2, 3, 1, None),
]


@pytest.mark.parametrize("quiver, q, m, max_degrees, samples", ORACLE_CASES)
def test_basis_products_match_per_term_oracles(quiver, q, m, max_degrees, samples):
    """Both twists equal their per-term oracles on every pair of a bound-(1,1)
    sweep (a seeded sample of pairs where the sweep is large), the extended
    one on the phi images."""
    emb = make_embedding(quiver, q, m)
    P, E = emb.periodic, emb.extended
    elements = periodic_basis_elements(P, (1, 1), max_degrees)
    pairs = [(a, b) for a in elements for b in elements]
    if samples is not None:
        pairs = random.Random(100 * q + m).sample(pairs, samples)
    for a, b in pairs:
        assert_same_terms(P, P.basis_product(a, b), periodic_product_oracle(P, a, b))
        x, y = emb.phi_basis(a).basis, emb.phi_basis(b).basis
        assert_same_terms(E, E.basis_product(x, y), extended_product_oracle(E, x, y))


# one arrow, two parallel arrows, and two arrows into one sink, each with
# the bound of its classes; an A2 case is named by its period alone
RANDOM_QUIVERS = [
    ("", "A2", 3, (1, 1)),
    ("kronecker-", KRONECKER, 2, (1, 1)),
    ("two-sink-", TWO_SINK, 2, (1, 1, 1)),
]


def random_cases(periods):
    return [
        pytest.param(quiver, q, bound, m, id=f"{label}{m}")
        for label, quiver, q, bound in RANDOM_QUIVERS
        for m in periods
    ]


@pytest.mark.parametrize("quiver, q, bound, m", random_cases((1, 2, 3, 4, 5)))
def test_extended_product_matches_oracle_on_random_k_parts(dctx_factory, quiver, q, bound, m):
    """Random half-lattice K-parts, even periods included."""
    d = dctx_factory(quiver, q)
    E = ExtendedAlgebra(d, m)
    n = d.rep.quiver.n
    classes = d.rep.iso_classes_upto(bound)
    rng = random.Random(m)

    def element():
        alphas = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        return E.basis([rng.choice(classes) for _ in range(m)], alphas)

    for _ in range(150):
        x, y = element(), element()
        assert_same_terms(E, E.basis_product(x, y), extended_product_oracle(E, x, y))


@pytest.mark.parametrize("quiver, q, bound, m", random_cases((1, 3, 5)))
def test_periodic_product_matches_oracle_on_random_tuples(dctx_factory, quiver, q, bound, m):
    d = dctx_factory(quiver, q)
    P = PeriodicAlgebra(d, m)
    classes = d.rep.iso_classes_upto(bound)
    rng = random.Random(m)
    for _ in range(150):
        a, b = (P.basis([rng.choice(classes) for _ in range(m)]) for _ in range(2))
        assert_same_terms(P, P.basis_product(a, b), periodic_product_oracle(P, a, b))


# A2 pairs whose Hall sum has two connecting tuples of equal dims (1,1) at
# position 0, (P1) and (S1+S2): the coefficient of the target adds 4 + 1 at
# q=2, and 36/|Aut P1| + 16/|Aut(S1+S2)| = 18 + 4 at q=3
EQUAL_DIMS_PAIRS = [
    (1, "[P1+S2@0]", "[P1+S1@0]", "[S1+S2@0]"),
    (3, "[P1+S2@1]", "[P1+S1@0]", "[S1@0 + S2@1]"),
]


@pytest.mark.parametrize("q, coefficient", [(2, "5*v^-3"), (3, "22*v^-3")])
@pytest.mark.parametrize("m, lhs, rhs, target", EQUAL_DIMS_PAIRS)
def test_connecting_tuples_with_equal_dims(q, coefficient, m, lhs, rhs, target):
    emb = make_embedding("A2", q, m)
    P, E = emb.periodic, emb.extended
    a, b = P.parse_basis(lhs), P.parse_basis(rhs)
    assert_same_terms(P, P.basis_product(a, b), periodic_product_oracle(P, a, b))
    x, y = emb.phi_basis(a).basis, emb.phi_basis(b).basis
    assert_same_terms(E, E.basis_product(x, y), extended_product_oracle(E, x, y))
    product = P.multiply(P.monomial(a), P.monomial(b))
    assert str(product.terms[P.parse_basis(target)]) == coefficient
    assert emb.verify_homomorphism(a, b)["equal"]


@pytest.mark.parametrize("q", [2, 3])
def test_equal_dims_tuples_on_random_k_parts(q):
    """The m=3 pair of EQUAL_DIMS_PAIRS at even period m=2, with random
    half-lattice K-parts."""
    E = ExtendedAlgebra(DerivedContext(RepContext(Quiver.parse("A2"), q)), 2)
    A, B = E.parse_basis("[P1+S2@1]").classes, E.parse_basis("[P1+S1@0]").classes
    rng = random.Random(q)

    def alphas():
        return [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]

    for _ in range(20):
        x, y = E.basis(A, alphas()), E.basis(B, alphas())
        assert_same_terms(E, E.basis_product(x, y), extended_product_oracle(E, x, y))


def test_product_caches_are_bounded(monkeypatch):
    """With room for 4 products, a sweep evicts the oldest entries, keeps
    every cache at 4 or fewer, and returns the same products and report."""
    d = DerivedContext(RepContext(Quiver.parse("A2"), 2))

    def embedding():
        return Embedding(PeriodicAlgebra(d, 3), ExtendedAlgebra(d, 3))

    def pairs(emb):
        elements = periodic_basis_elements(emb.periodic, (1, 1), max_degrees=1)
        return [(a, b) for a in elements for b in elements]

    def products(emb, a, b):
        """The check's report and both basis products, keyed by basis keys:
        the two embeddings intern basis elements of their own."""
        x, y = emb.phi_basis(a).basis, emb.phi_basis(b).basis
        return (
            emb.verify_homomorphism(a, b),
            {u.key: r for u, r in emb.periodic.basis_product(a, b).items()},
            {u.key: r for u, r in emb.extended.basis_product(x, y).items()},
        )

    full = embedding()
    want = [products(full, a, b) for a, b in pairs(full)]
    want_report = embedding_sweep(full, (1, 1), max_degrees=1)

    monkeypatch.setattr(combo, "PRODUCT_CACHE_SIZE", 4)
    capped = embedding()
    caches = (capped.periodic._product_cache, capped.extended._product_cache)
    for (a, b), expected in zip(pairs(capped), want, strict=True):
        assert products(capped, a, b) == expected
        assert all(len(cache) <= 4 for cache in caches)
    assert all(len(cache) == 4 for cache in caches)
    assert embedding_sweep(capped, (1, 1), max_degrees=1) == want_report
    assert all(len(cache) <= 4 for cache in caches)


def test_operand_and_candidate_tables_grow_with_operands():
    """After a sweep of 61 basis elements (3,721 pairs), each algebra holds
    the functionals of at most 61 operands, and the representation context
    one candidate list per distinct bound (those of the connecting classes
    and the sweep's own bound).  The derived context holds one candidate
    row per (B_i, A_{i+1}) pair met, the classes of Sub(B_i) and
    Quot(A_{i+1}) in the bound's order, phi one entry per dims tuple it met,
    and the two registries exactly the module tuples phi met and their
    images."""
    emb = make_embedding("A2", 2, 3)
    elements = periodic_basis_elements(emb.periodic, (1, 1), max_degrees=2)
    report = embedding_sweep(emb, (1, 1), max_degrees=2)
    assert (len(elements), report["checked"], report["passed"]) == (61, 3721, True)
    assert 0 < len(emb.periodic._operands) <= 61
    assert 0 < len(emb.extended._operands) <= 61
    bounds = {
        tuple(map(min, b.classes[i].dims, a.classes[(i + 1) % 3].dims))
        for a in elements
        for b in elements
        for i in range(3)
    }
    rep = emb.periodic.derived.rep
    assert set(rep._upto_cache) == bounds | {(1, 1)}
    # a cached bound is returned as is; any other spelling of it is normalised
    assert all(rep.iso_classes_upto(list(bound)) is rep._upto_cache[bound] for bound in bounds)

    rows = emb.periodic.derived._candidates
    assert set(rows) == {
        (b.classes[i], a.classes[(i + 1) % 3]) for a in elements for b in elements for i in range(3)
    }

    def is_sub(c, L):
        rest = tuple(x - y for x, y in zip(L.dims, c.dims))
        return any(rep.submodule_hall_number(L, M, c) for M in rep.iso_classes_with_dims(rest))

    def is_quot(c, L):
        rest = tuple(x - y for x, y in zip(L.dims, c.dims))
        return any(rep.submodule_hall_number(L, c, N) for N in rep.iso_classes_with_dims(rest))

    for (b_cls, a_next), row in rows.items():
        bound = tuple(map(min, b_cls.dims, a_next.dims))
        assert row == tuple(
            (c, c.dims, rep.aut_count(c))
            for c in rep._upto_cache[bound]
            if is_sub(c, b_cls) and is_quot(c, a_next)
        )
    phi_keys = {b.classes for b in emb._phi_cache}
    assert set(emb._phi_dims) == {tuple(c.dims for c in classes) for classes in phi_keys}
    assert set(emb.periodic._registry) == phi_keys
    assert set(emb._phi_cache) == set(emb.periodic._registry.values())
    assert {key[0] for key in emb.extended._registry} == phi_keys
    assert len(emb.extended._registry) == len(phi_keys)


# the Hall-table fills of the products benchmark sweep (A2, bound (1,1),
# max_degrees 2, m = 1 then m = 3 on one derived context per q): keys filled
# and keys with an empty fiber, and the sha256 of the filled entries (see
# fills_digest), pinned from the nonempty entries of the walk over every
# class up to min(dim B_i, dim A_{i+1}), which filled 225 keys, 81 of them empty
PRODUCTS_FILLS = {
    2: (144, 0, "8ab5ed1ea46bf993fd498aef55bfb8ac6d15ad95a0441475cb0fd4272b938728"),
    3: (144, 0, "4e680a043e0d703d0c019efbbae03ff3ba90da2b84fc1ae2feadcfcac9804966"),
}


def fills_digest(table) -> str:
    """sha256 of the Hall-table entries with every class by name, sorted."""
    text = repr(
        sorted(
            (tuple(c.name for c in key), sorted((M.name, n) for M, n in fiber.items()))
            for key, fiber in table.items()
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def products_sweeps():
    """{q: (derived context, {m: embedding})} after the products sweep."""
    out = {}
    for q in sorted(PRODUCTS_FILLS):
        d = DerivedContext(RepContext(Quiver.parse("A2"), q))
        embs = {}
        for m in (1, 3):
            embs[m] = Embedding(PeriodicAlgebra(d, m), ExtendedAlgebra(d, m))
            assert embedding_sweep(embs[m], (1, 1), max_degrees=2)["passed"]
        out[q] = (d, embs)
    return out


@pytest.mark.parametrize("q", sorted(PRODUCTS_FILLS))
def test_products_sweep_fills_pinned(products_sweeps, q):
    d, _ = products_sweeps[q]
    table = d._hall_table
    empty = sum(1 for fiber in table.values() if not fiber)
    assert (len(table), empty, fills_digest(table)) == PRODUCTS_FILLS[q]


@pytest.mark.parametrize("q", sorted(PRODUCTS_FILLS))
@pytest.mark.parametrize("m", [1, 3])
def test_extended_product_keys_are_phi_images(products_sweeps, q, m):
    """Every key of the extended product of two phi images is the very
    object phi gives the matching periodic output, and each algebra's basis
    returns its registered element."""
    emb = products_sweeps[q][1][m]
    P, E = emb.periodic, emb.extended
    elements = periodic_basis_elements(P, (1, 1), max_degrees=2)
    for a in elements:
        assert P.basis(list(a.classes)) is a
        image_a = emb.phi_basis(a)
        assert E.basis(a.classes, [list(x) for x in image_a.basis.alphas]) is image_a.basis
        for b in elements:
            rhs = E.basis_product(image_a.basis, emb.phi_basis(b).basis)
            images = {id(emb.phi_basis(M).basis) for M in P.basis_product(a, b)}
            assert {id(key) for key in rhs} == images


def test_basis_is_one_object_per_key(a2_q2):
    """Equal inputs, however spelled, give the identical basis element."""
    S1, Z = a2_q2.rep.class_by_name("S1"), a2_q2.rep.zero_class
    P, E = PeriodicAlgebra(a2_q2, 3), ExtendedAlgebra(a2_q2, 3)
    assert P.basis([S1, Z, Z]) is P.basis((S1, Z, Z)) is P.parse_basis("[S1@0]")
    assert P.unit_basis is P.basis([Z, Z, Z])
    alphas = ((1, 0), (0, 0), (0, -2))
    x = E.basis([S1, Z, Z], alphas)
    assert x is E.basis((S1, Z, Z), [list(a) for a in alphas])
    assert x is E.parse_basis("[S1@0]*K[(1,0)/2@0, (0,-1)@2]") is E.parse_basis(str(x))
    assert E.basis([S1, Z, Z]) is E.basis([S1, Z, Z], [(0, 0)] * 3)
    assert E.k_monomial(alphas) is E.basis([Z, Z, Z], alphas)
    # another algebra over the same context keeps its own registry, and its
    # basis element of an equal key is another, unequal element
    u, w = PeriodicAlgebra(a2_q2, 3).basis([S1, Z, Z]), P.basis([S1, Z, Z])
    assert u.key == w.key and u is not w and u != w
    y = ExtendedAlgebra(a2_q2, 3).basis([S1, Z, Z], alphas)
    assert y.key == x.key and y != x
    assert len({u, w, x, y}) == 4


# sha256 of phi(a b), as compact to_json text, over the Kronecker sweep in
# suite order; pinned before the product path shared its connecting pass.
KRONECKER_PIN = (361, "1c71345818bf7e30630b2fef20ce192d8d0c69e19c01bd13865101c2306b67a6")

# the same digest over two A2 sweeps at bound (1,1), keyed by (q, m,
# max_degrees); pinned before the Hall table kept fiber counts only
A2_PINS = {
    (5, 3, 2): (3721, "6b50514f38679ade7fce932c3f9499fe1b8425edc95d9da824435faa68f22b19"),
    (2, 5, 1): (441, "1983e882feff29bbfb33ad18b869b1d4fedb00f8fbe47ee99eb9126898139548"),
}

# the same digest over the A2 sweep at bound (2,1), m=3, max_degrees 1,
# keyed by q; pinned before the extended exponent stopped reading M
A2_BOUND_21_PINS = {
    2: (484, "a3a0bd0d4322726bbd5bb7423941aa880ca507b5c13b9be722b877e95c4e3aba"),
    3: (484, "2a0053ce0162d70be04a186abded5b4e134fcc2bfd41930d2fc6b77b3074a276"),
}

# the same digest on two orientations of A3 at bound (1,1,1), q=2, m=3,
# max_degrees 1; pinned before the phi images lost their scalar
A3_PINS = {
    "A3": (1369, "5a8183f6eed403506eaa57d2ad8ad8540fc1b1fb8c09ab736ed57da54bac7280"),
    TWO_SINK: (
        1369,
        "42e071d46e908e32078fbdbb29876a0a51b9ee8f12117281da2853867f06e4f4",
    ),
}


def embedding_digest(quiver, q, m, max_degrees, bound=(1, 1)):
    """(pairs, sha256) of phi(a b) over the sweep within bound, each pair
    checked to be a homomorphism on the way."""
    emb = make_embedding(quiver, q, m)
    P = emb.periodic
    elements = periodic_basis_elements(P, bound, max_degrees=max_degrees)
    h = hashlib.sha256()
    pairs = 0
    for a in elements:
        for b in elements:
            assert emb.verify_homomorphism(a, b)["equal"], (a, b)
            lhs = emb.phi(P.multiply(P.monomial(a), P.monomial(b)))
            h.update(json.dumps(lhs.to_json(), separators=(",", ":")).encode())
            h.update(b"\n")
            pairs += 1
    return pairs, h.hexdigest()


def test_kronecker_embedding_pinned():
    assert embedding_digest(KRONECKER, 2, 3, 1) == KRONECKER_PIN


@pytest.mark.parametrize("q, m, max_degrees", sorted(A2_PINS))
def test_a2_embedding_pinned(q, m, max_degrees):
    assert embedding_digest("A2", q, m, max_degrees) == A2_PINS[(q, m, max_degrees)]


@pytest.mark.parametrize("q", sorted(A2_BOUND_21_PINS))
def test_a2_bound_21_embedding_pinned(q):
    assert embedding_digest("A2", q, 3, 1, bound=(2, 1)) == A2_BOUND_21_PINS[q]


@pytest.mark.parametrize("quiver", sorted(A3_PINS))
def test_a3_embedding_pinned(quiver):
    assert embedding_digest(quiver, 2, 3, 1, bound=(1, 1, 1)) == A3_PINS[quiver]
