"""Acceptance criteria, one test per criterion, all at exact tolerance.

Each test prints a `[acceptance] criterion N (...): PASS` line on success
(run pytest with -s to see them); a failure raises with the offending
cases attached.  Everything is exact scalar equality; there are no
numeric tolerances anywhere.
"""

import random

from periodic_hall.embed import Embedding
from periodic_hall.errors import EvenPeriodError
from periodic_hall.extended import ExtendedAlgebra
from periodic_hall.periodic import PeriodicAlgebra
from periodic_hall import suites

from conftest import _derived_context


def _announce(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def _embedding(quiver: str, q: int, m: int) -> Embedding:
    d = _derived_context(quiver, q)
    return Embedding(PeriodicAlgebra(d, m), ExtendedAlgebra(d, m))


def test_criterion_1_embedding_exhaustive():
    """A2, q in {2,3}, m in {1,3}: phi(ab) = phi(a)phi(b) on every ordered
    pair of basis elements with per-degree dimension vectors <= (1,1) and
    at most two nonzero degrees."""
    total = 0
    failures = []
    for q in (2, 3):
        for m in (1, 3):
            emb = _embedding("A2", q, m)
            report = suites.embedding_sweep(emb, (1, 1), max_degrees=2)
            total += report["checked"]
            if not report["passed"]:
                failures.append((q, m, report["failures"][:2]))
    _announce(
        1,
        "embedding theorem, exhaustive desk scale",
        not failures,
        f"[{total} ordered pairs]" if not failures else repr(failures),
    )


def test_criterion_2_associativity():
    """Extended: 50 seeded triples (with half-lattice K-indices) for each
    m in {1,2,3}; periodic: 50 triples for m in {1,3}."""
    failures = []
    checked = 0
    for m in (1, 2, 3):
        rng = random.Random(1000 + m)
        algebra = ExtendedAlgebra(_derived_context("A2", 2), m)
        report = suites.associativity_sweep(algebra, 50, rng, (1, 1), max_degrees=2)
        checked += report["checked"]
        if not report["passed"]:
            failures.append(("extended", m, report["failures"][:2]))
    for m in (1, 3):
        rng = random.Random(2000 + m)
        algebra = PeriodicAlgebra(_derived_context("A2", 2), m)
        report = suites.associativity_sweep(algebra, 50, rng, (1, 1), max_degrees=2)
        checked += report["checked"]
        if not report["passed"]:
            failures.append(("periodic", m, report["failures"][:2]))
    _announce(
        2,
        "associativity",
        not failures,
        f"[{checked} triples]" if not failures else repr(failures),
    )


def test_criterion_3_partition_identity():
    """sum_L |Ext^1(X,Y)_L| = q^{dim Hom(X, Y[1])}: exhaustively for all
    graded X, Y on degrees {0,1} with total dimension <= 3 at q = 2, plus
    the same sweep at q = 3 with total dimension <= 2 (the criterion does
    not pin q; see the decisions notes)."""
    failures = []
    checked = 0
    for q, bound in ((2, 3), (3, 2)):
        report = suites.partition_sweep(_derived_context("A2", q), bound, mode="total")
        checked += report["checked"]
        if not report["passed"]:
            failures.append((q, report["failures"][:2]))
    _announce(
        3,
        "partition identity",
        not failures,
        f"[{checked} pairs]" if not failures else repr(failures),
    )


def test_criterion_4_golden_product():
    """u_{S1@0} u_{S2@0} = v^-1 (u_{S1+S2@0} + (q-1) u_{P1@0}) in DH_3 and
    in the K-index-zero part of DH^e_3, with every Hall number produced by
    the brute-force cone counter."""
    failures = []
    for q in (2, 3):
        d = _derived_context("A2", q)
        ctx = d.rep
        Z = ctx.zero_class
        S1, S2 = ctx.class_by_name("S1"), ctx.class_by_name("S2")
        split, P1 = ctx.class_by_name("S1+S2"), ctx.class_by_name("P1")
        vinv = d.field.v_power(-4)
        qm1 = d.field.from_rational(q - 1)

        P = PeriodicAlgebra(d, 3)
        got = P.multiply(P.monomial(P.basis([S1, Z, Z])), P.monomial(P.basis([S2, Z, Z])))
        want = P.element(
            {P.basis([split, Z, Z]): vinv, P.basis([P1, Z, Z]): vinv * qm1}
        )
        if got != want:
            failures.append(("periodic", q, str(got)))

        E = ExtendedAlgebra(d, 3)
        got_e = E.multiply(
            E.monomial(E.basis([S1, Z, Z])), E.monomial(E.basis([S2, Z, Z]))
        )
        want_e = E.element(
            {E.basis([split, Z, Z]): vinv, E.basis([P1, Z, Z]): vinv * qm1}
        )
        if got_e != want_e:
            failures.append(("extended", q, str(got_e)))
    _announce(4, "golden product", not failures, repr(failures) if failures else "")


def test_criterion_5_k_element_relations():
    """K-monomial product, conjugation and commutation relations: 100
    seeded samples per m in {1,3}, all sides via the general product."""
    failures = []
    checked = 0
    for m in (1, 3):
        rng = random.Random(3000 + m)
        algebra = ExtendedAlgebra(_derived_context("A2", 2), m)
        report = suites.k_relations_sweep(algebra, 100, rng, (1, 1))
        checked += report["checked"]
        if not report["passed"]:
            failures.append((m, report["failures"][:3]))
    _announce(
        5,
        "K-element relations",
        not failures,
        f"[{checked} relation checks]" if not failures else repr(failures),
    )


def test_criterion_6_telescoping_identities():
    """Alternating K-class telescoping identities: 100 random integer
    tuples at each of m in {3,5}, every anchor index."""
    failures = []
    checked = 0
    for m in (3, 5):
        rng = random.Random(4000 + m)
        report = suites.identities_sweep(m, 100, rng, dim=3)
        checked += report["checked"]
        if not report["passed"]:
            failures.append((m, report["failures"][:3]))
    _announce(
        6,
        "telescoping identity",
        not failures,
        f"[{checked} checks]" if not failures else repr(failures),
    )


def test_criterion_7_riedtmann_cross_check():
    """Submodule counts against extension-fiber counts through
    g^L = |Ext^1(M,N)_L| / |Hom(M,N)| * a_L / (a_M a_N), all A2 triples
    with total dimension <= 3, q in {2,3}."""
    failures = []
    checked = 0
    for q in (2, 3):
        report = suites.riedtmann_sweep(_derived_context("A2", q), 3)
        checked += report["checked"]
        if not report["passed"]:
            failures.append((q, report["failures"][:3]))
    _announce(
        7,
        "Riedtmann cross-check",
        not failures,
        f"[{checked} triples]" if not failures else repr(failures),
    )


def test_criterion_8_even_period_guard():
    """Even m: DH_m and phi_m must fail with the documented error; DH^e_m
    must construct and stay associative."""
    d = _derived_context("A2", 2)
    ok = True
    detail = ""
    try:
        PeriodicAlgebra(d, 2)
        ok, detail = False, "DH_2 constructed"
    except EvenPeriodError:
        pass
    if ok:
        try:
            Embedding(PeriodicAlgebra(d, 2), ExtendedAlgebra(d, 2))
            ok, detail = False, "phi_2 constructed"
        except EvenPeriodError:
            pass
    if ok:
        algebra = ExtendedAlgebra(d, 2)  # must not raise
        rng = random.Random(5000)
        report = suites.associativity_sweep(algebra, 50, rng, (1, 1), max_degrees=2)
        if not report["passed"]:
            ok, detail = False, repr(report["failures"][:2])
    _announce(8, "even-period guard", ok, detail)
