"""Verification sweeps: the checks behind `verify` and the acceptance tests.

Every sweep returns a JSON-friendly report:

    {"suite": ..., "checked": n, "failures": [...], "passed": bool, ...}

Failures carry enough context to reproduce the single offending case.
All randomness comes from a caller-seeded random.Random.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .derived import DerivedContext
from .embed import Embedding, check_identity_3_2
from .errors import EvenPeriodError, UsageError
from .extended import ExtendedAlgebra
from .periodic import PeriodicAlgebra

_MAX_FAILURES = 20


def _report(suite: str, checked: int, failures: list, **extra) -> dict:
    out = {
        "suite": suite,
        "checked": checked,
        "failures": failures[:_MAX_FAILURES],
        "passed": not failures,
    }
    out.update(extra)
    return out


# -- sampling helpers ---------------------------------------------------------


def sample_module_tuple(
    rep, rng, m: int, bound, max_nonzero: int = 2, max_total: int | None = None
) -> tuple:
    pool = [c for c in rep.iso_classes_upto(bound) if not c.is_zero]
    if max_total is not None:
        pool = [c for c in pool if c.total_dim <= max_total]
    if not pool and min(max_nonzero, m) > 0:
        limit = "" if max_total is None else f" and total dimension <= {max_total}"
        raise UsageError(
            f"no nonzero class with dimension vector <= {tuple(bound)}{limit} to sample"
        )
    classes = [rep.zero_class] * m
    count = rng.randint(0, min(max_nonzero, m))
    for i in rng.sample(range(m), count):
        classes[i] = rng.choice(pool)
    return tuple(classes)


def sample_alphas(rep, rng, m: int, span: int = 2) -> tuple:
    n = rep.quiver.n
    return tuple(
        tuple(rng.randint(-span, span) for _ in range(n)) for _ in range(m)
    )


# -- individual sweeps ---------------------------------------------------------


def periodic_basis_elements(algebra: PeriodicAlgebra, bound, max_degrees: int = 2):
    """All basis elements with per-degree classes <= bound and a support cap."""
    pool = algebra.rep.iso_classes_upto(bound)
    out = []
    for tup in product(pool, repeat=algebra.m):
        if sum(1 for c in tup if not c.is_zero) <= max_degrees:
            out.append(algebra.basis(tup))
    return out


def embedding_sweep(embedding: Embedding, bound, max_degrees: int = 2) -> dict:
    elements = periodic_basis_elements(embedding.periodic, bound, max_degrees)
    failures = []
    checked = 0
    for a in elements:
        for b in elements:
            result = embedding.verify_homomorphism(a, b)
            checked += 1
            if not result["equal"]:
                failures.append(result)
    return _report(
        "embedding", checked, failures, basis_elements=len(elements), m=embedding.m
    )


def associativity_sweep(
    algebra,
    samples: int,
    rng,
    bound,
    max_degrees: int = 2,
    max_total: int | None = None,
) -> dict:
    """(xy)z = x(yz) on sampled basis monomials; K parts are sampled exactly
    when the algebra is an ExtendedAlgebra."""
    with_k = isinstance(algebra, ExtendedAlgebra)
    failures = []
    for trial in range(samples):
        triple = []
        for _ in range(3):
            classes = sample_module_tuple(
                algebra.rep, rng, algebra.m, bound, max_degrees, max_total
            )
            if with_k:
                basis = algebra.basis(classes, sample_alphas(algebra.rep, rng, algebra.m))
            else:
                basis = algebra.basis(classes)
            triple.append(algebra.monomial(basis))
        x, y, z = triple
        lhs = algebra.multiply(algebra.multiply(x, y), z)
        rhs = algebra.multiply(x, algebra.multiply(y, z))
        if lhs != rhs:
            failures.append(
                {
                    "trial": trial,
                    "triple": [str(next(iter(t.terms))) for t in triple],
                }
            )
    return _report("assoc", samples, failures, m=algebra.m)


def graded_objects_upto(dctx: DerivedContext, max_total: int, degrees=(0, 1)):
    """All graded objects on the given degrees with total dimension <= max_total."""
    bound = tuple(max_total for _ in range(dctx.rep.quiver.n))
    pool = dctx.rep.iso_classes_upto(bound)
    pool = [c for c in pool if c.total_dim <= max_total]
    out = []
    for combo in product(pool, repeat=len(degrees)):
        if sum(c.total_dim for c in combo) <= max_total:
            out.append(dctx.graded(dict(zip(degrees, combo))))
    return out


def partition_sweep(
    dctx: DerivedContext, max_total: int, degrees=(0, 1), mode: str = "total"
) -> dict:
    """sum_L |Ext^1(X, Y)_L| = q^{dim Hom(X, Y[1])} over a full desk-scale sweep."""
    objects = graded_objects_upto(dctx, max_total, degrees)
    failures = []
    checked = 0
    for X in objects:
        for Y in objects:
            counts = dctx.fiber_counts(X, Y, mode=mode)
            total = sum(counts.values())
            expected = dctx.q ** dctx.db_hom_dim(X, Y.shift(1))
            checked += 1
            if total != expected:
                failures.append(
                    {"X": str(X), "Y": str(Y), "total": total, "expected": expected}
                )
    return _report("partition", checked, failures, objects=len(objects), q=dctx.q)


def identities_sweep(m: int, samples: int, rng, dim: int, span: int = 6) -> dict:
    """Telescoping identities for alternating K-class sums, random vectors."""
    if m < 1:
        raise UsageError(f"period must be positive, got {m}")
    if m % 2 == 0:
        raise EvenPeriodError(f"the telescoping identities need odd m, got {m}")
    failures = []
    checked = 0
    cases = [[tuple(0 for _ in range(dim)) for _ in range(m)]]
    for _ in range(samples):
        cases.append(
            [tuple(rng.randint(-span, span) for _ in range(dim)) for _ in range(m)]
        )
    for vecs in cases:
        for anchor in range(m):
            checked += 1
            if not check_identity_3_2(vecs, anchor):
                failures.append({"vectors": [list(v) for v in vecs], "i": anchor})
    return _report("identities", checked, failures, m=m)


def k_relations_sweep(extended: ExtendedAlgebra, samples: int, rng, bound) -> dict:
    """K-monomial commutation relations, all sides via the general product."""
    rep = extended.rep
    field = extended.field
    m = extended.m
    failures = []
    checked = 0

    def k_elem(alphas):
        return extended.monomial(extended.k_monomial(alphas))

    for trial in range(samples):
        alphas = sample_alphas(rep, rng, m)
        betas = sample_alphas(rep, rng, m)
        b_tuple = sample_module_tuple(rep, rng, m, bound)

        # product of two K-monomials vs closed form
        general = extended.multiply(k_elem(alphas), k_elem(betas))
        units, gammas = extended.k_monomial_product(alphas, betas)
        expected = field.v_power(units) * extended.monomial(
            extended.k_monomial(gammas)
        )
        checked += 1
        if general != expected:
            failures.append({"relation": "k-product", "trial": trial})

        # K-monomial conjugation of a module element
        u = extended.monomial(extended.basis(b_tuple))
        lhs = extended.multiply(k_elem(alphas), u)
        units = 0
        for i in range(m):
            deltas = tuple(
                2 * (x - y)
                for x, y in zip(b_tuple[i].dims, b_tuple[(i + 1) % m].dims)
            )
            units += rep.sym_t_units(alphas[i], deltas)
        rhs = field.v_power(units) * extended.multiply(u, k_elem(alphas))
        checked += 1
        if lhs != rhs:
            failures.append({"relation": "k-conjugation", "trial": trial})

        # commuting two K-monomials
        lhs = extended.multiply(k_elem(alphas), k_elem(betas))
        units = 0
        for i in range(m):
            diff = tuple(
                x - y
                for x, y in zip(betas[(i - 1) % m], betas[(i + 1) % m])
            )
            units += rep.sym_t_units(alphas[i], diff)
        rhs = field.v_power(units) * extended.multiply(k_elem(betas), k_elem(alphas))
        checked += 1
        if lhs != rhs:
            failures.append({"relation": "k-commutation", "trial": trial})
    return _report("k-relations", checked, failures, m=m)


def riedtmann_sweep(dctx: DerivedContext, max_total: int) -> dict:
    """Submodule counts vs extension-fiber counts through the classical identity

        g^L_{M,N} = |Ext^1(M,N)_L| / |Hom(M,N)| * a_L / (a_M a_N)
    """
    rep = dctx.rep
    bound = tuple(max_total for _ in range(rep.quiver.n))
    classes = [c for c in rep.iso_classes_upto(bound) if c.total_dim <= max_total]
    failures = []
    checked = 0
    for M in classes:
        for N in classes:
            if M.total_dim + N.total_dim > max_total:
                continue
            fibers = dctx.module_fiber_counts(dctx.stalk(M), dctx.stalk(N))
            dims = tuple(a + b for a, b in zip(M.dims, N.dims))
            for L in rep.iso_classes_with_dims(dims):
                g = rep.submodule_hall_number(L, M, N)
                ext_count = fibers.get(L, 0)
                rhs = (
                    Fraction(ext_count)
                    / Fraction(rep.q) ** rep.hom_dim(M, N)
                    * Fraction(rep.aut_count(L), rep.aut_count(M) * rep.aut_count(N))
                )
                checked += 1
                if Fraction(g) != rhs:
                    failures.append(
                        {
                            "L": L.name,
                            "M": M.name,
                            "N": N.name,
                            "g": g,
                            "rhs": str(rhs),
                        }
                    )
    return _report("riedtmann", checked, failures, q=dctx.q)
