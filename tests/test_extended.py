"""The extended algebra with K-elements indexed by the half lattice."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from conftest import product_scalars

from periodic_hall.errors import ParseError
from periodic_hall.extended import ExtendedAlgebra
from periodic_hall.periodic import PeriodicAlgebra
from periodic_hall.suites import (
    associativity_sweep,
    k_relations_sweep,
    sample_alphas,
    sample_module_tuple,
)


def test_unit(a2_q2):
    E = ExtendedAlgebra(a2_q2, 3)
    rng = random.Random(1)
    one = E.unit()
    for _ in range(6):
        basis = E.basis(
            sample_module_tuple(E.rep, rng, 3, (1, 1)), sample_alphas(E.rep, rng, 3)
        )
        x = E.monomial(basis)
        assert E.multiply(one, x) == x
        assert E.multiply(x, one) == x


def test_k_product_m1_is_twistless(a1_q2):
    E = ExtendedAlgebra(a1_q2, 1)
    rng = random.Random(6)
    for _ in range(10):
        alphas = sample_alphas(E.rep, rng, 1)
        betas = sample_alphas(E.rep, rng, 1)
        units, gammas = E.k_monomial_product(alphas, betas)
        assert units == 0
        got = E.multiply(E.monomial(E.k_monomial(alphas)), E.monomial(E.k_monomial(betas)))
        assert got == E.monomial(E.k_monomial(gammas))


def test_k_monomial_product_examples(a2_q2):
    E = ExtendedAlgebra(a2_q2, 3)
    alphas = ((1, 0), (0, 0), (0, 0))  # alpha_0 = S1/2
    zeros = ((0, 0), (0, 0), (0, 0))
    units, gammas = E.k_monomial_product(alphas, zeros)
    assert units == 0 and gammas == alphas
    betas = ((0, 1), (0, 0), (0, 0))  # beta_0 = S2/2
    units, gammas = E.k_monomial_product(alphas, betas)
    assert units == 0
    assert gammas == ((1, 1), (0, 0), (0, 0))


def test_k_conjugation_example(dctx_factory):
    # K-monomial with alpha_0 = [S1] past u_{S2@0} produces v^(S1,S2) = v^-1
    for q in (2, 3):
        d = dctx_factory("A2", q)
        E = ExtendedAlgebra(d, 3)
        ctx = E.rep
        Z = ctx.zero_class
        alphas = ((2, 0), (0, 0), (0, 0))  # doubled: the integral class [S1]
        k = E.monomial(E.k_monomial(alphas))
        u = E.monomial(E.basis([ctx.class_by_name("S2"), Z, Z]))
        got = E.multiply(k, u)
        expected = d.field.v_power(-4) * E.monomial(
            E.basis([ctx.class_by_name("S2"), Z, Z], alphas)
        )
        assert got == expected


def test_golden_product_k_free(dctx_factory):
    for q in (2, 3):
        d = dctx_factory("A2", q)
        E = ExtendedAlgebra(d, 3)
        ctx = E.rep
        Z = ctx.zero_class
        a = E.basis([ctx.class_by_name("S1"), Z, Z])
        b = E.basis([ctx.class_by_name("S2"), Z, Z])
        got = E.multiply(E.monomial(a), E.monomial(b))
        vinv = d.field.v_power(-4)
        expected = E.element(
            {
                E.basis([ctx.class_by_name("S1+S2"), Z, Z]): vinv,
                E.basis([ctx.class_by_name("P1"), Z, Z]): vinv
                * d.field.from_rational(q - 1),
            }
        )
        assert got == expected


def test_associativity_all_periods(dctx_factory):
    rng = random.Random(55)
    for q in (2,):
        for m in (1, 2, 3):
            E = ExtendedAlgebra(dctx_factory("A2", q), m)
            report = associativity_sweep(E, 12, rng, (1, 1))
            assert report["passed"], (m, report["failures"][:2])


def test_k_relations(dctx_factory):
    rng = random.Random(77)
    for m in (1, 3):
        E = ExtendedAlgebra(dctx_factory("A2", 2), m)
        report = k_relations_sweep(E, 25, rng, (1, 1))
        assert report["passed"], report["failures"][:3]


def test_reproduces_plain_twisted_formula_on_k_free_inputs(a2_q2):
    """Direct re-evaluation of the K-free product formula.

    Assembles v^{sum <A_i, B_i>} * v^{inner(I)} * prod H/a * u_M * K_I from
    fiber counts independently of the production code path.
    """
    d = a2_q2
    m = 3
    E = ExtendedAlgebra(d, m)
    ctx = E.rep
    rng = random.Random(14)
    q = Fraction(ctx.q)

    def direct_product(A, B):
        terms = {}
        prefactor = 4 * sum(ctx.quiver.euler(A[i].dims, B[i].dims) for i in range(m))
        bounds = [
            tuple(min(x, y) for x, y in zip(B[i].dims, A[(i + 1) % m].dims))
            for i in range(m)
        ]
        for I in product(*(ctx.iso_classes_upto(b) for b in bounds)):
            factors = []
            for i in range(m):
                X = d.graded({1: I[i], 0: A[i]})
                Y = d.graded({0: B[i], -1: I[(i - 1) % m]})
                counts = d.module_fiber_counts(X, Y)
                weight = q ** (-d.hall_denominator_exponent(X, Y)) / ctx.aut_count(
                    I[i]
                )
                factors.append({M: c * weight for M, c in counts.items()})
            if not all(factors):
                continue
            inner = 0
            for i in range(1, m):
                inner += 4 * ctx.quiver.euler(I[i - 1].dims, I[i].dims)
            inner -= 4 * ctx.quiver.euler(I[0].dims, I[m - 1].dims)
            gammas = tuple(tuple(2 * t for t in I[i].dims) for i in range(m))
            for chosen in product(*(f.items() for f in factors)):
                modules = tuple(cls for cls, _ in chosen)
                coeff = Fraction(1)
                for _, c in chosen:
                    coeff *= c
                mexp = 0
                for i in range(m):
                    diff = np.array(modules[i].dims) - np.array(
                        modules[(i + 1) % m].dims
                    )
                    mexp += 4 * ctx.quiver.euler(diff, I[i].dims)
                basis = E.basis(modules, gammas)
                scalar = d.field.v_power(prefactor + inner + mexp) * d.field.from_rational(coeff)
                prev = terms.get(basis)
                terms[basis] = prev + scalar if prev is not None else scalar
        return E.element(terms)

    for _ in range(6):
        A = sample_module_tuple(ctx, rng, m, (1, 1))
        B = sample_module_tuple(ctx, rng, m, (1, 1))
        got = E.multiply(E.monomial(E.basis(A)), E.monomial(E.basis(B)))
        assert got == direct_product(A, B)


def test_structure_constants_match_periodic(a2_q2):
    """Per (I, M): the rational prod H/a agrees between the two algebras.

    The extended product separates contributions by the output K-index
    (which equals [I] on K-free inputs), so dividing out each route's twist
    and summing must reproduce the periodic coefficients.
    """
    d = a2_q2
    m = 3
    E = ExtendedAlgebra(d, m)
    P = PeriodicAlgebra(d, m)
    ctx = E.rep
    rng = random.Random(19)
    for _ in range(8):
        A = sample_module_tuple(ctx, rng, m, (1, 1))
        B = sample_module_tuple(ctx, rng, m, (1, 1))
        ext = product_scalars(E, E.basis_product(E.basis(A), E.basis(B)))
        per = product_scalars(P, P.basis_product(P.basis(A), P.basis(B)))

        # strip twists: group extended terms by module tuple
        recovered = {}
        for basis, scalar in ext.items():
            i_dims = [tuple(x // 2 for x in a) for a in basis.alphas]
            prefactor = 4 * sum(ctx.quiver.euler(A[i].dims, B[i].dims) for i in range(m))
            inner = 0
            for i in range(1, m):
                inner += 4 * ctx.quiver.euler(i_dims[i - 1], i_dims[i])
            inner -= 4 * ctx.quiver.euler(i_dims[0], i_dims[m - 1])
            mexp = 0
            for i in range(m):
                diff = np.array(basis.classes[i].dims) - np.array(
                    basis.classes[(i + 1) % m].dims
                )
                mexp += 4 * ctx.quiver.euler(diff, i_dims[i])
            bare = scalar * d.field.v_power(-(prefactor + inner + mexp))
            prev = recovered.get(basis.classes)
            recovered[basis.classes] = prev + bare if prev is not None else bare

        for pbasis, pscalar in per.items():
            twist = 0
            for i in range(m):
                alt = sum(
                    (-1) ** k * np.array(A[(i + k) % m].dims) for k in range(m)
                )
                twist += ctx.quiver.euler(alt, B[i].dims)
            bare = pscalar * d.field.v_power(-4 * twist)
            assert recovered.get(pbasis.classes) == bare
        assert len(recovered) == len(per)


def test_parse_and_print_roundtrip(a2_q2):
    E = ExtendedAlgebra(a2_q2, 3)
    ctx = E.rep
    rng = random.Random(4)
    elements = [E.unit()]
    for _ in range(6):
        x = E.basis(
            sample_module_tuple(ctx, rng, 3, (1, 1)), sample_alphas(ctx, rng, 3)
        )
        y = E.basis(
            sample_module_tuple(ctx, rng, 3, (1, 1)), sample_alphas(ctx, rng, 3)
        )
        elements.append(E.multiply(E.monomial(x), E.monomial(y)))
    for el in elements:
        assert E.parse_element(str(el)) == el
    # the documented K literal shape
    b = E.parse_basis("[S1@0]*K[(1,0)/2@0, (0,0)@1, (0,-1)/2@2]")
    assert b.alphas == ((1, 0), (0, 0), (0, -1))
    pure_k = E.parse_basis("K[(1,1)@0]")
    assert pure_k.alphas[0] == (2, 2)
    with pytest.raises(ParseError):
        E.parse_basis("[S1@0]*K[(1)@0]")
