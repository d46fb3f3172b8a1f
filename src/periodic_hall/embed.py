"""Basis-wise algebra embedding of DH_m into DH^e_m (odd m).

A periodic basis element maps to a scalar multiple of one extended basis
element: the same module tuple, K-indices -1/2 * X_{i+1} built from the
alternating class sums X_i = sum_k (-1)^k [M_{i+k}], and a pure t-power
scalar.  The exponent is

    1/4 sum_{i=1}^{m-1} <X_i, X_{i+1}>  -  1/4 <X_1, X_0>
        + sum_i <[M_i], sum_{k=1}^{m-1} (-1)^k [M_{i+k}]>

where at m = 1 the pairing sum over i contributes its i = 1 term (indices
mod m) and cancels the boundary term, while the alternating k-sum is
empty; the formula then collapses to the plain m = 1 assignment
u_M -> u_M K_{-1/2 [M]}.

`verify_homomorphism` evaluates phi(a * b) and phi(a) * phi(b) through the
two independent multiplication pipelines and compares exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combo import Element, add_term, alternating_sum
from .errors import UsageError
from .extended import ExtendedAlgebra, ExtendedBasisElement, convention_range
from .periodic import PeriodicAlgebra, PeriodicObject
from .scalar import Scalar


@dataclass(frozen=True)
class PhiImage:
    """phi(basis) = scalar * basis; the scalar is a nonzero t-power."""

    scalar: Scalar
    basis: ExtendedBasisElement


def phi_exponent_t_units(dims, m: int, euler) -> int:
    """Embedding exponent in quarter units of v, for any odd m (also m=1)."""
    x = [alternating_sum(dims, i, range(m)) for i in range(m)]
    units = 0
    for i in convention_range(m):
        units += euler(x[i % m], x[(i + 1) % m])
    units -= euler(x[1 % m], x[0])
    for i in range(m):
        units += 4 * euler(dims[i], alternating_sum(dims, i, range(1, m)))
    return units


class Embedding:
    """phi: DH_m -> DH^e_m over one shared derived context."""

    def __init__(self, periodic: PeriodicAlgebra, extended: ExtendedAlgebra):
        if periodic.derived is not extended.derived:
            raise UsageError("the two algebras must share one derived context")
        if periodic.m != extended.m:
            raise UsageError("the two algebras must share the period")
        self.periodic = periodic
        self.extended = extended
        self.m = periodic.m  # PeriodicAlgebra already rejects even m
        self.rep = periodic.rep
        self.field = periodic.field
        self._phi_cache: dict = {}  # module tuple -> PhiImage

    # -- the map -----------------------------------------------------------

    def phi_basis(self, b: PeriodicObject) -> PhiImage:
        image = self._phi_cache.get(b.classes)
        if image is None:
            image = self._phi_cache[b.classes] = self._phi_basis(b)
        return image

    def _phi_basis(self, b: PeriodicObject) -> PhiImage:
        m = self.m
        dims = [cls.dims for cls in b.classes]
        scalar = self.field.v_power(phi_exponent_t_units(dims, m, self.rep.euler))
        alphas = [
            tuple(-t for t in alternating_sum(dims, i + 1, range(m)))
            for i in range(m)
        ]
        return PhiImage(scalar, self.extended.basis(b.classes, alphas))

    def phi(self, element: Element) -> Element:
        terms: dict = {}
        for basis, s in element.terms.items():
            image = self.phi_basis(basis)
            add_term(terms, image.basis, s * image.scalar)
        return self.extended.element(terms)

    # -- verification -------------------------------------------------------

    def verify_homomorphism(self, a: PeriodicObject, b: PeriodicObject) -> dict:
        lhs = self.phi(self.periodic.multiply(self.periodic.monomial(a), self.periodic.monomial(b)))
        image_a = self.phi_basis(a)
        image_b = self.phi_basis(b)
        rhs = self.extended.multiply(
            self.extended.monomial(image_a.basis),
            self.extended.monomial(image_b.basis),
        )
        rhs = (image_a.scalar * image_b.scalar) * rhs
        equal = lhs == rhs
        report = {
            "pair": [str(a), str(b)],
            "equal": equal,
            "lhs_terms": len(lhs.terms),
            "rhs_terms": len(rhs.terms),
        }
        if not equal:
            report["first_diff"] = self._first_diff(lhs, rhs)
        return report

    @staticmethod
    def _first_diff(lhs: Element, rhs: Element) -> dict:
        keys = sorted(
            set(lhs.terms) | set(rhs.terms), key=ExtendedBasisElement.sort_key
        )
        zero = lhs.algebra.field.zero
        for basis in keys:
            left = lhs.terms.get(basis, zero)
            right = rhs.terms.get(basis, zero)
            if left != right:
                return {
                    "basis": str(basis),
                    "lhs": left.to_strings(),
                    "rhs": right.to_strings(),
                }
        return {}


def check_identity_3_2(i_dims, index: int) -> bool:
    """Both telescoping identities for alternating sums of K-classes.

    i_dims: m integer vectors (m odd); index: the anchor position i.
    """
    m = len(i_dims)
    if m % 2 == 0:
        raise UsageError("the telescoping identities need odd m")
    vecs = [np.asarray(d, dtype=np.int64) for d in i_dims]
    i = index % m
    full = sum(
        (-1) ** k * (vecs[(i + k) % m] + vecs[(i + k - 1) % m]) for k in range(m)
    )
    if not np.array_equal(full, 2 * vecs[(i - 1) % m]):
        return False
    tail = sum(
        ((-1) ** k * (vecs[(i + k) % m] + vecs[(i + k - 1) % m]) for k in range(1, m)),
        np.zeros_like(vecs[0]),
    )
    return bool(np.array_equal(tail, vecs[(i - 1) % m] - vecs[i]))
