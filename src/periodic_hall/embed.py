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

Each image is a `PhiImage` (units, basis): the exponent as an integer and
the extended basis element.  phi scales by t^units through
`Scalar.times_t` and never through a generic product.  The image keeps
the module tuple, so phi is injective on basis elements by construction.
The exponent and the K-indices depend on the dimension vectors of the
module tuple alone, so they are tabulated by those dims.  The image's
basis element is interned in the extended algebra's registry, which keys
its basis products' terms, without the checks of `basis`.  `phi_basis`
caches each image under the periodic basis element, checking on a miss
that the periodic algebra interned it (`combo`): a hand-built or foreign
basis element is refused there, so by `phi` and the check too.

`verify_homomorphism` checks phi(u_a u_b) = phi(u_a) phi(u_b) on basis
elements, in integers.  Both basis products are dicts of integer records
(num, den, n) for num/den * t^n.  A term of the periodic product u_a u_b
maps to its record times t^units(M) on phi(u_M); the extended basis
product of the two images carries t^(units(a) + units(b)).  Since t is
invertible, the two sides agree on a basis element exactly when the record
(num, den, n + units(M) - units(a) - units(b)) names the same scalar as the
extended record there (`_same_value`).  The lookup meets the extended key
by identity, as both come from one registry.  Equal tuples match at once;
otherwise the exponents must agree mod 8 and the rationals, with the
q-power of the exponent difference moved to one side, must agree by cross
multiplication.  The check builds no rational and no scalar unless it
fails, when `_first_diff` reports the first difference as scalars.  The
two products come from the two independent multiplication pipelines; no
element-level multiplication is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combo import Element, add_term, alternating_sum
from .errors import UsageError
from .extended import ExtendedAlgebra, ExtendedBasisElement, convention_range
from .periodic import PeriodicAlgebra, PeriodicObject


@dataclass(frozen=True)
class PhiImage:
    """phi(basis) = t^units * basis."""

    units: int
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


def _same_value(record: tuple, other, q: int) -> bool:
    """Whether two records (num, den, n), each num/den * t^n in Q[t]/(t^8 -
    q), name the same scalar; other may be None, a missing term, which no
    record equals (as no scalar equals None).

    t^n = q^k t^r with n = 8k + r, 0 <= r < 8, and the t^r are a basis over
    Q, so nonzero values agree exactly when their exponents agree mod 8 and
    num/den * q^j == num'/den' with n - n' = 8j.
    """
    if record == other:
        return True
    if other is None:
        return False
    num, den, n = record
    num2, den2, n2 = other
    if not num or not num2:
        return not num and not num2
    j, r = divmod(n - n2, 8)
    if r:
        return False
    if j >= 0:
        return num * den2 * q**j == num2 * den
    return num * den2 == num2 * den * q**-j


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
        self._phi_cache: dict = {}  # periodic basis element -> PhiImage
        self._phi_dims: dict = {}  # dims of a module tuple -> (units, alphas)

    # -- the map -----------------------------------------------------------

    def phi_basis(self, b: PeriodicObject) -> PhiImage:
        image = self._phi_cache.get(b)
        if image is None:
            self.periodic._check_basis(b)
            image = self._phi_cache[b] = self._phi_basis(b)
        return image

    def _phi_basis(self, b: PeriodicObject) -> PhiImage:
        dims = tuple(cls.dims for cls in b.classes)
        data = self._phi_dims.get(dims)
        if data is None:
            data = self._phi_dims[dims] = self._phi_data(dims)
        units, alphas = data
        return PhiImage(units, self.extended._intern(b.classes, alphas))

    def _phi_data(self, dims: tuple) -> tuple:
        """(units, alphas) of the images of module tuples with dimension
        vectors dims: phi reads a module tuple through its dims alone."""
        m = self.m
        units = phi_exponent_t_units(dims, m, self.rep.quiver.euler)
        alphas = tuple(
            tuple(-t for t in alternating_sum(dims, i + 1, range(m)))
            for i in range(m)
        )
        return units, alphas

    def phi(self, element: Element) -> Element:
        terms: dict = {}
        for basis, s in element.terms.items():
            image = self.phi_basis(basis)
            add_term(terms, image.basis, s.times_t(image.units))
        return self.extended.element(terms)

    # -- verification -------------------------------------------------------

    def verify_homomorphism(self, a: PeriodicObject, b: PeriodicObject) -> dict:
        """Compare phi(a b) with phi(a) phi(b) on basis products.

        phi sends distinct basis elements to distinct basis elements, and
        every phi scalar is a t-power, so both sides are read off the two
        cached basis products term by term.  The left side keeps each
        periodic record (num, den, n) at the image of its basis element,
        with n shifted by units(M) - units(a) - units(b); it equals the
        extended record there when both name one scalar (`_same_value`).
        With equal term counts, that is equality of the two sides.  Only a
        failing check builds scalars, to report the first difference.
        """
        phi = self.phi_basis
        image_a = phi(a)
        image_b = phi(b)
        shift = image_a.units + image_b.units
        lhs = {}
        for basis, (num, den, n) in self.periodic.basis_product(a, b).items():
            image = phi(basis)
            lhs[image.basis] = (num, den, n + image.units - shift)
        rhs = self.extended.basis_product(image_a.basis, image_b.basis)
        q = self.field.q
        equal = len(lhs) == len(rhs) and all(
            _same_value(record, rhs.get(basis), q) for basis, record in lhs.items()
        )
        report = {
            "pair": [str(a), str(b)],
            "equal": equal,
            "lhs_terms": len(lhs),
            "rhs_terms": len(rhs),
        }
        if not equal:
            # both sides times t^shift: phi(a b) against phi(a) phi(b)
            term = self.field.term

            def scalars(records: dict) -> dict:
                return {
                    basis: term(Fraction(num, den), n + shift)
                    for basis, (num, den, n) in records.items()
                }

            report["first_diff"] = self._first_diff(
                scalars(lhs), scalars(rhs), self.field
            )
        return report

    @staticmethod
    def _first_diff(lhs: dict, rhs: dict, field) -> dict:
        """The first basis, in basis order, where the two term dicts differ."""
        keys = sorted(set(lhs) | set(rhs), key=ExtendedBasisElement.sort_key)
        for basis in keys:
            left = lhs.get(basis, field.zero)
            right = rhs.get(basis, field.zero)
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
    i = index % m

    def alternating(ks) -> list:
        """sum over k in ks of (-1)^k (v_{i+k} + v_{i+k-1}), entry by entry."""
        pairs = [((-1) ** k, i_dims[(i + k) % m], i_dims[(i + k - 1) % m]) for k in ks]
        return [sum(s * (a[j] + b[j]) for s, a, b in pairs) for j in range(len(i_dims[i]))]

    prev = i_dims[(i - 1) % m]
    if alternating(range(m)) != [2 * x for x in prev]:
        return False
    return alternating(range(1, m)) == [x - y for x, y in zip(prev, i_dims[i])]
