"""The m-periodic derived Hall algebra DH_m for odd m.

Basis elements are m-tuples of module classes (index arithmetic mod m),
standing for the sum of shifted stalks in the m-periodic derived category.
The product of two basis elements is a twisted sum over tuples (I_i) of
"connecting" module classes, with one brute-force derived Hall number per
position:

    u_A u_B = v^twist * sum_{I, M} prod_i H(M_i; I_i[1] + A_i, B_i + I_{i-1}[-1])
                                        / |Aut(I_i)| * u_M

where twist = sum_i < sum_k (-1)^k [A_{i+k}], [B_i] >.  The twist is
bilinear in the two operands: with l = `Quiver.euler_left` it is
sum_i l(alt_i(A)) . dims B_i.  Each operand's functionals (the flat vector
of the l(alt_i(A)) and its flat dims) are computed once per operand, so a
pair's twist costs one dot product.  The Hall sum arrives from
`DerivedContext.connecting_terms` as one integer num per output tuple M
over one denominator q^e * den for the pair; only the twist is computed
here.  A basis product is a dict of integer records
{u_M: (num, den, n)}, each standing for num/den * t^n with the unreduced
exponent n = 4 twist - 8e; it builds no rational and no scalar.  Its
keys come from the algebra's registry (`combo`), and it is cached under
the operand pair (a, b), as in DH^e_m.  Scalars are built only by
`Algebra.multiply`, by `Embedding.phi` and by the failure report of the
embedding check.

Only odd m is accepted: without the extension by K-elements the even
periodic multiplication is not defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import combo, literal
from .derived import DerivedContext
from .errors import EvenPeriodError, ParseError


@dataclass(frozen=True, eq=False)
class PeriodicObject:
    """Basis element: one module class per degree in Z_m.  Its algebra
    interns one per key, so basis elements compare by identity."""

    classes: tuple

    @property
    def key(self) -> tuple:
        return self.classes

    def sort_key(self):
        return tuple(c.sort_key() for c in self.classes)

    @cached_property
    def _text(self) -> str:
        # built once: sweep reports print every operand pair
        return literal.basis_text(self.classes)

    def __str__(self):
        return self._text

    __repr__ = __str__


class PeriodicAlgebra(combo.Algebra):
    """DH_m over a fixed quiver, prime and odd period."""

    _basis_type = PeriodicObject

    def __init__(self, derived: DerivedContext, m: int):
        super().__init__(derived, m)
        if m % 2 == 0:
            raise EvenPeriodError(
                f"the m-periodic derived Hall algebra needs odd m, got {m}"
            )

    # -- element builders -----------------------------------------------------

    def basis(self, classes) -> PeriodicObject:
        return self._intern(self._check_classes(classes))

    def _intern(self, classes: tuple) -> PeriodicObject:
        """The algebra's one basis element for a checked tuple of classes."""
        basis = self._registry.get(classes)
        if basis is None:
            basis = self._registry[classes] = PeriodicObject(classes)
        return basis

    # -- multiplication ---------------------------------------------------------

    def basis_product(self, a: PeriodicObject, b: PeriodicObject) -> dict:
        key = (a, b)
        cached = self._product_cache.get(key)
        if cached is None:
            cached = self._remember_product(key, self._compute_basis_product(a, b))
        return cached

    def _operand_data(self, x: PeriodicObject) -> tuple:
        """(left, dims) of x, flat over positions: left holds the functionals
        l(alt_i(X)) of <alt_i(X), ->, so twist(a, b) = left(a) . dims(b)."""
        m = self.m
        quiver = self.rep.quiver
        dims = [cls.dims for cls in x.classes]
        left = []
        for i in range(m):
            left += quiver.euler_left(combo.alternating_sum(dims, i, range(m)))
        return left, [t for v in dims for t in v]

    def _compute_basis_product(self, a: PeriodicObject, b: PeriodicObject) -> dict:
        twist = sum(map(mul, self._operand(a)[0], self._operand(b)[1]))

        # the Hall sum as integer numerators over q^e * den.  No M is in two
        # groups: dim M_i = dim A_i + dim B_i - dim I_i - dim I_{i-1}, and for
        # odd m the map I -> (I_i + I_{i-1})_i is invertible, so M fixes dim I
        e, den, groups = self.derived.connecting_terms(a.classes, b.classes)
        # v^twist * q^-e = t^(4 twist - 8 e): one record per output tuple
        n = 4 * twist - 8 * e
        intern = self._intern
        return {
            intern(modules): (num, den, n)
            for terms in groups.values()
            for modules, num in terms.items()
        }

    # -- parsing ------------------------------------------------------------------

    def _literal_basis(self, graded, k_entries) -> PeriodicObject:
        if k_entries is not None:
            raise ParseError("a periodic basis element has no K part")
        return self.basis(self._module_classes(graded))
