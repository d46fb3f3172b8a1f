"""Element arithmetic shared by the two algebras.

`Element` is a finite scalar combination of basis elements of one
algebra.  `Algebra` holds everything DH_m and DH^e_m do alike: the period
check, element builders, the bilinear extension of the basis product and
the reading of element and basis literals through `literal`.  Each
subclass supplies `_basis_type`, `basis`, `basis_product` (its own product
twist), `_operand_data` (the functionals of one operand that its twist
reads, which `_operand` keeps per operand) and `_literal_basis`, which
turns the parsed pieces of a basis literal into its basis element.  Every
class in a basis element must be one that the algebra's own `RepContext`
interned.

Each algebra keeps one object per basis element in `_registry`, which its
`_intern` fills, keyed by the element's `key`: its classes in DH_m, its
(classes, alphas) in DH^e_m.  `basis` after its checks, every output of a
basis product and every image of phi come from it.  Basis elements compare
by identity, as classes do, so the product cache, the operand table and
phi's cache key on the interned object itself, and an output that repeats
is not built again.  `_check_basis` refuses a basis element that the
registry does not hold, whether built by hand or by another algebra, at
`element`, `monomial`, phi and the first product of each operand, so
also in a hand-built `Element` that reaches `multiply`.  Only classes of
the algebra's own context enter a registry.  Unlike the product cache it
is not capped: it holds the basis elements a run has met, one small
record each.

A basis product is a dict of integer records {basis: (num, den, n)}, each
standing for num/den * t^n with an unreduced t-exponent n.  `multiply`
turns each record into the scalar `field.term(Fraction(num, den), n)`; the
only other code that builds scalars from records is the failure report of
the embedding check.

Each algebra caches its basis products.  The cache holds at most
`PRODUCT_CACHE_SIZE` entries and evicts the oldest first, in constant time
per insert, so a long verification sweep, which visits each pair once,
keeps its memory bounded.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction

from . import literal
from .errors import UsageError
from .scalar import Scalar, join_signed

# Basis products an algebra keeps; more than twice the pairs of the
# largest benchmark sub-sweep, so a warm pass never evicts.
PRODUCT_CACHE_SIZE = 8192


def add_term(acc: dict, basis, scalar) -> None:
    """acc[basis] += scalar, dropping exact zeros."""
    if basis in acc:
        s = acc[basis] + scalar
        if s.is_zero():
            del acc[basis]
        else:
            acc[basis] = s
    elif not scalar.is_zero():
        acc[basis] = scalar


def alternating_sum(dims, i: int, ks) -> list:
    """sum_{k in ks} (-1)^k dims[(i + k) mod m] for m integer vectors dims."""
    m = len(dims)
    out = [0] * len(dims[0])
    for k in ks:
        sign = -1 if k % 2 else 1
        for v, x in enumerate(dims[(i + k) % m]):
            out[v] += sign * x
    return out


def format_terms(pairs) -> str:
    """pairs: [(basis_string, Scalar)]; renders 'c*[..] + c*[..]'."""
    if not pairs:
        return "0"
    chunks = []
    for basis, s in pairs:
        text = str(s)
        if text == "1":
            chunk = basis
        elif text == "-1":
            chunk = "-" + basis
        else:
            chunk = f"{text}*{basis}"
        chunks.append(chunk)
    return join_signed(chunks)


class Element:
    """Finite scalar combination of basis elements of one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "Algebra", terms: dict):
        self.algebra = algebra
        self.terms = {b: s for b, s in terms.items() if not s.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def _plus(self, other, negate: bool) -> "Element":
        self.algebra._check_element(other)
        out = dict(self.terms)
        for basis, s in other.terms.items():
            add_term(out, basis, -s if negate else s)
        return Element(self.algebra, out)

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def __neg__(self):
        return Element(self.algebra, {b: -s for b, s in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        return self.__rmul__(other)

    def __rmul__(self, scalar):
        # scalar * element (elements multiply via __mul__); a rational lifts
        # into the field as in `Scalar._check`
        if isinstance(scalar, (int, Fraction)):
            scalar = self.algebra.field.from_rational(scalar)
        elif not isinstance(scalar, Scalar):
            return NotImplemented
        if scalar.is_zero():
            return Element(self.algebra, {})
        return Element(self.algebra, {b: scalar * s for b, s in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.terms == self.terms
        )

    def __str__(self):
        return format_terms([(str(b), s) for b, s in self.sorted_terms()])

    __repr__ = __str__

    def to_json(self):
        return [
            {"basis": str(b), "scalar": s.to_strings(), "scalar_text": str(s)}
            for b, s in self.sorted_terms()
        ]


class Algebra:
    """Plumbing shared by DH_m and DH^e_m over one derived context."""

    def __init__(self, derived, m: int):
        if m < 1:
            raise UsageError(f"period must be positive, got {m}")
        self.derived = derived
        self.rep = derived.rep
        self.field = derived.field
        self.m = m
        self._product_cache: OrderedDict = OrderedDict()  # (a, b) -> basis product
        self._operands: dict = {}  # basis element -> _operand_data
        self._registry: dict = {}  # key -> the one basis element (`_intern`)

    # -- element builders -----------------------------------------------------

    @property
    def unit_basis(self):
        return self.basis([self.rep.zero_class] * self.m)

    def unit(self) -> Element:
        return self.element({self.unit_basis: self.field.one})

    def element(self, terms: dict) -> Element:
        for b in terms:
            self._check_basis(b)
        return Element(self, terms)

    def monomial(self, basis) -> Element:
        return self.element({basis: self.field.one})

    def _check_element(self, other):
        if not isinstance(other, Element) or other.algebra is not self:
            raise UsageError("operands belong to different algebras")

    def _check_basis(self, b) -> None:
        """UsageError unless b is a basis element this algebra interned."""
        if not isinstance(b, self._basis_type) or self._registry.get(b.key) is not b:
            raise UsageError(f"{b} is not a basis element of this algebra")

    def _check_classes(self, classes) -> tuple:
        classes = tuple(classes)
        if len(classes) != self.m:
            raise UsageError(f"expected {self.m} classes, got {len(classes)}")
        for i, cls in enumerate(classes):
            self.rep._check_class(cls, f"at position {i}")
        return classes

    def _module_classes(self, entries) -> list:
        """Classes per degree from (degree, class) pairs; degrees reduce mod m
        and collisions direct-sum."""
        classes = [self.rep.zero_class] * self.m
        for deg, cls in entries:
            i = deg % self.m
            classes[i] = self.rep.direct_sum_class(classes[i], cls)
        return classes

    # -- multiplication ---------------------------------------------------------

    def _remember_product(self, key, product: dict) -> dict:
        """Store a basis product, first evicting the oldest if the cache is full."""
        cache = self._product_cache
        if len(cache) >= PRODUCT_CACHE_SIZE:
            cache.popitem(last=False)
        cache[key] = product
        return product

    def _operand(self, x) -> tuple:
        """The twist functionals of basis element x (`_operand_data`), computed
        once per operand: a twist is bilinear, so a pair costs dot products.
        A miss checks x (`_check_basis`), and every product miss passes here
        for both operands."""
        data = self._operands.get(x)
        if data is None:
            self._check_basis(x)
            data = self._operands[x] = self._operand_data(x)
        return data

    def multiply(self, x: Element, y: Element) -> Element:
        self._check_element(x)
        self._check_element(y)
        term = self.field.term
        acc: dict = {}
        for a, sa in x.terms.items():
            for b, sb in y.terms.items():
                coeff = sa * sb
                for basis, (num, den, n) in self.basis_product(a, b).items():
                    add_term(acc, basis, coeff * term(Fraction(num, den), n))
        return Element(self, acc)

    # -- parsing ------------------------------------------------------------------

    def parse_basis(self, text: str):
        """A basis literal in the grammar of `literal`, e.g. '[S1@0 + P1@2]'."""
        pieces = literal.parse(text, "basis", self.rep.class_by_name)
        return self._literal_basis(*pieces)

    def parse_element(self, text: str) -> Element:
        """Sums 'coef*[basis] + ...' in the grammar of `literal`; '0' is zero."""
        terms: dict = {}
        resolve = self.rep.class_by_name
        for scalar, pieces in literal.parse(text, "element", self.field, resolve):
            add_term(terms, self._literal_basis(*pieces), scalar)
        return Element(self, terms)
