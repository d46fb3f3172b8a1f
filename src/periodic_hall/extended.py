"""The m-periodic extended derived Hall algebra DH^e_m (any period m >= 1).

Basis elements pair an m-tuple of module classes with an m-tuple of
half-lattice classes (the K-element indices), stored as doubled integer
vectors so that every exponent of v is an exact integer number of quarter
units, i.e. an integer power of t.

The product carries the full twist

    v^{a0} * v^{inner(I, M)} * prod_i H(...)/|Aut(I_i)| * u_M * K(I + alpha + beta)

with a0 and the inner exponent spelled out in `_operand_data` and
`_tuple_data`.  The Hall sum arrives from `DerivedContext.connecting_terms`
as integers num over q^e * den, grouped by the dims of the connecting
tuple I, all the twist reads of I; q^-e = t^(-8e) joins the t-exponent.
A basis product is a dict of integer records {basis: (num, den, n)}, each
standing for num/den * t^n with the unreduced exponent n = a0 + inner - 8e
of its group; it builds no rational and no scalar, and its keys come from
the algebra's registry (`combo`), keyed by (classes, alphas), where phi
interns its images too.

a0 is bilinear in the two operands.  With l = `Quiver.euler_left`, r =
`euler_right` and S(k) = l(k) + r(k), so that the symmetric pairing
(k, d) is S(k) . d,

    a0 = sum_j [4 l(A_j) + 2 S(alpha_j) - 2 S(alpha_{j-1})] . B_j
         + sum_j c_j(alpha) . beta_j,
    c_j(alpha) = sum_{i = 1..m-1, i - 1 = j mod m} S(alpha_i)
                 - [j = 0] S(alpha_{m-1}),

which is left(x) . right(y), with right(y) the flat dims and K-indices of
y.  What depends on the dims of I alone (its doubled dimension vectors and
the I-I part of the exponent) is tabulated once per algebra.  The rest of
the inner exponent is linear in I: its pairings with alpha + beta, and,
since every output class has dim M_i = dim A_i + dim B_i - dim I_i -
dim I_{i-1} (`DerivedContext` checks this at each Hall-table fill), the
part of the output pairing sum_i <M_i, I_i - I_{i-1}> that is not I-I.
That part is (dbl I) . (couple(x) + couple(y)), with couple linear in one
operand.  So each algebra keeps one table keyed by the operand, holding
its left, right and couple functionals; a pair costs two dot products and
each group of the Hall sum one more, and a term costs one record.

Sums of the shape "i = 1..m-1 over pairings" follow the single-term
convention at m = 1 (the i = 1 term, indices mod m), which makes them
cancel against their explicit boundary partners; alternating class sums
over k = 1..m-1 are genuinely empty at m = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

from . import combo, literal
from .errors import ParseError, UsageError


def convention_range(m: int):
    """Indices of 'sum_{i=1}^{m-1}' pairing sums: the single i=1 term at m=1."""
    return (1,) if m == 1 else tuple(range(1, m))


@dataclass(frozen=True, eq=False)
class ExtendedBasisElement:
    """u-part (module classes) and K-part (doubled half-lattice vectors).
    Its algebra interns one per key, so basis elements compare by identity."""

    classes: tuple
    alphas: tuple  # per degree, tuple of doubled integers

    @property
    def key(self) -> tuple:
        return self.classes, self.alphas

    @property
    def m(self) -> int:
        return len(self.classes)

    def sort_key(self):
        return (tuple(c.sort_key() for c in self.classes), self.alphas)

    def __str__(self):
        return literal.basis_text(self.classes, self.alphas)

    __repr__ = __str__


class ExtendedAlgebra(combo.Algebra):
    """DH^e_m over a fixed quiver and prime; accepts every period m >= 1."""

    _basis_type = ExtendedBasisElement

    def __init__(self, derived, m: int):
        super().__init__(derived, m)
        self._tuple_table: dict = {}  # dims of a connecting tuple -> _tuple_data

    # -- builders ---------------------------------------------------------

    def _zero_alpha(self) -> tuple:
        return (0,) * self.rep.quiver.n

    def basis(self, classes, alphas=None) -> ExtendedBasisElement:
        classes = self._check_classes(classes)
        if alphas is None:
            alphas = tuple(self._zero_alpha() for _ in range(self.m))
        else:
            alphas = tuple(tuple(int(x) for x in a) for a in alphas)
            if len(alphas) != self.m or any(
                len(a) != self.rep.quiver.n for a in alphas
            ):
                raise UsageError("alphas must be m doubled vectors of vertex length")
        return self._intern(classes, alphas)

    def _intern(self, classes: tuple, alphas: tuple) -> ExtendedBasisElement:
        """The algebra's one basis element for checked classes and K-indices."""
        key = (classes, alphas)
        basis = self._registry.get(key)
        if basis is None:
            basis = self._registry[key] = ExtendedBasisElement(classes, alphas)
        return basis

    def k_monomial(self, alphas) -> ExtendedBasisElement:
        return self.basis([self.rep.zero_class] * self.m, alphas)

    # -- K-monomial product (closed form) -------------------------------------

    def k_monomial_product(self, alphas, betas):
        """Exponent (in quarter units of v) and indices of K(a) * K(b)."""
        alphas = tuple(tuple(int(x) for x in a) for a in alphas)
        betas = tuple(tuple(int(x) for x in b) for b in betas)
        m = self.m
        t_units = -self.rep.sym_t_units(alphas[m - 1], betas[0])
        for i in convention_range(m):
            t_units += self.rep.sym_t_units(alphas[i % m], betas[(i - 1) % m])
        gammas = tuple(
            tuple(x + y for x, y in zip(alphas[i], betas[i])) for i in range(m)
        )
        return t_units, gammas

    # -- multiplication ----------------------------------------------------------

    def basis_product(self, a: ExtendedBasisElement, b: ExtendedBasisElement) -> dict:
        key = (a, b)
        cached = self._product_cache.get(key)
        if cached is None:
            cached = self._remember_product(key, self._basis_product(a, b))
        return cached

    def _tuple_data(self, dims) -> tuple:
        """(doubled dims, flat over positions, and the I-I part of the
        exponent) of a connecting tuple I with dimension vectors dims, all
        this twist reads of I.  The I-I part of 4 sum_i <M_i, I_i - I_{i-1}>
        is -4 sum_i <I_i + I_{i-1}, I_i - I_{i-1}> = 4 sum_i (<I_i, I_{i-1}>
        - <I_{i-1}, I_i>)."""
        m = self.m
        quiver = self.rep.quiver
        inner = 0
        for i in convention_range(m):
            inner += 4 * quiver.euler(dims[(i - 1) % m], dims[i % m])
        inner -= 4 * quiver.euler(dims[0], dims[m - 1])
        for now, before in zip(dims, dims[-1:] + dims[:-1]):
            inner += 4 * (quiver.euler(now, before) - quiver.euler(before, now))
        return [2 * t for v in dims for t in v], inner

    def _operand_data(self, x: ExtendedBasisElement) -> tuple:
        """(left, right, couple) of x = (A, alpha), flat over positions: a0 of
        a pair is left(x) . right(y), and its part linear in a connecting
        tuple I is (dbl I) . (couple(x) + couple(y))."""
        m = self.m
        quiver = self.rep.quiver
        dims = [cls.dims for cls in x.classes]
        alphas = x.alphas
        l_dims = [quiver.euler_left(v) for v in dims]
        sym = [list(map(add, quiver.euler_left(a), quiver.euler_right(a))) for a in alphas]

        # 4 <A_j, B_j> + (alpha_j, 2 B_j) - (alpha_{j-1}, 2 B_j), and the
        # K-K pairings sum_{i=1..m-1} (alpha_i, beta_{i-1}) - (alpha_{m-1}, beta_0)
        left = []
        for j in range(m):
            left += [4 * u + 2 * (s - p) for u, s, p in zip(l_dims[j], sym[j], sym[j - 1])]
        pairing = [[0] * quiver.n for _ in range(m)]
        for i in convention_range(m):
            j = (i - 1) % m
            pairing[j] = list(map(add, pairing[j], sym[i % m]))
        pairing[0] = list(map(sub, pairing[0], sym[m - 1]))
        for c in pairing:
            left += c
        right = [t for v in dims for t in v] + [t for v in alphas for t in v]

        # the I-to-K coupling must use the symmetric form: with the plain
        # Euler pairing the algebra fails associativity.  Its share from x is
        # sum_{i=1..m-1} (dbl I_i, alpha_{i-1}) - (dbl I_{m-1}, alpha_0); the
        # part of 4 sum_i <M_i, I_i - I_{i-1}> linear in I adds
        # 2 (l(A_i) - l(A_{i+1})) . (dbl I_i)
        couple = [[0] * quiver.n for _ in range(m)]
        couple[m - 1] = [-s for s in sym[0]]
        for i in convention_range(m):
            couple[i % m] = list(map(add, couple[i % m], sym[(i - 1) % m]))
        flat = []
        for i in range(m):
            step = zip(couple[i], l_dims[i], l_dims[(i + 1) % m])
            flat += [c + 2 * (s - t) for c, s, t in step]
        return left, right, flat

    def _basis_product(self, x: ExtendedBasisElement, y: ExtendedBasisElement) -> dict:
        left, _, couple_x = self._operand(x)
        _, right, couple_y = self._operand(y)
        # prefactor exponent a0, in quarter units of v
        a0 = sum(map(mul, left, right))
        couple = list(map(add, couple_x, couple_y))
        ab = [s + t for alpha, beta in zip(x.alphas, y.alphas) for s, t in zip(alpha, beta)]
        width = self.rep.quiver.n

        table, intern = self._tuple_table, self._intern
        e, den, groups = self.derived.connecting_terms(x.classes, y.classes)
        out: dict = {}
        # distinct groups have distinct K-indices 2 dim I + alpha + beta, so
        # no output basis element repeats and each gets one record
        for dims, terms in groups.items():
            data = table.get(dims)
            if data is None:
                data = table[dims] = self._tuple_data(dims)
            dbl, inner = data
            # q^-e = t^(-8e) joins the t-exponent
            n = a0 + inner + sum(map(mul, dbl, couple)) - 8 * e
            flat = list(map(add, dbl, ab))
            gammas = tuple(tuple(flat[k : k + width]) for k in range(0, len(flat), width))
            for modules, num in terms.items():
                out[intern(modules, gammas)] = (num, den, n)
        return out

    # -- parsing ------------------------------------------------------------------

    def _literal_basis(self, graded, k_entries) -> ExtendedBasisElement:
        n = self.rep.quiver.n
        alphas = [self._zero_alpha() for _ in range(self.m)]
        for degree, doubled in k_entries or ():
            if len(doubled) != n:
                raise ParseError(f"K vector length {len(doubled)} != {n}")
            i = degree % self.m
            alphas[i] = tuple(p + q for p, q in zip(alphas[i], doubled))
        return self.basis(self._module_classes(graded), alphas)
