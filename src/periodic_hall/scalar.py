"""Exact arithmetic in the coefficient field Q[t]/(t^8 - q).

All twists in the Hall algebras are powers of v = sqrt(q), with exponents
in (1/4)Z.  Working with t = q^(1/8) makes every such power an honest
monomial: v^(n/4) = t^n.  Since q is prime, t^8 - q is irreducible over Q
(Eisenstein) and the quotient is a field.

Scalars are immutable.  Coefficients are stored sparsely as a map
{degree: Fraction} with degrees in 0..7 and no zero values; products of
basis elements only ever produce rational multiples of a single t-power,
so the sparse form keeps the hot arithmetic path cheap.  Every builder of
such a multiple (`from_rational`, `v_power`, `q_power`) goes through
`ScalarField.term`, which builds c * t^n in one step.  `Scalar.times_t(n)`
multiplies any scalar by t^n without a generic product: each coefficient
moves n degrees up, and both fold t^8 = q through one helper.

The field is a tower of three quadratic (Kummer) steps,
Q(t) > Q(t^2) > Q(t^4) > Q, and `Scalar.inverse` walks down it in closed
form: three products with a conjugate reach a rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvariantError, UsageError
from .literal import parse_scalar  # noqa: F401 (public name of this module too)

_DEG = 8  # t^8 = q


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _rational(c) -> Fraction:
    """c as a Fraction; as in `Scalar._check`, no float (it is inexact)."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise UsageError(f"expected an int or a Fraction, got {type(c).__name__} {c!r}")


class ScalarField:
    """Shared context fixing the prime q; builds and names scalars."""

    def __init__(self, q: int):
        if not is_prime(q):
            raise UsageError(f"q must be prime, got {q}")
        self.q = q
        self._zero = Scalar(self, {})
        self._one = Scalar(self, {0: Fraction(1)})

    def __repr__(self):
        return f"ScalarField(q={self.q})"

    def __eq__(self, other):
        return isinstance(other, ScalarField) and other.q == self.q

    def __hash__(self):
        return hash(("ScalarField", self.q))

    @property
    def zero(self) -> "Scalar":
        return self._zero

    @property
    def one(self) -> "Scalar":
        return self._one

    def from_rational(self, value) -> "Scalar":
        return self.term(value, 0)

    def v_power(self, n: int) -> "Scalar":
        """t^n, i.e. v^(n/4)."""
        return self.term(1, n)

    def term(self, c, n: int) -> "Scalar":
        """c * t^n for a rational c in one step: t^n = q^k t^r with n = 8k + r."""
        if not isinstance(c, Fraction):
            c = _rational(c)
        if not c:
            return self._zero
        r, c = self._fold(c, n)
        return Scalar(self, {r: c})

    def _fold(self, c: Fraction, n: int) -> tuple:
        """(r, c * q^k) for c * t^n with n = 8k + r and 0 <= r < 8, since t^8 = q."""
        k, r = divmod(n, _DEG)
        if k > 0:
            c *= self.q**k
        elif k < 0:
            c /= self.q**-k
        return r, c

    def q_power(self, n: int) -> "Scalar":
        return self.term(1, _DEG * n)

    def scalar(self, coeffs) -> "Scalar":
        """Build from a dense 8-sequence or a {degree: rational} map."""
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        data = {}
        for j, c in items:
            c = _rational(c)
            if c:
                if not 0 <= j < _DEG:
                    raise UsageError(f"coefficient degree {j} out of range")
                data[j] = c
        return Scalar(self, data)


class Scalar:
    """Element of Q[t]/(t^8 - q).  Immutable; equality is exact."""

    __slots__ = ("field", "_c")

    def __init__(self, field: ScalarField, coeffs: dict):
        self.field = field
        self._c = coeffs  # {deg: Fraction}, canonical: no zeros, 0 <= deg < 8

    # -- ring structure -------------------------------------------------

    def _check(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return None
            other = self.field.from_rational(other)
        if other.field.q != self.field.q:
            raise UsageError("scalars from different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        data = dict(self._c)
        for j, c in other._c.items():
            s = data.get(j, 0) + c
            if s:
                data[j] = s
            else:
                data.pop(j, None)
        return Scalar(self.field, data)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, {j: -c for j, c in self._c.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if len(self._c) == 1 and len(other._c) == 1:
            # monomial fast path: (a t^i)(b t^j) = a b q^k t^r, k in {0, 1}
            ((i, a),) = self._c.items()
            ((j, b),) = other._c.items()
            k, r = divmod(i + j, _DEG)
            return Scalar(self.field, {r: a * b * self.field.q if k else a * b})
        q = Fraction(self.field.q)
        data = {}
        for i, a in self._c.items():
            for j, b in other._c.items():
                k, r = divmod(i + j, _DEG)
                c = a * b * q**k
                s = data.get(r, 0) + c
                if s:
                    data[r] = s
                else:
                    data.pop(r, None)
        return Scalar(self.field, data)

    __rmul__ = __mul__

    def times_t(self, n: int) -> "Scalar":
        """self * t^n, exactly: the coefficient at degree j moves to j + n.

        Distinct degrees stay distinct mod 8, so no two coefficients meet;
        each one only folds t^8 = q as `ScalarField.term` does.
        """
        field = self.field
        if len(self._c) == 1:
            # monomial fast path: the shape of every basis-product coefficient
            ((j, c),) = self._c.items()
            r, c = field._fold(c, j + n)
            return Scalar(field, {r: c})
        fold = field._fold
        return Scalar(field, dict(fold(c, j + n) for j, c in self._c.items()))

    def inverse(self) -> "Scalar":
        """Field inverse down the Kummer tower Q(t) > Q(t^2) > Q(t^4) > Q.

        At step s in (1, 2, 4), t^s -> -t^s is an automorphism of the step
        fixing the field below, so x * conj(x) lies one step down; after
        three steps it is a rational r, and x^-1 = (product of conjugates) / r.
        """
        if not self._c:
            raise ZeroDivisionError("cannot invert the zero scalar")
        x, cofactor = self, self.field.one
        for s in (1, 2, 4):
            conj = Scalar(
                self.field, {j: -c if j // s % 2 else c for j, c in x._c.items()}
            )
            x, cofactor = x * conj, cofactor * conj
        r = x._c[0]
        return Scalar(self.field, {j: c / r for j, c in cofactor._c.items()})

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return False
            other = self.field.from_rational(other)
        return other.field.q == self.field.q and other._c == self._c

    def __hash__(self):
        # equal to a rational exactly when only degree 0 is stored: hash as it
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash((self.field.q, tuple(sorted(self._c.items()))))

    def __bool__(self):
        return bool(self._c)

    def is_zero(self) -> bool:
        return not self._c

    # -- views -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Dense tuple (c0, ..., c7) of Fractions."""
        return tuple(self._c.get(j, Fraction(0)) for j in range(_DEG))

    def to_strings(self) -> list:
        """8 exact 'num/den' strings, lowest terms, positive denominators."""
        out = []
        for c in self.coeffs:
            out.append(str(c.numerator) if c.denominator == 1 else str(c))
        return out

    def as_monomial(self):
        """(rational, t_exponent) with the rational prime to q, or None.

        Folds q-powers into the exponent so e.g. (1/q) * t^4 prints as v^-1.
        """
        if len(self._c) != 1:
            return None
        ((j, c),) = self._c.items()
        q = self.field.q
        num, den = c.numerator, c.denominator
        if not num:
            raise InvariantError(f"zero coefficient stored at degree {j}")
        e = j
        while num % q == 0:
            num //= q
            e += _DEG
        while den % q == 0:
            den //= q
            e -= _DEG
        g = gcd(abs(num), den)
        return Fraction(num // g, den // g), e

    def __str__(self):
        if not self._c:
            return "0"
        mono = self.as_monomial()
        if mono is not None:
            return _format_monomial(*mono)
        chunks = [_format_monomial(self._c[j], j) for j in sorted(self._c)]
        return "(" + join_signed(chunks) + ")"

    __repr__ = __str__


def join_signed(chunks: list) -> str:
    """Join printed terms as 'a + b - c': a leading '-' becomes the operator."""
    out = chunks[0]
    for chunk in chunks[1:]:
        out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
    return out


def _format_monomial(c: Fraction, e: int) -> str:
    if e == 0:
        base = ""
    elif e % 4 == 0:
        k = e // 4
        base = "v" if k == 1 else f"v^{k}"
    else:
        base = "t" if e == 1 else f"t^{e}"
    if not base:
        return str(c)
    if c == 1:
        return base
    if c == -1:
        return "-" + base
    return f"{c}*{base}"
