"""Field arithmetic in Q[t]/(t^8 - q)."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import periodic_hall
from periodic_hall.errors import ParseError, UsageError
from periodic_hall.scalar import ScalarField, parse_scalar


def eval_real(s):
    """Oracle: the numeric value of s at the positive root t = q^(1/8)."""
    t = s.field.q ** (1.0 / 8)
    return sum(float(c) * t**j for j, c in enumerate(s.coeffs))


def from_strings(field, strings):
    """Oracle: the inverse of Scalar.to_strings, 8 entries 'num/den' or 'num'."""
    if len(strings) != 8:
        raise ParseError(f"expected 8 coefficient strings, got {len(strings)}")
    try:
        return field.scalar([Fraction(s) for s in strings])
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coefficient string: {exc}") from exc


def random_scalar(field, rng, max_terms=4):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randrange(8)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return field.scalar(coeffs)


def test_requires_prime():
    with pytest.raises(UsageError):
        ScalarField(6)
    with pytest.raises(UsageError):
        ScalarField(1)
    ScalarField(13)


def test_v_power_basics():
    f = ScalarField(2)
    assert f.v_power(0) == f.one
    # v^2 = q: v_power takes quarter units, so v = v_power(4)
    assert f.v_power(8) == f.from_rational(2)
    assert f.v_power(-4) * f.v_power(4) == f.one
    assert f.v_power(4) * f.v_power(4) == f.q_power(1)


def test_v_power_additive_on_grid():
    f = ScalarField(3)
    powers = {n: f.v_power(n) for n in range(-128, 129)}
    for a in range(-64, 65):
        for b in range(-64, 65):
            assert powers[a] * powers[b] == powers[a + b]


def test_field_axioms_random():
    f = ScalarField(5)
    rng = random.Random(20240)
    for _ in range(150):
        a = random_scalar(f, rng)
        b = random_scalar(f, rng)
        c = random_scalar(f, rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == f.one


def test_invert_zero_fails():
    f = ScalarField(2)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


def test_invert_t():
    f = ScalarField(7)
    t = f.v_power(1)
    assert t.inverse() * t == f.one
    # t^-1 = t^7 / q
    assert t.inverse() == f.scalar({7: Fraction(1, 7)})


_coeffs = st.dictionaries(
    st.integers(0, 7),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    max_size=8,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from((2, 3, 5, 7, 11)), _coeffs, _coeffs)
def test_inverse_and_division(q, a_coeffs, b_coeffs):
    f = ScalarField(q)
    a, b = f.scalar(a_coeffs), f.scalar(b_coeffs)
    for x in (a, b):
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == f.one
            assert 1 / x == x.inverse()
    if not b.is_zero():
        assert (a / b) * b == a


def test_eval_real():
    f = ScalarField(2)
    assert eval_real(f.one) == 1.0
    assert abs(eval_real(f.v_power(4)) - math.sqrt(2)) < 1e-12
    assert abs(eval_real(f.v_power(1)) - 2 ** 0.125) < 1e-12


def test_eval_real_multiplicative():
    f = ScalarField(3)
    rng = random.Random(7)
    for _ in range(60):
        a = random_scalar(f, rng)
        b = random_scalar(f, rng)
        assert abs(eval_real(a * b) - eval_real(a) * eval_real(b)) < 1e-9 * (
            1 + abs(eval_real(a)) + abs(eval_real(b))
        ) * (1 + abs(eval_real(a) * eval_real(b)))


def test_serialization_roundtrip():
    f = ScalarField(3)
    rng = random.Random(99)
    for _ in range(40):
        a = random_scalar(f, rng)
        assert from_strings(f, a.to_strings()) == a
    assert f.v_power(-4).to_strings() == ["0", "0", "0", "0", "1/3", "0", "0", "0"]
    with pytest.raises(ParseError):
        from_strings(f, ["1"] * 7)


def test_pretty_printing():
    f = ScalarField(2)
    assert str(f.v_power(-4)) == "v^-1"
    assert str(f.v_power(4)) == "v"
    assert str(f.v_power(3)) == "t^3"
    assert str(f.from_rational(Fraction(3, 4) * 4)) == "3"
    assert str(f.zero) == "0"
    # q-powers fold into the t-exponent: (1/2) t^4 is t^-4 = v^-1
    assert str(f.scalar({4: Fraction(1, 2)})) == "v^-1"


def test_zero_coefficient_fails_to_print_without_hanging():
    # builders drop zeros; the raw constructor can still store one
    src = os.path.dirname(os.path.dirname(periodic_hall.__file__))
    code = (
        "from fractions import Fraction\n"
        "from periodic_hall.scalar import Scalar, ScalarField\n"
        "str(Scalar(ScalarField(2), {3: Fraction(0)}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode != 0
    assert "InvariantError: zero coefficient stored at degree 3" in proc.stderr


def test_parse_scalar_roundtrip():
    f = ScalarField(3)
    rng = random.Random(5)
    cases = [f.v_power(k) for k in range(-9, 10)]
    for _ in range(30):
        cases.append(random_scalar(f, rng))
    for a in cases:
        assert parse_scalar(f, str(a)) == a
    assert parse_scalar(f, "2*v^-1") == f.from_rational(2) * f.v_power(-4)
    assert parse_scalar(f, "q^2") == f.from_rational(9)
    with pytest.raises(ParseError):
        parse_scalar(f, "v^")
    with pytest.raises(ParseError):
        parse_scalar(f, "(1 + v")


@pytest.mark.parametrize("q", [2, 3])
def test_monomial_product_matches_general_path(q):
    f = ScalarField(q)
    rng = random.Random(q)

    def rational():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))

    for i in range(8):
        for j in range(8):
            a, b, c = rational(), rational(), rational()
            x, y = f.scalar({i: a}), f.scalar({j: b})
            k, r = divmod(i + j, 8)
            assert x * y == f.scalar({r: a * b * q**k})
            assert y * x == x * y
            # a two-term operand takes the general convolution
            other = (j + 1 + rng.randrange(7)) % 8
            w = f.scalar({other: c})
            assert x * f.scalar({j: b, other: c}) == x * y + x * w


@pytest.mark.parametrize("q", [2, 3])
def test_term_matches_power_times_rational(q):
    f = ScalarField(q)
    for c in (0, 1, Fraction(-3, 7), q):
        for n in range(-20, 21):
            got = f.term(c, n)
            assert got == f.v_power(n) * f.from_rational(c)
            assert got.to_strings() == (f.v_power(n) * f.from_rational(c)).to_strings()
    for n in range(-20, 21):
        assert f.term(0, n).is_zero()
        assert f.term(Fraction(0), n) == f.zero


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, "1/2", None])
def test_non_rational_coefficients_rejected(bad):
    """A float would give a silently inexact scalar (0.1 is 3602879701896397 /
    2^55), so every builder takes ints and Fractions only, as arithmetic does."""
    f = ScalarField(3)
    cases = [
        lambda: f.term(bad, 0),
        lambda: f.term(bad, 5),
        lambda: f.from_rational(bad),
        lambda: f.scalar([bad]),
        lambda: f.scalar({2: bad}),
    ]
    for case in cases:
        with pytest.raises(UsageError, match="expected an int or a Fraction"):
            case()
    with pytest.raises(TypeError):
        f.one + bad
    # ints, Fractions and bools (ints) still build exact scalars
    assert f.from_rational(True) == f.term(Fraction(2, 2), 0) == f.one
    assert f.scalar([0, 1]) == f.term(1, 1)


# at least two nonzero coefficients: never a monomial, so times_t cannot
# lean on the single-term shape that every basis product produces
_non_monomial = st.dictionaries(
    st.integers(0, 7),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
    min_size=2,
    max_size=8,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from((2, 3, 5, 7, 11)),
    _non_monomial,
    st.integers(-40, 40),
    st.integers(-40, 40),
)
def test_times_t_is_exact_t_power_product(q, coeffs, a, b):
    f = ScalarField(q)
    s = f.scalar(coeffs)
    assert s.as_monomial() is None
    for n in (a, b):
        assert s.times_t(n) == s * f.v_power(n)
        assert s.times_t(n).to_strings() == (s * f.v_power(n)).to_strings()
        assert f.zero.times_t(n).is_zero()
    assert s.times_t(a).times_t(b) == s.times_t(a + b)
    # a single term of s takes the monomial path
    j, c = next(iter(coeffs.items()))
    assert f.term(c, j).times_t(a) == f.term(c, j + a) == f.term(c, j) * f.v_power(a)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_hash_agrees_with_equality(q):
    f = ScalarField(q)
    for c in (0, 1, -1, q, Fraction(-3, 7)):
        s = f.from_rational(c)
        assert s == c and hash(s) == hash(c) == hash(Fraction(c))
        assert len({s, c}) == 1
    assert len({f.from_rational(1), 1}) == 1
    assert len({f.zero, 0, Fraction(0)}) == 1
    assert {f.one: "one"}[1] == "one"
    # equal scalars built by different paths hash alike
    assert hash(f.v_power(8)) == hash(f.from_rational(q)) == hash(q)
    t = f.v_power(1)
    assert t != 1 and hash(t) == hash(f.scalar({1: 1}))
    assert len({t, f.scalar([0, 1]), f.q_power(1), q}) == 2


def test_equality_matches_fraction_equality():
    """Scalar == agrees with Fraction equality of the dense coefficients, on
    random scalars close enough to meet often, against ints and Fractions
    too; equal values hash alike, and scalars of two fields never meet."""
    f, g = ScalarField(3), ScalarField(5)
    rng = random.Random(7)

    def small():
        coeffs = {}
        for _ in range(rng.randint(0, 2)):
            coeffs[rng.choice((0, 3))] = Fraction(rng.choice((-2, 1, 2, 4)), rng.choice((1, 2)))
        return f.scalar(coeffs)

    met = 0
    for _ in range(2000):
        a, b = small(), small()
        want = all(x == y for x, y in zip(a.coeffs, b.coeffs))
        assert (a == b) is want and (b == a) is want
        met += want
        if want:
            assert hash(a) == hash(b)
        c = rng.choice((0, 1, -1, 2, Fraction(1, 2), Fraction(-2)))
        want = a.coeffs == (Fraction(c),) + (Fraction(0),) * 7
        assert (a == c) is want and (c == a) is want
        if want:
            assert hash(a) == hash(c)
        assert a != g.scalar(a.coeffs)
    assert met > 100
