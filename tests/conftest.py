"""Shared fixtures: contexts are expensive to warm up, so cache per session.
Also the helper that reads basis products as scalars."""

from fractions import Fraction
from functools import lru_cache

import pytest

from periodic_hall.derived import DerivedContext
from periodic_hall.repcat import Quiver, RepContext


@lru_cache(maxsize=None)
def _rep_context(quiver_text: str, q: int) -> RepContext:
    return RepContext(Quiver.parse(quiver_text), q)


@lru_cache(maxsize=None)
def _derived_context(quiver_text: str, q: int) -> DerivedContext:
    return DerivedContext(_rep_context(quiver_text, q))


@pytest.fixture
def ctx_factory():
    return _rep_context


@pytest.fixture
def dctx_factory():
    return _derived_context


@pytest.fixture
def a2_q2():
    return _derived_context("A2", 2)


@pytest.fixture
def a2_q3():
    return _derived_context("A2", 3)


@pytest.fixture
def a1_q2():
    return _derived_context("A1", 2)


def record_scalar(field, record):
    """A basis-product record (num, den, n) as the scalar num/den * t^n, built
    as `Algebra.multiply` builds it."""
    num, den, n = record
    return field.term(Fraction(num, den), n)


def product_scalars(algebra, product: dict) -> dict:
    """A basis product {basis: record} of algebra as {basis: scalar}, in its
    term order."""
    return {basis: record_scalar(algebra.field, r) for basis, r in product.items()}
