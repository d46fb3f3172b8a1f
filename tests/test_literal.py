"""The literal grammar: malformed literals fail fast, quivers and classes
parse to their values, printed elements and graded objects parse back to
themselves."""

import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import periodic_hall
from periodic_hall.errors import ParseError
from periodic_hall.extended import ExtendedAlgebra
from periodic_hall.periodic import PeriodicAlgebra
from periodic_hall.repcat import Quiver
from periodic_hall.scalar import parse_scalar
from periodic_hall.suites import graded_objects_upto

from conftest import _derived_context

# all but the periodic K part were once accepted, most with a wrong value;
# inputs that once looped forever run in a subprocess below instead
MALFORMED_ELEMENTS = [
    (PeriodicAlgebra, "2[S1@0]"),
    (PeriodicAlgebra, "+[S1@0]"),
    (PeriodicAlgebra, "()*[S1@0]"),
    (PeriodicAlgebra, "[S1@0] + + [S2@0]"),
    (PeriodicAlgebra, "2*-[S1@0]"),
    (PeriodicAlgebra, "[S1@0] +"),
    (PeriodicAlgebra, "[S1@0]*K[(1,0)@0]"),
    (ExtendedAlgebra, "K[(1,0)@0, junk]"),
    (ExtendedAlgebra, "K[(1,0)]"),
    (ExtendedAlgebra, "K[hello]"),
    (ExtendedAlgebra, "[S1@0]*K[(1,0)/3@1]"),
]
MALFORMED_SCALARS = ["+", "()", "", "2 3", "2v"]


@pytest.mark.parametrize("algebra, text", MALFORMED_ELEMENTS)
def test_malformed_element_raises(a2_q2, algebra, text):
    alg = algebra(a2_q2, 3)
    start = time.perf_counter()
    with pytest.raises(ParseError):
        alg.parse_element(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", MALFORMED_SCALARS)
def test_malformed_scalar_raises(a2_q2, text):
    with pytest.raises(ParseError):
        parse_scalar(a2_q2.field, text)


@pytest.mark.parametrize("text", ["", "0@1", "S1@0 + S2@0"])
def test_malformed_graded_raises(a2_q2, text):
    with pytest.raises(ParseError):
        a2_q2.parse_graded(text)


# (n, arrows) as the hand parser this grammar replaced read them
QUIVERS = {
    "A1": (1, ()),
    "A2": (2, ((0, 1),)),
    "A3": (3, ((0, 1), (1, 2))),
    "A4": (4, ((0, 1), (1, 2), (2, 3))),
    "A5": (5, ((0, 1), (1, 2), (2, 3), (3, 4))),
    "a3": (3, ((0, 1), (1, 2))),
    "A02": (2, ((0, 1),)),
    "1; ": (1, ()),
    "2; 1->2, 1->2": (2, ((0, 1), (0, 1))),
    "2; 2->1": (2, ((1, 0),)),
    "3; 1->2, 2->3": (3, ((0, 1), (1, 2))),
    "3; 1->2, 2->3, 1->3": (3, ((0, 1), (1, 2), (0, 2))),
    "3; 1->2, 3->2": (3, ((0, 1), (2, 1))),
    " 3 ;3->1,2 - > 1 ": (3, ((2, 0), (1, 0))),
}
# the first three were once read by int(), as 10, 2 and 2 vertices
MALFORMED_QUIVERS = ["1_0; 1->2", "+2; 1->2", "２; １->２", "2; 1->2,", "2; 1=>2"]


@pytest.mark.parametrize("text", sorted(QUIVERS))
def test_quiver_literal_values(text):
    quiver = Quiver.parse(text)
    assert (quiver.n, quiver.arrows) == QUIVERS[text]


@pytest.mark.parametrize("text", MALFORMED_QUIVERS + ["A0"])
def test_malformed_quiver_raises(text):
    with pytest.raises(ParseError):
        Quiver.parse(text)


@pytest.mark.parametrize(
    "quiver, bound", [("A2", (2, 2)), ("A3", (1, 1, 1)), ("2; 1->2, 1->2", (1, 1))]
)
def test_every_class_name_resolves_to_its_class(dctx_factory, quiver, bound):
    rep = dctx_factory(quiver, 2).rep
    for cls in rep.iso_classes_upto(bound):
        assert rep.class_by_name(cls.name) is cls
        assert rep.class_by_name(f" {cls.name.replace('+', ' + ')} ") is cls


def test_printed_graded_objects_parse_back(a2_q2):
    objects = graded_objects_upto(a2_q2, 3)
    assert len(objects) == 45
    for X in objects:
        assert a2_q2.parse_graded(str(X)) == X


def test_cli_rejects_doubled_star_without_hanging():
    src = os.path.dirname(os.path.dirname(periodic_hall.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [
            sys.executable, "-m", "periodic_hall.cli", "multiply",
            "--quiver", "A2", "--q", "2", "--m", "3",
            "periodic", "2**3*[S1@0]", "[S2@0]",
        ],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error" in proc.stderr


def test_zero_element_parses(a2_q2):
    for algebra in (PeriodicAlgebra, ExtendedAlgebra):
        alg = algebra(a2_q2, 3)
        zero = alg.parse_element("[S1@0] - [S1@0]")
        assert str(zero) == "0"
        assert alg.parse_element("0") == zero


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def elements(draw):
    """An element of either algebra over A2, q in {2, 3}, m in {1, 3}, with
    up to four terms, non-monomial and rational coefficients and K parts."""
    d = _derived_context("A2", draw(st.sampled_from((2, 3))))
    m = draw(st.sampled_from((1, 3)))
    algebra = draw(st.sampled_from((PeriodicAlgebra, ExtendedAlgebra)))(d, m)
    pool = d.rep.iso_classes_upto((2, 2))
    field = d.field
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        classes = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        if isinstance(algebra, ExtendedAlgebra):
            doubled = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
            alphas = draw(st.lists(doubled, min_size=m, max_size=m))
            basis = algebra.basis(classes, alphas)
        else:
            basis = algebra.basis(classes)
        if draw(st.booleans()):
            coeffs = draw(st.dictionaries(st.integers(0, 7), _fractions, max_size=4))
            terms[basis] = field.scalar(coeffs)
        else:
            power = field.v_power(draw(st.integers(-20, 20)))
            terms[basis] = power * field.from_rational(draw(_fractions))
    return algebra.element(terms)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(elements())
def test_printed_element_parses_back(el):
    assert el.algebra.parse_element(str(el)) == el
