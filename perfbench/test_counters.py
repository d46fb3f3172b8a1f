"""Counter self-test: the traced golden product repeats its counts exactly.

    python3 -m pytest perfbench -q

The product u_{S1@0} u_{S2@0} in DH_3 over A2 at q = 2 runs twice under the
tracer, each time on fresh contexts.  The work counters must repeat exactly
and equal the pinned values, so that a silent change of algorithm shows up
as a counter diff.  A change that alters this work on purpose updates
PINNED and says why.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import contexts  # noqa: E402
import tracing  # noqa: E402
from periodic_hall import PeriodicAlgebra  # noqa: E402

Q = 2
PINNED = {
    "derived.cones": 3,
    "derived.fiber_counts.misses": 2,
    "periodic.basis_product.misses": 1,
    "linalg.rref.calls": 25,
}


def traced_golden_product():
    d = contexts.derived(Q)
    ctx = d.rep
    P = PeriodicAlgebra(d, 3)
    Z = ctx.zero_class
    x = P.monomial(P.basis([ctx.class_by_name("S1"), Z, Z]))
    y = P.monomial(P.basis([ctx.class_by_name("S2"), Z, Z]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = P.multiply(x, y)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 0.0, 0.0)
    vinv = d.field.v_power(-4)
    want = P.element(
        {
            P.basis([ctx.class_by_name("S1+S2"), Z, Z]): vinv,
            P.basis([ctx.class_by_name("P1"), Z, Z]): vinv * d.field.from_rational(Q - 1),
        }
    )
    return got == want, {name: metrics[name][0] for name in PINNED}


def test_golden_product_counters_repeat_and_match_pinned():
    ok_first, first = traced_golden_product()
    ok_second, second = traced_golden_product()
    assert ok_first and ok_second, "traced golden product has the wrong value"
    assert first == second, (first, second)
    assert first == PINNED
