"""Construct every context and algebra a workload needs.

This module imports nothing but the program, so that a fresh interpreter
running `setup_probe.py` measures only interpreter start, `import
periodic_hall` and this construction: the benchmark's `setup_s`.
"""

from periodic_hall import DerivedContext, Embedding, ExtendedAlgebra, PeriodicAlgebra
from periodic_hall import Quiver, RepContext

QUIVER = "A2"


def derived(q: int) -> DerivedContext:
    return DerivedContext(RepContext(Quiver.parse(QUIVER), q))


def build(workload: str) -> dict:
    """Fresh contexts, keyed by sub-sweep, in the order the acceptance suite uses."""
    if workload == "fibers":
        # each count mode gets its own context, so both start cold
        return {"quotient": derived(2), "total": derived(2)}
    if workload == "products":
        # one derived context per q, shared by both periods as in criterion 1
        out = {}
        for q in (2, 3):
            d = derived(q)
            for m in (1, 3):
                out[f"q{q}m{m}"] = Embedding(PeriodicAlgebra(d, m), ExtendedAlgebra(d, m))
        return out
    if workload == "modules":
        return {f"q{q}": derived(q) for q in (2, 3)}
    raise ValueError(f"unknown workload {workload!r}")
