"""The three benchmark sweeps, one pass at a time.

Each pass runs the same checks as the acceptance suite's sweep, in an
order taken from a seeded random.Random (seed 0 keeps the suite's order),
times every public per-check call and checks the identity the suite
checks.  A cold pass also records each check's exact output in the suite's
order, so that a digest of the outputs does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from periodic_hall import suites

# Sweep parameters, as in acceptance criteria 1, 3 and 7.
FIBERS_MAX_TOTAL = 3
PRODUCTS_BOUND = (1, 1)
PRODUCTS_MAX_DEGREES = 2
MODULES_MAX_TOTAL = 3

# sha256 of each sub-sweep's outputs in suite order, pinned at the commit that
# added this benchmark: fiber tallies, phi(a b) from to_json, and |Aut| with
# g^L_{M,N}.  They change only when the program's results are meant to change.
EXPECTED_DIGESTS = {
    "fibers": {
        "quotient": "d40d90a31b2b130728f7a478408d00ef20a14f3e987ae4430d80e88ddc3bcf07",
        "total": "d40d90a31b2b130728f7a478408d00ef20a14f3e987ae4430d80e88ddc3bcf07",
    },
    "products": {
        "q2m1": "84a18fd29cfb627093cf2bc1f002626c1c6884c6ffc6d3b5c310c00946bdc4a0",
        "q2m3": "6b00c5187ce0221a1f3dc283b27478705613e81fc5d4ac47a568178b4ccb2dc0",
        "q3m1": "c952925504c09ac7a4d7510c74693051f5780b8d0b32ee58a71e32193084351b",
        "q3m3": "84c912f0c90852075fa09c1819a41c3cba790c629a967a3401b6df23a88fc567",
    },
    "modules": {
        "q2": "a01f2ae9e30d56658a681690292d108a7aba1da14d9024b947028df3e425d9ca",
        "q3": "4eee95722924a449c4ff71998dcc60b89cd167d5558241294a8212862776fa0d",
    },
}


class NullTracer:
    """Stand-in for tracing.Tracer when tracing is off."""

    check = None

    def span(self, name):
        return nullcontext()

    def pause(self):
        return nullcontext()


@dataclass
class PassResult:
    seconds: float = 0.0
    checks: int = 0
    failed: int = 0  # failed identities plus exceptions
    latencies: list = field(default_factory=list)  # seconds per per-check call
    sub_seconds: dict = field(default_factory=dict)
    sub_checks: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # sub-sweep -> outputs, suite order

    def digests(self) -> dict:
        return {name: digest(out) for name, out in self.outputs.items()}


def digest(outputs) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def visit_order(n: int, rng) -> list:
    order = list(range(n))
    rng.shuffle(order)
    return order


def _report_exception(where: str) -> None:
    print(f"perfbench: exception in {where}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _tally_text(counts: dict) -> str:
    return ";".join(sorted(f"{L}={c}" for L, c in counts.items()))


# -- fibers: partition identity in both count modes ---------------------------


def fibers_pass(ctxs: dict, rng, tracer, capture: bool) -> PassResult:
    res = PassResult()
    base = 0
    for mode, dctx in ctxs.items():
        t0 = perf_counter()
        with tracer.span("suites.partition_sweep"):
            objects = suites.graded_objects_upto(dctx, FIBERS_MAX_TOTAL)
            pairs = [(X, Y) for X in objects for Y in objects]
            tallies = [None] * len(pairs)
            for i in visit_order(len(pairs), rng):
                X, Y = pairs[i]
                tracer.check = base + i
                try:
                    t = perf_counter()
                    counts = dctx.fiber_counts(X, Y, mode=mode)
                    res.latencies.append(perf_counter() - t)
                    expected = dctx.q ** dctx.db_hom_dim(X, Y.shift(1))
                except Exception:
                    _report_exception(f"fibers {mode} {X} -> {Y}")
                    res.failed += 1
                    continue
                if sum(counts.values()) != expected:
                    res.failed += 1
                tallies[i] = counts
            tracer.check = None
        res.sub_seconds[mode] = perf_counter() - t0
        res.sub_checks[mode] = len(pairs)
        if capture:
            res.outputs[mode] = ["error" if c is None else _tally_text(c) for c in tallies]
        base += len(pairs)
    # both modes count the same derived-category morphisms
    if set(res.outputs) == {"quotient", "total"}:
        for a, b in zip(res.outputs["quotient"], res.outputs["total"]):
            if a != b:
                res.failed += 1
    return res


# -- products: embedding homomorphism on every ordered pair --------------------


def products_pass(ctxs: dict, rng, tracer, capture: bool) -> PassResult:
    res = PassResult()
    base = 0
    for name, emb in ctxs.items():
        t0 = perf_counter()
        with tracer.span("suites.embedding_sweep"):
            P = emb.periodic
            elements = suites.periodic_basis_elements(
                P, PRODUCTS_BOUND, PRODUCTS_MAX_DEGREES
            )
            pairs = [(a, b) for a in elements for b in elements]
            done = [False] * len(pairs)
            for i in visit_order(len(pairs), rng):
                a, b = pairs[i]
                tracer.check = base + i
                try:
                    t = perf_counter()
                    report = emb.verify_homomorphism(a, b)
                    res.latencies.append(perf_counter() - t)
                except Exception:
                    _report_exception(f"products {name} {a} * {b}")
                    res.failed += 1
                    continue
                if not report["equal"]:
                    res.failed += 1
                done[i] = True
            tracer.check = None
        res.sub_seconds[name] = perf_counter() - t0
        res.sub_checks[name] = len(pairs)
        if capture:
            # verify_homomorphism does not return phi(a b); outside the timed
            # sweep it is rebuilt from the product the sweep cached
            outputs = ["error"] * len(pairs)
            with tracer.pause():
                for i, (a, b) in enumerate(pairs):
                    if done[i]:
                        lhs = emb.phi(P.multiply(P.monomial(a), P.monomial(b)))
                        outputs[i] = json.dumps(lhs.to_json(), separators=(",", ":"))
            res.outputs[name] = outputs
        base += len(pairs)
    return res


# -- modules: Riedtmann's formula against submodule counts ---------------------


def modules_pass(ctxs: dict, rng, tracer, capture: bool) -> PassResult:
    res = PassResult()
    base = 0
    for name, dctx in ctxs.items():
        rep = dctx.rep
        t0 = perf_counter()
        with tracer.span("suites.riedtmann_sweep"):
            bound = (MODULES_MAX_TOTAL,) * rep.quiver.n
            classes = [
                c for c in rep.iso_classes_upto(bound) if c.total_dim <= MODULES_MAX_TOTAL
            ]
            triples = []
            for M in classes:
                for N in classes:
                    if M.total_dim + N.total_dim > MODULES_MAX_TOTAL:
                        continue
                    dims = tuple(a + b for a, b in zip(M.dims, N.dims))
                    for L in rep.iso_classes_with_dims(dims):
                        triples.append((M, N, L))
            values = [None] * len(triples)
            for i in visit_order(len(triples), rng):
                M, N, L = triples[i]
                tracer.check = base + i
                try:
                    t = perf_counter()
                    g = rep.submodule_hall_number(L, M, N)
                    res.latencies.append(perf_counter() - t)
                    fibers = dctx.module_fiber_counts(dctx.stalk(M), dctx.stalk(N))
                    auts = (rep.aut_count(L), rep.aut_count(M), rep.aut_count(N))
                    hom = rep.hom_dim(M, N)
                except Exception:
                    _report_exception(f"modules {name} {M} {N} {L}")
                    res.failed += 1
                    continue
                rhs = (
                    Fraction(fibers.get(L, 0))
                    / Fraction(rep.q) ** hom
                    * Fraction(auts[0], auts[1] * auts[2])
                )
                if Fraction(g) != rhs:
                    res.failed += 1
                values[i] = (g, *auts)
            tracer.check = None
        res.sub_seconds[name] = perf_counter() - t0
        res.sub_checks[name] = len(triples)
        if capture:
            res.outputs[name] = [
                "error" if v is None else "{}|{}|{}|g={}|aut={},{},{}".format(*t, *v)
                for t, v in zip(triples, values)
            ]
        base += len(triples)
    return res


PASSES = {"fibers": fibers_pass, "products": products_pass, "modules": modules_pass}


def run_pass(workload: str, ctxs: dict, rng, tracer=None, capture: bool = True) -> PassResult:
    """One sweep; `seconds` is the time of its sub-sweeps, output capture excluded.

    With capture, each check's output is kept for the digest; a warm pass
    re-reads cached results and checks only the identities.
    """
    res = PASSES[workload](ctxs, rng, tracer or NullTracer(), capture)
    res.seconds = sum(res.sub_seconds.values())
    res.checks = sum(res.sub_checks.values())
    return res
