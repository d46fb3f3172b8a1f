"""Desk-scale model of the bounded derived category of quiver representations.

Objects are graded: a finitely supported map degree -> isomorphism class,
standing for the direct sum of stalk complexes X_i[i].  Heredity means
every object decomposes this way and morphism spaces reduce to Hom and
Ext^1 between the pieces.

Morphisms are modeled concretely on complexes of projectives.  A stalk
M[i] is replaced by its minimal projective resolution (length at most one),
placed in cohomological degrees -i-1, -i; maps X -> Y[1] are genuine chain
maps between those complexes, and the cone of a chain map is the literal
mapping cone, whose homology is read off and classified degree by degree.

The extension-fiber counter enumerates morphisms f: X -> Y[1] and tallies
them by the class L with cone(f) = L[1].  Counting runs either over a
complement of the null-homotopic subspace inside the space of chain maps
(one representative per homotopy class; the default) or over the whole
chain-map space followed by division by the coset size ('total' mode).
Both yield the number of derived-category morphisms with each cone, and
the test suite checks that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from operator import mul

import numpy as np

from . import linalg, literal
from .errors import InvariantError, ResourceLimitError, UsageError
from .repcat import (
    IsoClass,
    Rep,
    RepContext,
    _morphism_constraints,
    _VarLayout,
    direct_sum_reps,
)
from .scalar import Scalar, ScalarField

_MISSING = object()


@dataclass(frozen=True)
class GradedObject:
    """Direct sum of stalks: ((degree, IsoClass), ...) sorted, zeros omitted."""

    entries: tuple

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> tuple:
        return tuple(deg for deg, _ in self.entries)

    def part(self, degree: int):
        for deg, cls in self.entries:
            if deg == degree:
                return cls
        return None

    def shift(self, k: int) -> "GradedObject":
        return GradedObject(tuple((deg + k, cls) for deg, cls in self.entries))

    @property
    def total_dim(self) -> int:
        return sum(cls.total_dim for _, cls in self.entries)

    def __str__(self):
        if not self.entries:
            return "0"
        return " + ".join(f"{cls.name}@{deg}" for deg, cls in self.entries)

    __repr__ = __str__


class ProjComplex:
    """Bounded complex of projective representations.

    terms: {cohomological degree: Rep}; diffs: {n: per-vertex matrices, as
    lists of int rows} mapping term n to term n+1.  Absent degrees are zero.
    """

    def __init__(self, ctx: RepContext, terms: dict, diffs: dict):
        self.ctx = ctx
        self.terms = {n: r for n, r in terms.items() if r.total_dim > 0}
        self.diffs = {
            n: d for n, d in diffs.items() if n in self.terms and n + 1 in self.terms
        }

    def support(self):
        return sorted(self.terms)

    def term(self, n: int) -> Rep:
        rep = self.terms.get(n)
        if rep is None:
            zeros = (0,) * self.ctx.quiver.n
            return Rep(zeros, tuple([] for _ in self.ctx.quiver.arrows))
        return rep

    def diff(self, n: int):
        d = self.diffs.get(n)
        if d is None:
            src, dst = self.term(n), self.term(n + 1)
            d = tuple(
                [[0] * src.dims[v] for _ in range(dst.dims[v])]
                for v in range(self.ctx.quiver.n)
            )
        return d

    def shift(self, k: int) -> "ProjComplex":
        """C[k]: term n becomes old term n+k; odd shifts flip the differential."""
        terms = {n - k: rep for n, rep in self.terms.items()}
        diffs = {n - k: _signed(d, k, self.ctx.q) for n, d in self.diffs.items()}
        return ProjComplex(self.ctx, terms, diffs)


def _signed(mats, k: int, q: int) -> tuple:
    """(-1)^k times each matrix, mod q."""
    sign = -1 if k % 2 else 1
    return tuple([[sign * x % q for x in row] for row in m] for m in mats)


def direct_sum_complexes(a: ProjComplex, b: ProjComplex) -> ProjComplex:
    ctx = a.ctx
    n = ctx.quiver.n
    degrees = set(a.terms) | set(b.terms)
    terms = {}
    for deg in degrees:
        terms[deg] = direct_sum_reps(ctx.quiver, a.term(deg), b.term(deg))
    diffs = {}
    for deg in degrees:
        if deg + 1 not in terms:
            continue
        da, db = a.diff(deg), b.diff(deg)
        ca, cb = a.term(deg).dims, b.term(deg).dims
        diffs[deg] = tuple(
            linalg.block_diag(da[v], ca[v], db[v], cb[v]) for v in range(n)
        )
    return ProjComplex(ctx, terms, diffs)


@dataclass
class ChainMap:
    """Degreewise representation morphisms commuting with the differentials."""

    source: ProjComplex
    target: ProjComplex
    mats: dict  # n -> per-vertex matrices (target_n_v x source_n_v)

    def component(self, n: int, v: int):
        comp = self.mats.get(n)
        if comp is None:
            cols = self.source.term(n).dims[v]
            return [[0] * cols for _ in range(self.target.term(n).dims[v])]
        return comp[v]


def _map_layout(C: ProjComplex, D: ProjComplex, lag: int = 0):
    """Coordinates of degree-wise maps C^n -> D^{n-lag}, and the (source,
    target) pair of each degree."""
    degrees = sorted(set(C.terms) | set(D.terms))
    pairs = {n: (C.term(n), D.term(n - lag)) for n in degrees}
    layout = _VarLayout(
        (n, v, dst.dims[v], src.dims[v])
        for n, (src, dst) in pairs.items()
        for v in range(C.ctx.quiver.n)
    )
    return layout, pairs


class _Cone:
    """Mapping cones of the chain maps C -> D whose coordinates follow `layout`.

    cone(f) has term C^{n+1} + D^n in degree n and differential
    [[-dC, 0], [f, dD]]; all but the f block is fixed, so it is built once.
    """

    def __init__(self, C: ProjComplex, D: ProjComplex, layout: _VarLayout):
        self.ctx = ctx = C.ctx
        degs = sorted({n - 1 for n in C.terms} | set(D.terms))
        self.terms = {
            n: direct_sum_reps(ctx.quiver, C.term(n + 1), D.term(n)) for n in degs
        }
        self.templates = {}
        self.slots = []  # (degree, vertex, first row of the f block, layout slot)
        for n in degs:
            if n + 1 not in self.terms:
                continue
            minus_dC, dD = _signed(C.diff(n + 1), 1, ctx.q), D.diff(n)
            mats = []
            for v in range(ctx.quiver.n):
                c_rows, c_cols = C.term(n + 2).dims[v], C.term(n + 1).dims[v]
                mats.append(
                    linalg.block_diag(minus_dC[v], c_cols, dD[v], D.term(n).dims[v])
                )
                slot = layout.slot(n + 1, v)
                if slot is not None:
                    self.slots.append((n, v, c_rows, slot))
            self.templates[n] = mats

    def homology(self, fvec: list) -> GradedObject:
        """Graded object L with cone(f) = L[1] for the chain map f, given as
        a list of ints in layout order."""
        diffs = {n: list(mats) for n, mats in self.templates.items()}
        for n, v, row0, (off, r, c) in self.slots:
            m = diffs[n][v] = list(diffs[n][v])  # template rows stay shared
            for i in range(r):
                start = off + i * c
                m[row0 + i] = fvec[start : start + c] + m[row0 + i][c:]
        return _graded_homology(self.ctx, self.terms, diffs, -1)


def _array(rows: list, ncols: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


class ConeCounter:
    """Brute-force fiber counter for morphisms X -> Y[1] over one pair (X, Y)."""

    def __init__(self, dctx: "DerivedContext", X: GradedObject, Y: GradedObject):
        self.dctx = dctx
        self.ctx = dctx.rep
        self.q = dctx.q
        self.X = X
        self.Y = Y
        self.C = dctx.resolution(X)
        self.D = dctx.resolution(Y).shift(1)
        self._setup_spaces()
        self.cone = _Cone(self.C, self.D, self.layout)

    # -- linear spaces of maps ------------------------------------------------

    def _setup_spaces(self):
        ctx, q = self.ctx, self.q
        C, D = self.C, self.D
        self.layout, pairs = _map_layout(C, D)
        size = self.layout.size

        rows = _morphism_constraints(ctx, self.layout, pairs)
        # commutation: f^{n+1} dC^n = dD^n f^n, one block per vertex
        for n in pairs:
            if D.term(n + 1).total_dim == 0 or C.term(n).total_dim == 0:
                continue
            dC, dD = C.diff(n), D.diff(n)
            for v in range(ctx.quiver.n):
                x, y = self.layout.slot(n + 1, v), self.layout.slot(n, v)
                rows += linalg.intertwining_rows(size, x, dC[v], dD[v], y, q)
        chain_basis = linalg.kernel(rows, size, q)

        # null-homotopic subspace: images of h -> dD h + h dC
        hlayout, hpairs = _map_layout(C, D, lag=1)
        hrows = _morphism_constraints(ctx, hlayout, hpairs)
        images = []
        for hvec in linalg.kernel(hrows, hlayout.size, q):
            hmats = hlayout.unflatten(hvec)
            img = [0] * size
            for n, v, r, c, off in self.layout.blocks:
                parts = []
                hn, hn1 = hmats.get(n, {}).get(v), hmats.get(n + 1, {}).get(v)
                if hn is not None:  # dD^{n-1} h^n
                    parts.append(linalg.mul_t(D.diff(n - 1)[v], list(zip(*hn)), q))
                if hn1 is not None:  # h^{n+1} dC^n
                    parts.append(linalg.mul_t(hn1, list(zip(*C.diff(n)[v])), q))
                for part in parts:
                    for k, x in enumerate(x for row in part for x in row):
                        img[off + k] += x
            images.append([x % q for x in img])
        self.homotopy_rows = linalg.row_space(images, q)
        self.homotopy_dim = len(self.homotopy_rows)
        complement_rows = linalg.extend_row_basis(self.homotopy_rows, chain_basis, q)
        # The two bases stay numpy int64 arrays (rows are chain maps): the
        # benchmark's tracer reads their shape[0] to count the cones enumerated.
        self.chain_basis = _array(chain_basis, size)
        self.complement_rows = _array(complement_rows, size)
        # z - b must equal the formula count of Hom(X, Y[1]); this ties the
        # concrete chain-map model to the hereditary Hom/Ext bookkeeping
        expected = self.dctx.db_hom_dim(self.X, self.Y.shift(1))
        got = len(chain_basis) - self.homotopy_dim
        if got != expected:
            raise InvariantError(
                f"chain maps {self.X} -> ({self.Y})[1] modulo homotopy have "
                f"dimension {got}, but dim Hom(X, Y[1]) is {expected}"
            )

    # -- counting ------------------------------------------------------------------

    def counts(self, mode: str) -> dict:
        if mode == "quotient":
            basis = self.complement_rows
            divisor = 1
        else:
            basis = self.chain_basis
            divisor = self.q**self.homotopy_dim
        free = basis.shape[0]
        if free > self.dctx.cap_dim:
            raise ResourceLimitError(
                f"chain-map space dimension {free} exceeds cap {self.dctx.cap_dim} "
                f"for {self.X} -> ({self.Y})[1]"
            )
        tally: dict = {}
        homology, q = self.cone.homology, self.q
        if free == 0:
            tally[homology([0] * self.layout.size)] = 1
            return tally
        columns = basis.T.tolist()
        for coeffs in product(range(q), repeat=free):
            L = homology([sum(map(mul, coeffs, col)) % q for col in columns])
            tally[L] = tally.get(L, 0) + 1
        if divisor != 1:
            out = {}
            for L, c in tally.items():
                cnt, rem = divmod(c, divisor)
                if rem:
                    raise InvariantError(
                        f"fiber {L} of {self.X} -> ({self.Y})[1] has {c} chain "
                        f"maps, not a multiple of the coset size {divisor}"
                    )
                out[L] = cnt
            tally = out
        return tally

    # -- chain-map helpers for direct cone tests -------------------------------------

    def chain_map_from_vector(self, fvec) -> ChainMap:
        vec = [x % self.q for x in fvec]
        return ChainMap(self.C, self.D, self.layout.matrices(vec))

    def null_homotopic_vectors(self):
        return list(self.homotopy_rows)


def _graded_homology(ctx: RepContext, terms: dict, diffs: dict, shift: int):
    """Classes of the homology of a complex given by its terms (Reps) and
    differentials, the degree-n part placed at degree shift - n."""
    entries = []
    for n in sorted(terms):
        term = terms[n]
        if term.total_dim == 0:
            continue
        h = _homology_rep(ctx, term, diffs.get(n - 1), diffs.get(n))
        if h.total_dim:
            entries.append((shift - n, ctx.classify_rep(h)))
    return GradedObject(tuple(sorted(entries, key=lambda item: item[0])))


def _homology_rep(ctx: RepContext, term: Rep, d_in, d_out) -> Rep:
    """ker(d_out)/im(d_in) at one degree, as a representation."""
    q = ctx.q
    comps = []  # per vertex: kernel vectors completing im(d_in) to ker(d_out)
    bases = []  # per vertex: rows of the matrix whose columns are im + comp
    ranks_in = []
    for v, d in enumerate(term.dims):
        if d == 0:
            comps.append([])
            bases.append(None)
            ranks_in.append(0)
            continue
        ker = linalg.kernel(d_out[v] if d_out is not None else [], d, q)
        image = [[]] * d  # pivot columns of d_in: a basis of its image
        if d_in is not None and d_in[v][0]:
            cols = linalg.rref(d_in[v], q)[1]
            image = [[row[j] % q for j in cols] for row in d_in[v]]
        ri = len(image[0])
        # the pivot columns of [image | ker] past the image complete it to ker
        both = [row + [k[i] for k in ker] for i, row in enumerate(image)]
        comp = [ker[j - ri] for j in linalg.rref(both, q)[1][ri:]]
        comps.append(comp)
        bases.append([row + [c[i] for c in comp] for i, row in enumerate(image)])
        ranks_in.append(ri)
    dims = tuple(len(c) for c in comps)
    mats = []
    for idx, (s, t) in enumerate(ctx.quiver.arrows):
        if dims[s] == 0 or dims[t] == 0:
            mats.append([[0] * dims[s] for _ in range(dims[t])])
            continue
        vecs = linalg.mul_t(term.mats[idx], comps[s], q)
        coords = linalg.solve(bases[t], vecs, ranks_in[t] + dims[t], q)
        if coords is None:
            raise InvariantError(
                f"homology arrow {s + 1}->{t + 1} maps out of the kernel"
            )
        mats.append(coords[ranks_in[t] :])
    return Rep(dims, tuple(mats))


class DerivedContext:
    """Hom/Ext bookkeeping and cone counting on top of a RepContext."""

    def __init__(
        self,
        rep: RepContext,
        *,
        cap_dim: int = 14,
        count_mode: str = "quotient",
    ):
        if count_mode not in ("quotient", "total"):
            raise UsageError(f"unknown count mode {count_mode!r}")
        self.rep = rep
        self.q = rep.q
        self.field = ScalarField(rep.q)
        self.cap_dim = cap_dim
        self.count_mode = count_mode
        self._stalk_res: dict = {}
        self._res_cache: dict = {}
        self._fiber_cache: dict = {}
        self._hall_table: dict = {}  # class keys of (A_i, B_i, I_i, I_{i-1})

    # -- graded objects -----------------------------------------------------

    def graded(self, entries) -> GradedObject:
        if isinstance(entries, dict):
            entries = entries.items()
        cleaned = []
        for deg, cls in entries:
            if not isinstance(cls, IsoClass):
                raise UsageError(f"expected IsoClass at degree {deg}")
            if not cls.is_zero:
                cleaned.append((int(deg), cls))
        cleaned.sort(key=lambda item: item[0])
        degs = [d for d, _ in cleaned]
        if len(set(degs)) != len(degs):
            raise UsageError("duplicate degrees in graded object")
        return GradedObject(tuple(cleaned))

    def stalk(self, cls: IsoClass, degree: int = 0) -> GradedObject:
        return self.graded([(degree, cls)])

    def zero_object(self) -> GradedObject:
        return GradedObject(())

    def parse_graded(self, text: str) -> GradedObject:
        """Literals like 'S1@0 + P1@2', class sums grouped as 'S1+S2@0'; the
        grammar is in `literal`."""
        return self.graded(literal.parse(text, "graded", self.rep.class_by_name))

    # -- Hom and brace bookkeeping -------------------------------------------

    def db_hom_dim(self, X: GradedObject, Y: GradedObject) -> int:
        """dim Hom(X, Y) in the derived category (hereditary: only gaps 0, 1)."""
        total = 0
        for i, a in X.entries:
            for j, b in Y.entries:
                if j - i == 0:
                    total += self.rep.hom_dim(a, b)
                elif j - i == 1:
                    total += self.rep.ext_dim(a, b)
        return total

    def brace_exponent(self, X: GradedObject, Y: GradedObject) -> int:
        """n with {X, Y} = q^n: alternating product over positive shifts of X."""
        total = 0
        for i, a in X.entries:
            for j, b in Y.entries:
                gap = j - i
                if gap > 0:
                    total += (-1) ** gap * self.rep.hom_dim(a, b)
                if gap > 1:
                    total += (-1) ** (gap - 1) * self.rep.ext_dim(a, b)
        return total

    def brace_factor(self, X: GradedObject, Y: GradedObject) -> Scalar:
        return self.field.q_power(self.brace_exponent(X, Y))

    def hall_denominator_exponent(self, X: GradedObject, Y: GradedObject) -> int:
        """e with H^L = |fiber| * q^-e: collects |Hom(X, Y)| and the brace."""
        return self.db_hom_dim(X, Y) + self.brace_exponent(X, Y)

    # -- resolutions ----------------------------------------------------------

    def _stalk_resolution(self, cls: IsoClass):
        """Minimal projective resolution data (syzygy, cover, inclusion)."""
        cached = self._stalk_res.get(cls.key)
        if cached is not None:
            return cached
        ctx = self.rep
        q = ctx.q
        quiver = ctx.quiver
        rep = ctx.representative(cls)
        n = quiver.n

        # radical = sum of arrow images, spanned by the pivot columns of the
        # incoming matrices side by side; lift a basis of the top
        tops = []  # per vertex: vectors lifting a basis of top(M) at v
        for v, d in enumerate(rep.dims):
            incoming = [rep.mats[i] for i, (s, t) in enumerate(quiver.arrows) if t == v]
            side = [[x for m in incoming for x in m[i]] for i in range(d)]
            rad = []
            if side and side[0]:
                rad = [[row[j] for row in side] for j in linalg.rref(side, q)[1]]
            identity = [[int(i == j) for j in range(d)] for i in range(d)]
            tops.append(linalg.extend_row_basis(rad, identity, q))

        cover = Rep((0,) * n, tuple([] for _ in quiver.arrows))
        pi = [[] for _ in range(n)]  # per vertex: the columns of the cover map
        for v in range(n):
            paths = self._projective_paths(v)
            proj = ctx.projective_rep(v)
            for top in tops[v]:
                cover = direct_sum_reps(quiver, cover, proj)
                for w in range(n):
                    pi[w] += [self._apply_path(rep, p, top) for p in paths[w]]
        pi = [[[c[i] for c in pi[v]] for i in range(rep.dims[v])] for v in range(n)]
        for v in range(n):
            if linalg.rank(pi[v], q) != rep.dims[v]:
                raise InvariantError(
                    f"projective cover of {cls.name} is not surjective at vertex {v + 1}"
                )

        kernels = [linalg.kernel(pi[v], cover.dims[v], q) for v in range(n)]
        iota = tuple(  # the inclusion of the syzygy, with columns kernels[v] at v
            [[k[i] for k in kernels[v]] for i in range(cover.dims[v])] for v in range(n)
        )
        k_mats = []
        for idx, (s, t) in enumerate(quiver.arrows):
            image = linalg.mul_t(cover.mats[idx], kernels[s], q)
            z = linalg.solve(iota[t], image, len(kernels[t]), q)
            if z is None:
                raise InvariantError(
                    f"syzygy of {cls.name} is not closed under arrow {s + 1}->{t + 1}"
                )
            k_mats.append(z)
        syzygy = Rep(tuple(map(len, kernels)), tuple(k_mats))
        result = (syzygy, cover, iota)
        self._stalk_res[cls.key] = result
        return result

    def _projective_paths(self, v: int):
        paths = {w: [] for w in range(self.rep.quiver.n)}
        for w, p in self.rep.quiver.paths_from(v):
            paths[w].append(p)
        return paths

    def _apply_path(self, rep: Rep, path, vec):
        q = self.q
        for arrow in path:
            vec = [sum(map(mul, row, vec)) % q for row in rep.mats[arrow]]
        return vec

    def _stalk_complex(self, cls: IsoClass, degree: int) -> ProjComplex:
        syzygy, cover, iota = self._stalk_resolution(cls)
        terms = {-degree: cover}
        diffs = {}
        if syzygy.total_dim:
            terms[-degree - 1] = syzygy
            diffs[-degree - 1] = _signed(iota, degree, self.q)
        return ProjComplex(self.rep, terms, diffs)

    def resolution(self, X: GradedObject) -> ProjComplex:
        cached = self._res_cache.get(X.entries)
        if cached is None:
            cached = ProjComplex(self.rep, {}, {})
            for i, cls in X.entries:
                cached = direct_sum_complexes(cached, self._stalk_complex(cls, i))
            self._res_cache[X.entries] = cached
        return cached

    def complex_homology(self, cpx: ProjComplex) -> GradedObject:
        """Classes of the homology of a complex, as a graded object."""
        return _graded_homology(self.rep, cpx.terms, cpx.diffs, 0)

    # -- cones and fibers -----------------------------------------------------

    def cone_counter(self, X: GradedObject, Y: GradedObject) -> ConeCounter:
        return ConeCounter(self, X, Y)

    def cone_class(self, f: ChainMap) -> GradedObject:
        """L with cone(f) = L[1], from the literal mapping cone of f."""
        layout, _ = _map_layout(f.source, f.target)
        vec = [0] * layout.size
        for n, v, r, c, off in layout.blocks:
            vec[off : off + r * c] = [x % self.q for row in f.component(n, v) for x in row]
        return _Cone(f.source, f.target, layout).homology(vec)

    def fiber_counts(self, X: GradedObject, Y: GradedObject, mode: str | None = None):
        """|Ext^1(X, Y)_L| for every L with a nonempty fiber."""
        mode = mode or self.count_mode
        key = (X.entries, Y.entries, mode)
        cached = self._fiber_cache.get(key)
        if cached is None:
            cached = ConeCounter(self, X, Y).counts(mode)
            self._fiber_cache[key] = cached
        return cached

    def module_fiber_counts(self, X: GradedObject, Y: GradedObject) -> dict:
        """Fibers whose cone class is a module in degree zero (or zero itself)."""
        out = {}
        for L, c in self.fiber_counts(X, Y).items():
            if L.is_zero:
                out[self.rep.zero_class] = c
            elif len(L.entries) == 1 and L.entries[0][0] == 0:
                out[L.entries[0][1]] = c
        return out

    def hall_factors(self, A, B, I):
        """Per position i, the map M -> H(M; I_i[1] + A_i, B_i + I_{i-1}[-1])
        / |Aut(I_i)| as exact rationals (indices mod the period), for module
        tuples A, B and connecting classes I; None if some fiber is empty.

        Each position's map depends only on (A_i, B_i, I_i, I_{i-1}) and is
        computed once per context; the returned dicts are the table's own
        entries, so callers read them and must not mutate them.
        """
        m = len(A)
        table = self._hall_table
        factors = []
        for i in range(m):
            a, b, i_cls, i_prev = A[i], B[i], I[i], I[i - 1]
            key = (a.key, b.key, i_cls.key, i_prev.key)
            factor = table.get(key, _MISSING)
            if factor is _MISSING:
                factor = table[key] = self._hall_factor(a, b, i_cls, i_prev)
            if factor is None:
                return None
            factors.append(factor)
        return factors

    def connecting_terms(self, A, B):
        """For module tuples A, B of one period (indices mod m), yield each
        tuple I of connecting classes with nonempty fibers, with the pairs
        (M, prod_i H(M_i; I_i[1] + A_i, B_i + I_{i-1}[-1]) / |Aut(I_i)|),
        one per module tuple M; each algebra applies its own twist to them.

        I is pruned by the necessary condition that I_i embeds into B_i and
        A_{i+1} surjects onto I_i, which only compares dimension vectors:
        dim I_i <= min(B_i, A_{i+1}).  Pruned terms vanish (the tests
        spot-check this against the unpruned counter).
        """
        m = len(A)
        candidates = [
            self.rep.iso_classes_upto(tuple(map(min, B[i].dims, A[(i + 1) % m].dims)))
            for i in range(m)
        ]
        for I in product(*candidates):
            factors = self.hall_factors(A, B, I)
            if factors is None:
                continue
            terms = []
            for choice in product(*(f.items() for f in factors)):
                modules, coeffs = zip(*choice)
                terms.append((modules, prod(coeffs)))
            yield I, terms

    def _hall_factor(self, a, b, i_cls, i_prev):
        """M -> H(M; I[1] + A, B + I'[-1]) / |Aut(I)|, or None if the fiber
        is empty (I' is the connecting class one position back)."""
        X = self.graded({1: i_cls, 0: a})
        Y = self.graded({0: b, -1: i_prev})
        counts = self.module_fiber_counts(X, Y)
        if not counts:
            return None
        weight = Fraction(self.q) ** (-self.hall_denominator_exponent(X, Y))
        weight /= self.rep.aut_count(i_cls)
        return {cls: c * weight for cls, c in counts.items()}

    def derived_hall_number(self, X: GradedObject, Y: GradedObject, L: GradedObject) -> Scalar:
        """|Ext^1(X,Y)_L| / (|Hom(X,Y)| * {X,Y}) as an exact scalar."""
        count = self.fiber_counts(X, Y).get(L, 0)
        if count == 0:
            return self.field.zero
        expo = self.hall_denominator_exponent(X, Y)
        return self.field.q_power(-expo) * count
