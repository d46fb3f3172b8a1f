"""Finite-dimensional representations of an acyclic quiver over F_q.

A representation assigns F_q-vector spaces to vertices and matrices to
arrows.  The context object enumerates isomorphism classes one dimension
vector at a time by partitioning the (finite) set of all matrix tuples
into orbits of the base-change group prod_v GL(d_v, F_q); the group is
generated by elementary transvections and one diagonal scaling per vertex
(q is prime, so this generates everything).  Each generator permutes the
base-q codes of all matrix tuples as one numpy array, and min-label
propagation labels every code with the smallest code of its orbit; orbits
are numbered in that order.  Orbit membership doubles as an O(1)
canonical-form test, which the cone-counting code leans on hard.

Classes are named by their Krull-Schmidt decomposition into labeled
indecomposables: an orbit not reachable as a direct sum of strictly
smaller classes is a new indecomposable and gets a fresh label (S/P/I
for simples, projectives and injectives, X... otherwise).

Subquotients come from two routines: `_subrep` restricts to a span (a
submodule, or a syzygy in `derived`) and `_homology` takes ker/im at one
term of a complex (a cone's homology in `derived`, or a quotient here).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, permutations, product
from math import prod
from operator import mul

import numpy as np

from . import linalg, literal
from .errors import InvariantError, ParseError, ResourceLimitError, UsageError
from .scalar import is_prime


class Quiver:
    """Finite acyclic quiver: vertex count and a list of arrows (s, t).

    Vertices are 0-based internally and 1-based in literals and labels.
    """

    def __init__(self, n: int, arrows):
        if n < 1:
            raise UsageError("quiver needs at least one vertex")
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (0 <= s < n and 0 <= t < n):
                raise UsageError(f"arrow ({s},{t}) out of range")
            if s == t:
                raise UsageError("loops are not allowed (quiver must be acyclic)")
        self.n = n
        self.arrows = arrows
        self._check_acyclic()

    def _check_acyclic(self):
        indeg = [0] * self.n
        for _, t in self.arrows:
            indeg[t] += 1
        queue = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        queue.append(t)
        if seen != self.n:
            raise UsageError("quiver has an oriented cycle")

    @staticmethod
    def parse(text: str) -> "Quiver":
        """A literal 'quiver': a preset such as 'A3', or 'n; s->t, s->t'."""
        n, arrows = literal.parse(text, "quiver")
        try:
            return Quiver(n, arrows)
        except UsageError as exc:
            raise ParseError(str(exc)) from exc

    def euler(self, d, e) -> int:
        """<d, e> = sum_v d_v e_v - sum_{s->t} d_s e_t for vertex-length vectors."""
        total = sum(map(mul, d, e))
        for s, t in self.arrows:
            total -= d[s] * e[t]
        return int(total)

    def euler_left(self, d) -> list:
        """l(d) with <d, e> = l(d) . e: l_v = d_v - sum_{s->v} d_s."""
        out = list(d)
        for s, t in self.arrows:
            out[t] -= d[s]
        return out

    def euler_right(self, e) -> list:
        """r(e) with <d, e> = d . r(e): r_v = e_v - sum_{v->t} e_t."""
        out = list(e)
        for s, t in self.arrows:
            out[s] -= e[t]
        return out

    def paths_from(self, v: int):
        """All paths starting at v as (endpoint, arrow-index tuple)."""
        out = [(v, ())]
        frontier = [(v, ())]
        while frontier:
            w, p = frontier.pop()
            for idx, (s, t) in enumerate(self.arrows):
                if s == w:
                    q = (t, p + (idx,))
                    out.append(q)
                    frontier.append(q)
        return out

    def __repr__(self):
        arrows = ", ".join(f"{s + 1}->{t + 1}" for s, t in self.arrows)
        return f"Quiver({self.n}; {arrows})"


class Rep:
    """Concrete representation: per-vertex dimensions, per-arrow matrices as
    lists of int rows (arrow s -> t: dims[t] rows of dims[s] entries)."""

    __slots__ = ("dims", "mats")

    def __init__(self, dims, mats):
        self.dims = tuple(map(int, dims))
        self.mats = tuple(mats)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self):
        return f"Rep(dims={self.dims})"


def make_rep(quiver: Quiver, q: int, dims, mats=None) -> Rep:
    """The representation with these matrices (any nested sequences of ints,
    numpy arrays included; zero matrices when mats is None), shapes checked
    and entries reduced mod q."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != quiver.n or any(d < 0 for d in dims):
        raise UsageError(f"bad dimension vector {dims}")
    out = []
    for idx, (s, t) in enumerate(quiver.arrows):
        shape = (dims[t], dims[s])
        if mats is None:
            out.append([[0] * dims[s] for _ in range(dims[t])])
            continue
        try:
            m = [[int(x) % q for x in row] for row in mats[idx]]
        except TypeError as exc:
            raise UsageError(f"arrow {idx} matrix is not a {shape} matrix") from exc
        if len(m) != dims[t] or any(len(row) != dims[s] for row in m):
            raise UsageError(f"arrow {idx} matrix is not a {shape} matrix")
        out.append(m)
    return Rep(dims, tuple(out))


def direct_sum_reps(quiver: Quiver, a: Rep, b: Rep) -> Rep:
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    mats = tuple(
        linalg.block_diag(ma, a.dims[s], mb, b.dims[s])
        for (s, _), ma, mb in zip(quiver.arrows, a.mats, b.mats)
    )
    return Rep(dims, mats)


def _columns(vectors, dims) -> tuple:
    """Per vertex v, the dims[v]-row matrix whose columns are vectors[v]."""
    return tuple([[u[i] for u in vs] for i in range(d)] for vs, d in zip(vectors, dims))


class _VarLayout:
    """Flat coordinates for a family of per-(degree, vertex) matrices."""

    def __init__(self, blocks):
        self.index = {}  # (degree, vertex) -> (offset, rows, cols), empty ones too
        self.blocks = []  # (degree, vertex, rows, cols, offset) holding unknowns
        offset = 0
        for degree, vertex, rows, cols in blocks:
            self.index[(degree, vertex)] = (offset, rows, cols)
            if rows and cols:
                self.blocks.append((degree, vertex, rows, cols, offset))
                offset += rows * cols
        self.size = offset

    def slot(self, degree, vertex):
        """(offset, rows, cols) of a block that holds unknowns, else None."""
        slot = self.index.get((degree, vertex))
        return slot if slot is not None and slot[1] and slot[2] else None

    def matrices(self, vec) -> dict:
        """{degree: per-vertex matrices}, empty blocks included."""
        out = {}
        for (degree, _), (offset, rows, cols) in self.index.items():
            block = [vec[offset + i * cols : offset + (i + 1) * cols] for i in range(rows)]
            out.setdefault(degree, []).append(block)
        return {degree: tuple(mats) for degree, mats in out.items()}


def _morphism_constraints(ctx: "RepContext", layout: _VarLayout, pairs) -> list:
    """Rows forcing each layout block to be a morphism of representations.

    pairs: degree -> (source Rep, target Rep).
    """
    rows = []
    for degree, (src, dst) in pairs.items():
        for idx, (s, t) in enumerate(ctx.quiver.arrows):
            rows += linalg.intertwining_rows(
                layout.size,
                layout.slot(degree, t),
                src.mats[idx],
                dst.mats[idx],
                layout.slot(degree, s),
                ctx.q,
            )
    return rows


@dataclass(frozen=True, eq=False)
class IsoClass:
    """Isomorphism class: canonical multiset of indecomposable labels.

    A context interns one object per key, so classes compare by identity.
    """

    key: tuple  # ((indec_id, multiplicity), ...) in display order
    name: str
    dims: tuple

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return not self.key

    def sort_key(self):
        return (self.total_dim, self.name)

    def __repr__(self):
        return self.name


@dataclass
class _Indec:
    id: int
    name: str
    dims: tuple
    rep: Rep


class _Cell:
    """Orbit decomposition of all representations with one dim vector."""

    __slots__ = ("dims", "shapes", "pows", "orbit_of", "first_code", "classes")

    def __init__(self, dims, shapes, pows):
        self.dims = dims
        self.shapes = shapes  # per-arrow (rows, cols)
        self.pows = pows  # base-q place values (ints), one per matrix entry
        self.orbit_of = None  # code -> orbit id
        self.first_code = None  # orbit id -> smallest code
        self.classes = None  # orbit id -> IsoClass

    def encode(self, flat: list) -> int:
        """Base-q code of the matrix entries (ints in 0..q-1), arrow by arrow
        and row by row."""
        if len(flat) != len(self.pows):
            raise InvariantError(
                f"{len(flat)} matrix entries for cell {self.dims}, "
                f"which has {len(self.pows)}"
            )
        return sum(map(mul, flat, self.pows))

    def orbit(self, mats, q: int) -> int:
        """Orbit id of the representation with these matrices (int rows)."""
        flat = [x % q for m in mats for row in m for x in row]
        return int(self.orbit_of[self.encode(flat)])

    def decode(self, code: int, q: int):
        digits = [code // p % q for p in self.pows]
        mats = []
        pos = 0
        for rows, cols in self.shapes:
            mats.append([digits[pos + i * cols : pos + (i + 1) * cols] for i in range(rows)])
            pos += rows * cols
        return tuple(mats)


@lru_cache(maxsize=None)
def _primitive_root(q: int) -> int:
    if q == 2:
        return 1
    for g in range(2, q):
        seen, x = set(), 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise UsageError(f"no primitive root mod {q}")


def _residue_degree(aut: int, q: int) -> int:
    """d with aut = q^a (q^d - 1): the residue field of a local End is F_{q^d}."""
    while aut % q == 0:
        aut //= q
    d = 1
    while q**d <= aut:
        d += 1
    if q**d != aut + 1:
        raise InvariantError(f"{aut} units is not q^a (q^d - 1) for q={q}")
    return d


class RepContext:
    """All per-(quiver, q) state: class registry, Hom/Ext tables, caches.

    Immutable from the caller's point of view; internal caches only grow.
    """

    def __init__(
        self,
        quiver: Quiver,
        q: int,
        *,
        max_cell_reps: int = 2_000_000,
        max_classes: int = 50_000,
        max_brute_force: int = 2_000_000,
    ):
        if not is_prime(q):
            raise UsageError(f"q must be prime, got {q}")
        self.quiver = quiver
        self.q = q
        self.max_cell_reps = max_cell_reps
        self.max_classes = max_classes
        self.max_brute_force = max_brute_force
        self._cells: dict = {}
        self._classes: dict = {}
        self._indecs: list = []
        self._indec_by_name: dict = {}
        self._rep_cache: dict = {}  # M -> its representative Rep
        self._hom_cache: dict = {}  # (M, N) -> dim Hom(M, N)
        self._aut_cache: dict = {}  # M -> |Aut M|
        self._upto_cache: dict = {}  # bound -> sorted tuple of classes
        self._sub_tables: dict = {}  # (L, dims) -> {(U, L/U): count}
        self.zero_class = self._intern(())

    # -- class registry ---------------------------------------------------

    def _intern(self, key: tuple) -> IsoClass:
        cls = self._classes.get(key)
        if cls is None:
            dims = [0] * self.quiver.n
            for iid, mult in key:
                for v, d in enumerate(self._indecs[iid].dims):
                    dims[v] += mult * d
            name = (
                "+".join(
                    self._indecs[iid].name
                    for iid, mult in key
                    for _ in range(mult)
                )
                or "0"
            )
            cls = IsoClass(key, name, tuple(dims))
            self._classes[key] = cls
            if len(self._classes) > self.max_classes:
                raise ResourceLimitError(
                    f"isomorphism-class registry exceeded {self.max_classes}"
                )
        return cls

    def _sorted_key(self, pairs) -> tuple:
        merged: dict = {}
        for iid, mult in pairs:
            merged[iid] = merged.get(iid, 0) + mult
        order = lambda item: (
            sum(self._indecs[item[0]].dims),
            self._indecs[item[0]].name,
        )
        return tuple(sorted(merged.items(), key=order))

    def _check_class(self, cls, where: str) -> None:
        """UsageError unless cls is a class this context interned."""
        if not isinstance(cls, IsoClass):
            raise UsageError(f"expected an IsoClass {where}")
        if self._classes.get(cls.key) is not cls:
            raise UsageError(f"class {cls.name} {where} belongs to another context")

    def direct_sum_class(self, a: IsoClass, b: IsoClass) -> IsoClass:
        return self._intern(self._sorted_key(a.key + b.key))

    # -- cell enumeration ---------------------------------------------------

    def _cell(self, dims: tuple) -> _Cell:
        dims = tuple(int(d) for d in dims)
        cell = self._cells.get(dims)
        if cell is not None:
            return cell
        for sub in self._subvectors(dims):
            if sub != dims:
                self._cell(sub)
        cell = self._build_cell(dims)
        self._cells[dims] = cell
        return cell

    @staticmethod
    def _subvectors(dims):
        return product(*(range(d + 1) for d in dims))

    def _build_cell(self, dims: tuple) -> _Cell:
        q = self.quiver
        shapes = [(dims[t], dims[s]) for s, t in q.arrows]
        n_entries = sum(r * c for r, c in shapes)
        n_reps = self.q**n_entries
        if n_reps > min(self.max_cell_reps, 2**60):  # 2^60 guards int64 codes
            raise ResourceLimitError(
                f"cell {dims} has {n_reps} representations "
                f"(cap {self.max_cell_reps}); lower the bound or raise the cap"
            )
        pows = tuple(self.q**i for i in range(n_entries))
        cell = _Cell(dims, shapes, pows)
        label = self._orbit_minima(cell, n_reps)
        first = np.flatnonzero(label == np.arange(n_reps))
        cell.orbit_of = np.searchsorted(first, label).astype(label.dtype)
        cell.first_code = first_code = first.tolist()
        cell.classes = [None] * len(first_code) if any(dims) else [self.zero_class]

        # orbits of direct sums of strictly smaller classes are decomposable
        seen = set()
        for e in self._subvectors(dims):
            if all(x == 0 for x in e) or e == dims:
                continue
            f = tuple(a - b for a, b in zip(dims, e))
            for c1 in self._cells[e].classes:
                for c2 in self._cells[f].classes:
                    key = self._sorted_key(c1.key + c2.key)
                    if key in seen:
                        continue
                    seen.add(key)
                    rep = direct_sum_reps(
                        q, self.representative(c1), self.representative(c2)
                    )
                    oid = cell.orbit(rep.mats, self.q)
                    cls = self._intern(key)
                    if cell.classes[oid] not in (None, cls):
                        raise InvariantError(
                            f"orbit {oid} in cell {dims} matched two classes"
                        )
                    cell.classes[oid] = cls

        # whatever is left is a new indecomposable
        for oid, cls in enumerate(cell.classes):
            if cls is not None:
                continue
            rep = Rep(dims, cell.decode(first_code[oid], self.q))
            iid = len(self._indecs)
            name = self._indec_name(dims, cell, oid)
            self._indecs.append(_Indec(iid, name, dims, rep))
            self._indec_by_name[name] = iid
            cell.classes[oid] = self._intern(((iid, 1),))
        return cell

    def _orbit_minima(self, cell: _Cell, n_reps: int) -> np.ndarray:
        """Smallest code in each code's orbit: labels only fall and stay in their
        orbit, and at the fixed point they are constant on each generator's cycles.
        Each sweep rebuilds the permutations one at a time, so memory stays a
        few arrays of n_reps codes plus one small int per matrix entry and code."""
        q = self.q
        codes = np.arange(n_reps, dtype=np.int32 if n_reps <= 2**31 else np.int64)
        small = np.min_scalar_type(-2 * q)  # holds a sum or difference of digits
        digits = [(codes // p % q).astype(small) for p in cell.pows]
        label = codes.copy()
        while True:
            before = label.copy()
            for perm in self._generator_perms(cell, codes, digits, small):
                np.minimum(label, label[perm], out=label)
            label = label[label]
            if np.array_equal(label, before):
                return label

    def _generator_perms(self, cell: _Cell, codes: np.ndarray, digits, small):
        """Per vertex v, the transvections 1 + E_ij and (q > 2) the scaling of
        basis vector 0 by a primitive root, as permutations of all codes, given
        each code's base-q digits.  g acts by m -> g m on arrows into v (row
        i += row j, or row 0 times the root) and by m -> m g^-1 on arrows out
        of v (column j -= column i, or column 0 over the root)."""
        q = self.q
        root = _primitive_root(q)
        up = (np.arange(q) * root % q).astype(small)
        down = (np.arange(q) * pow(root, q - 2, q) % q).astype(small)

        def perm(changes):  # codes with digit p replaced by new, per (p, new)
            out = codes.copy()
            for p, new in changes:
                out += (new - digits[p]).astype(codes.dtype) * cell.pows[p]
            return out

        offsets = accumulate((r * c for r, c in cell.shapes), initial=0)
        arrows = list(zip(self.quiver.arrows, cell.shapes, offsets))
        for v, d in enumerate(cell.dims):
            into = [(o, c) for (_, t), (_, c), o in arrows if t == v]
            out_of = [(o, r, c) for (s, _), (r, c), o in arrows if s == v]
            # positions of row i of the matrices into v, column i of those out of v
            row = [[o + i * c + k for o, c in into for k in range(c)] for i in range(d)]
            col = [[o + k * c + i for o, r, c in out_of for k in range(r)]
                   for i in range(d)]
            if not (row and (row[0] or col[0])):
                continue
            for i, j in permutations(range(d), 2):
                add = [(p, (digits[p] + digits[r]) % q) for p, r in zip(row[i], row[j])]
                sub = [(p, (digits[p] - digits[r]) % q) for p, r in zip(col[j], col[i])]
                yield perm(add + sub)
            if q > 2:
                scale = [(p, up[digits[p]]) for p in row[0]]
                yield perm(scale + [(p, down[digits[p]]) for p in col[0]])

    # -- classification and enumeration ------------------------------------

    def classify_rep(self, rep: Rep) -> IsoClass:
        """Class of `rep`, whose matrices are lists of int rows; entries need
        not be reduced mod q."""
        cell = self._cell(rep.dims)
        return cell.classes[cell.orbit(rep.mats, self.q)]

    def representative(self, cls: IsoClass) -> Rep:
        rep = self._rep_cache.get(cls)
        if rep is None:
            self._check_class(cls, "to represent")
            rep = make_rep(self.quiver, self.q, [0] * self.quiver.n)
            for iid, mult in cls.key:
                for _ in range(mult):
                    rep = direct_sum_reps(self.quiver, rep, self._indecs[iid].rep)
            self._rep_cache[cls] = rep
        return rep

    def iso_classes_with_dims(self, dims) -> list:
        """Classes with exactly this dimension vector, deterministically ordered."""
        return sorted(set(self._cell(tuple(dims)).classes), key=IsoClass.sort_key)

    def iso_classes_upto(self, bound) -> tuple:
        """All classes with dim vector <= bound, sorted; one cached tuple per bound."""
        if type(bound) is tuple and (classes := self._upto_cache.get(bound)) is not None:
            return classes  # a bound seen before needs no validation
        bound = tuple(int(b) for b in bound)
        if len(bound) != self.quiver.n or any(b < 0 for b in bound):
            raise UsageError(f"bad bound {bound}")
        classes = self._upto_cache.get(bound)
        if classes is None:
            out = set()
            for dims in self._subvectors(bound):
                out.update(self._cell(dims).classes)
            classes = self._upto_cache[bound] = tuple(sorted(out, key=IsoClass.sort_key))
        return classes

    # -- named constructions -------------------------------------------------

    def simple_rep(self, v: int) -> Rep:
        dims = [0] * self.quiver.n
        dims[v] = 1
        return make_rep(self.quiver, self.q, dims)

    def projective_rep(self, v: int) -> Rep:
        """Paths out of v span the projective cover of the simple at v."""
        return self._path_rep(self.quiver.paths_from(v), lambda p, a: p + (a,))

    def injective_rep(self, v: int) -> Rep:
        """Paths into v; arrow a acts by stripping a leading a."""
        n, paths_from = self.quiver.n, self.quiver.paths_from
        paths = [(w, p) for w in range(n) for end, p in paths_from(w) if end == v]
        return self._path_rep(paths, lambda p, a: p[1:] if p and p[0] == a else None)

    def _path_rep(self, paths, act) -> Rep:
        """Basis: the (vertex, path) pairs; arrow a sends path p to act(p, a),
        or to 0 where that is None."""
        by_vertex = [[p for w, p in paths if w == u] for u in range(self.quiver.n)]
        mats = []
        for idx, (s, t) in enumerate(self.quiver.arrows):
            m = [[0] * len(by_vertex[s]) for _ in by_vertex[t]]
            for col, p in enumerate(by_vertex[s]):
                if (image := act(p, idx)) is not None:
                    m[by_vertex[t].index(image)][col] = 1
            mats.append(m)
        return Rep(tuple(map(len, by_vertex)), tuple(mats))

    def _indec_name(self, dims, cell: _Cell, oid: int) -> str:
        n = self.quiver.n
        for v in range(n):
            if dims == tuple(int(v == w) for w in range(n)):
                return f"S{v + 1}"
        for builder, prefix in ((self.projective_rep, "P"), (self.injective_rep, "I")):
            for v in range(n):
                rep = builder(v)
                if rep.dims != dims:
                    continue
                if cell.orbit(rep.mats, self.q) == oid:
                    name = f"{prefix}{v + 1}"
                    if name not in self._indec_by_name:
                        return name
        base = "X" + "x".join(str(d) for d in dims)
        k = 0
        while f"{base}n{k}" in self._indec_by_name:
            k += 1
        return f"{base}n{k}"

    def class_by_name(self, text: str) -> IsoClass:
        """The class of a literal 'classes', such as 'S1+P1' or '0'."""
        pairs = []
        for name in literal.parse(text, "classes"):
            iid = self._indec_by_name.get(name)
            if iid is None:
                iid = self._find_named_indec(name)
            pairs.append((iid, 1))
        return self._intern(self._sorted_key(pairs))

    def _find_named_indec(self, name: str) -> int:
        m = re.match(r"^([SPI])(\d+)$", name)
        if m:
            v = int(m.group(2)) - 1
            if not 0 <= v < self.quiver.n:
                raise ParseError(f"vertex out of range in {name!r}")
            builder = {
                "S": self.simple_rep,
                "P": self.projective_rep,
                "I": self.injective_rep,
            }[m.group(1)]
            cls = self.classify_rep(builder(v))
            if len(cls.key) != 1 or cls.key[0][1] != 1:
                raise ParseError(f"{name!r} is not indecomposable here")
            return cls.key[0][0]
        m = re.match(r"^X([\dx]+)n\d+$", name)
        if m:
            dims = tuple(int(d) for d in m.group(1).split("x"))
            if len(dims) == self.quiver.n:
                self._cell(dims)
                iid = self._indec_by_name.get(name)
                if iid is not None:
                    return iid
        raise ParseError(f"unknown indecomposable label {name!r}")

    # -- Euler forms -----------------------------------------------------------

    def sym_t_units(self, a_dbl, b_dbl) -> int:
        """(a/2, b/2) in quarter units, symmetrized Euler form."""
        return self.quiver.euler(a_dbl, b_dbl) + self.quiver.euler(b_dbl, a_dbl)

    # -- Hom, Ext, Aut ---------------------------------------------------------

    def _hom_system(self, repM: Rep, repN: Rep):
        """Layout of the unknowns phi_v: M_v -> N_v and the rows of the matrix
        whose kernel is Hom(M, N)."""
        layout = _VarLayout(
            (0, v, repN.dims[v], repM.dims[v]) for v in range(self.quiver.n)
        )
        return layout, _morphism_constraints(self, layout, {0: (repM, repN)})

    def hom_dim(self, M: IsoClass, N: IsoClass) -> int:
        key = (M, N)
        h = self._hom_cache.get(key)
        if h is None:
            layout, rows = self._hom_system(self.representative(M), self.representative(N))
            h = layout.size - linalg.rank(rows, self.q)
            self._hom_cache[key] = h
        return h

    def ext_dim(self, M: IsoClass, N: IsoClass) -> int:
        e = self.hom_dim(M, N) - self.quiver.euler(M.dims, N.dims)
        if e < 0:
            raise InvariantError(
                f"dim Ext^1({M.name}, {N.name}) = {e} is negative: "
                f"Hom and the Euler form disagree"
            )
        return e

    def hom_basis(self, repM: Rep, repN: Rep) -> list:
        """Basis of Hom(M, N) as tuples of per-vertex matrices."""
        layout, rows = self._hom_system(repM, repN)
        return [layout.matrices(vec)[0] for vec in linalg.kernel(rows, layout.size, self.q)]

    def _invertible_maps(self, basis, dims, space: str):
        """Coefficient vectors of the invertible maps in span(basis).

        Brute force over F_q^{len(basis)}; dims is the common dimension
        vector of source and target, space names the span in the cap error.
        """
        h, q = len(basis), self.q
        if q**h > self.max_brute_force:
            raise ResourceLimitError(f"{space} space too large to enumerate ({h} dims)")
        for coeffs in product(range(q), repeat=h):
            ok = True
            for v, d in enumerate(dims):
                if d == 0:
                    continue
                terms = [(c, basis[k][v]) for k, c in enumerate(coeffs) if c]
                phi = [
                    [sum(c * m[i][j] for c, m in terms) % q for j in range(d)]
                    for i in range(d)
                ]
                if not linalg.is_invertible(phi, q):
                    ok = False
                    break
            if ok:
                yield coeffs

    def aut_count(self, M: IsoClass) -> int:
        """|Aut M|, enumerated for 0 and indecomposables.  For M = sum_i X_i^{m_i}
        with End X_i / rad = F_{q^{d_i}} (Schiffmann, arXiv:math/0611617),
        |Aut M| = q^{dim End M - sum_i d_i m_i (m_i + 1) / 2}
                  * prod_i prod_{k=1..m_i} (q^{d_i k} - 1)."""
        count = self._aut_cache.get(M)
        if count is not None:
            return count
        self._check_class(M, "as M")
        if sum(mult for _, mult in M.key) <= 1:
            count = self._enumerated_aut_count(M)
        else:
            q = self.q
            degrees = [
                (_residue_degree(self.aut_count(self._intern(((iid, 1),))), q), mult)
                for iid, mult in M.key
            ]
            # dim End M comes after the summands' counts: a tracer that reads
            # the last hom_basis per aut_count miss then sees this one
            rep = self.representative(M)
            e = len(self.hom_basis(rep, rep))
            count = q ** (e - sum(d * m * (m + 1) // 2 for d, m in degrees)) * prod(
                q ** (d * k) - 1 for d, m in degrees for k in range(1, m + 1)
            )
        self._aut_cache[M] = count
        return count

    def _enumerated_aut_count(self, M: IsoClass) -> int:
        """|Aut M| by enumerating End M (the oracle for the closed form)."""
        rep = self.representative(M)
        basis = self.hom_basis(rep, rep)
        return sum(1 for _ in self._invertible_maps(basis, rep.dims, "End"))

    # -- submodules and submodule Hall numbers ----------------------------------

    def submodule_hall_number(self, L: IsoClass, M: IsoClass, N: IsoClass) -> int:
        """Number of subrepresentations U of L with U = N and L/U = M: one
        entry of `submodule_table(L, dim N)`."""
        for cls, where in ((L, "as L"), (M, "as M"), (N, "as N")):
            self._check_class(cls, where)
        if tuple(m + n for m, n in zip(M.dims, N.dims)) != L.dims:
            return 0
        return self.submodule_table(L, N.dims).get((N, M), 0)

    def submodule_table(self, L: IsoClass, dims) -> dict:
        """{(U, L/U): n}, n the number of subrepresentations of L with
        dimension vector dims in the class U with quotient class L/U.

        Brute force over the subspace tuples with those dims, under the
        max_brute_force cap; cached per (L, dims), so callers must not
        mutate it."""
        self._check_class(L, "as L")
        dims = tuple(int(d) for d in dims)
        table = self._sub_tables.get((L, dims))
        if table is not None:
            return table
        if len(dims) != self.quiver.n or any(d < 0 for d in dims):
            raise UsageError(f"bad submodule dimension vector {dims}")
        repL = self.representative(L)
        q = self.q
        per_vertex = []
        total = 1
        for v in range(self.quiver.n):
            subs = list(linalg.subspaces(repL.dims[v], dims[v], q))
            total *= len(subs)
            per_vertex.append(subs)
        if total > self.max_brute_force:
            raise ResourceLimitError(
                f"{total} subspace tuples to scan (cap {self.max_brute_force})"
            )
        table = {}
        for rows in product(*per_vertex):
            sub = self._subrep(repL, rows)
            if sub is None:
                continue
            key = (self.classify_rep(sub), self.classify_rep(self._quotient_rep(repL, rows)))
            table[key] = table.get(key, 0) + 1
        self._sub_tables[(L, dims)] = table
        return table

    def _subrep(self, repL: Rep, rows):
        """Restriction to span(rows) per vertex, or None if not arrow-closed."""
        q = self.q
        span = _columns(rows, repL.dims)
        mats = []
        for idx, (s, t) in enumerate(self.quiver.arrows):
            image = linalg.mul_t(repL.mats[idx], rows[s], q)
            z = linalg.solve(span[t], image, len(rows[t]), q)
            if z is None:
                return None
            mats.append(z)
        return Rep(tuple(map(len, rows)), tuple(mats))

    def _quotient_rep(self, repL: Rep, rows):
        """L / span(rows): the homology of the inclusion span(rows) -> L."""
        return self._homology(repL, _columns(rows, repL.dims), None)

    def _homology(self, term: Rep, d_in, d_out) -> Rep:
        """ker(d_out)/im(d_in) at one term; each d is per-vertex or None (zero)."""
        q = self.q
        comps = [[]] * len(term.dims)  # per vertex: kernel vectors completing im to ker
        bases = [None] * len(term.dims)  # per vertex: rows of the matrix [im | comp]
        for v, d in enumerate(term.dims):
            if d == 0:
                continue
            ker = linalg.kernel(d_out[v] if d_out is not None else [], d, q)
            image = [[]] * d  # pivot columns of d_in: a basis of its image
            if d_in is not None and d_in[v][0]:
                cols = linalg.rref(d_in[v], q)[1]
                image = [[row[j] % q for j in cols] for row in d_in[v]]
            ri = len(image[0])
            # the pivot columns of [image | ker] past the image complete it to ker
            both = [row + [k[i] for k in ker] for i, row in enumerate(image)]
            comps[v] = comp = [ker[j - ri] for j in linalg.rref(both, q)[1][ri:]]
            bases[v] = [row + [c[i] for c in comp] for i, row in enumerate(image)]
        dims = tuple(len(c) for c in comps)
        mats = []
        for idx, (s, t) in enumerate(self.quiver.arrows):
            if dims[s] == 0 or dims[t] == 0:
                mats.append([[0] * dims[s] for _ in range(dims[t])])
                continue
            vecs = linalg.mul_t(term.mats[idx], comps[s], q)
            coords = linalg.solve(bases[t], vecs, len(bases[t][0]), q)
            if coords is None:
                raise InvariantError(
                    f"homology arrow {s + 1}->{t + 1} maps out of the kernel"
                )
            mats.append(coords[-dims[t] :])  # the part past the image
        return Rep(dims, tuple(mats))
