"""Free algebras of finitely generated varieties, with term recovery.

``F_V(g)`` for ``V`` the variety generated by a finite algebra ``A`` is
realized as the subalgebra of ``A^(A^g)`` generated by the g projection
vectors.  The breadth-first closure stores element vectors bit-plane packed
and word-major: one contiguous vector per (plane, word) across all
elements, so gathering arguments, every step of an operation program and
the fingerprint fold each run over contiguous memory however wide a row
is.  A plane of c <= 64 coordinates is one word of the smallest unsigned
dtype that holds c bits (uint8, uint16, uint32 or uint64); wider planes are
several uint64 words.  Each operation table is compiled once per build
into a straight-line program of bitwise steps over the argument planes (a
reduced Shannon decision diagram per output plane), which keeps the pair
loop off the table-lookup path.

Candidates are made and deduplicated in chunks of about ``2**16 // width``
rows, width being the count of uint64 words a row would take, so a chunk's
temporaries stay in cache.  No chunk gathers its
arguments candidate by candidate: the program runs on a broadcast of
argument blocks.  Without symmetry, a chunk holds whole runs of the last
argument position, or one piece of a run too long for a chunk; the outer
positions are gathered once per run and the last is a slice of the element
rows.  A symmetric binary table takes the unordered pairs (x, y <= x) in
whole rows x: the chunk's x against every y up to its last x, two slices,
and one take cuts out the lower triangle.  A totally symmetric table of
higher arity gives one row for every order of a tuple, so it takes one
tuple per argument multiset, the one that comes first in the order without
symmetry, which has the least frontier element f of the multiset on
position 0 and the others non-decreasing over the elements before the
frontier and from f on.  Those tuples keep the order they have among all
tuples, and the first occurrence of every row is one of them.  A chunk is
consecutive f against the gathered tails of its first f, one take picking
the tails that hold no frontier element before f, or a piece of one f's
tails.  A new element's witness arguments are recovered from its position
in the chunk.

A row that is one uint8 or uint16 word indexes a dense table of the known
elements (2**8 or 2**16 entries), so a chunk's new rows are its table
misses, deduplicated among themselves.  Any other row has one 64-bit key:
the row itself when it is one word with room left for a chunk position, a
fingerprint otherwise.  Each chunk of candidates is sorted once by key, and
only its distinct keys are probed in the key index of the known elements.
The index has two sorted levels: new keys go into a small side index, which
is merged into the main one once it passes a fixed share of its size, so no
chunk copies the whole index.  Fingerprint matches are confirmed on the
rows, and a chunk with a collision is deduplicated on its rows' bytes
instead (``np.isin`` against the known rows, each row one ``np.void``
scalar), so element identity is exact.  The seeds take the same path: the
projections are appended as one block, and each constant only when it is
new.

Elements appear in the order of first occurrence in the global candidate
sequence, so neither they nor their witnesses depend on the chunk size, and
neither do refusals.  The work budget is checked once per closure level, at
its boundary; it charges every argument tuple of a totally symmetric table
of arity 3 or more, so no refusal depends on the multisets.  The entries
cap refuses with ``elements_reached`` the first element count that does not
fit, ``cap_entries // coordinates + 1``, either when an append overflows or
already at a level's boundary: a level with many more candidates than the
cap has room for first samples a small share of them, and refuses when more
of the sample's distinct keys than that room are missing from the index.
Each is a row the level adds (a fingerprint collision only hides one), so
the canonical order overflows in the same level; the sample decides only
whether the refusal comes now or later.

A big level then counts its new elements N exactly before it runs.
Permuting the variables acts on F(g) by automorphisms: it permutes the
coordinates of A^g, operations act coordinate-wise, and the projections go
to projections.  So the seeds, each level's frontier, the known elements K
and N are unions of orbits, and N is the orbits of the candidates with one
argument on an orbit representative of the frontier and the others on K,
less K.  The adjacent transpositions generate every permutation, so the
count closes those candidates under them, moving a packed plane's bits
through one table per byte position.  The level runs in the canonical
order and stops right after the append that reaches K + N elements; a
counted level that adds nothing, the last of a build, is not run, and one
that would pass the cap is refused at its boundary.  A level is counted only
when the count's cost in rows is at most ``_COUNT_SHARE`` of its
applications, and its elements, witnesses and refusal are those of the
level run to its end.

The count keeps N's rows, so a counted level checks against the known
elements only the candidates that may be in N.  A counting filter (Fan et
al., *Summary cache*, 2000) holds, per bucket of a row's key, how many rows
of N fall in it and are not appended yet.  Every candidate of the level is
in K or N, so one whose bucket counts none is in K; the others go through
the key index as before, and the rows an append adds leave their buckets.
Colliding keys or buckets only let rows of K through, which the index
drops, so no element, witness or refusal changes.  Rows of the dense table
are looked up cheaper than they are hashed and take no filter.

A counted level also stops when one row of N is left.  The chunks up to the
last append were checked whole, so that row first occurs in a later chunk
and is the level's last element: it is appended at once, and a level that
counts one new row runs no chunk at all.  Its witness is deferred:
:meth:`FreeAlgebra.term_of` resumes the level's enumeration at the chunk
after the stop and takes the first candidate equal to the row, which is the
witness the level run to its end gives.  A built algebra keeps for this the
packed rows and the operation programs, without the key index.

A walk-only build (``ordered=False``) appends a counted level's new rows at
once, in the count's order, and runs none of its chunks: no filter, no stop
row, no deferred witness.  Its levels' element sets are those of the
ordered build, since each level adds the candidates of the same frontier
and known sets that are not known, so every uncounted level, count, sample,
refusal and work-budget check is the ordered build's; only the elements'
names differ.  A saturation walk reads only which elements and which
kernel classes there are, and its layers are unions of classes, so every
walk answer is the same on either build.  The witnesses are not those of
the canonical order, and :meth:`FreeAlgebra.term_of` refuses to give them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraError, FiniteAlgebra

DEFAULT_CAP_ENTRIES = 10_000_000
# work units: operation applications x value-combination count x packed width.
# The applications are every argument tuple with one on the frontier,
# however few of them a symmetric table's level runs, so refusals do not
# depend on the enumeration
DEFAULT_WORK_BUDGET = 8_000_000_000
# candidate rows per chunk, times the uint64 words of a row: 512 KB of uint64
# rows, and a half to an eighth of that for rows of one narrower word (chunks
# of 512 KB of uint8 rows were no faster on small algebras' builds)
_CHUNK_WORDS = 1 << 16
# the side index of new keys is merged into the main one once it passes this
# share of the main one's size, so merges copy O(n) keys in all and each
# chunk inserts into a small array
_SIDE_SHARE = 1 / 8
# a closure level whose candidates are more than 1 / _SAMPLE_SHARE times the
# elements the entries cap has room for samples this share of them and
# counts the sample's new keys, to prove that it overflows.  The corpus
# reports' levels and those of term searches on random small algebras
# measured at most 166 times their room, except F(lattice2, 6)'s refused
# one, 12,367 times; a sample that proves nothing costs at most this share
_SAMPLE_SHARE = 1 / 512
# a closure level counts its new elements first when the count's rows are at
# most this share of the level's applications.  F(lattice2, 5) counts its
# last two big levels at 1 / 4 and 1 / 2 (0.23-0.33 s) and only the last at
# 1 / 8 (0.59-0.67 s); F(chain3, 5) counts the same levels at all three.
# The term searches on random small algebras count no level at 1 / 4 and
# eight at 1 / 2, for no measured gain, and the worst level measured on
# random 2- and 3-element algebras spent 23 % of its applications on a
# count that saved 5 %
_COUNT_SHARE = 1 / 4
# the witness operation of a counted level's last element until it is found,
# and of every counted element of a walk-only build
_DEFERRED = -2


class CapExceeded(RuntimeError):
    """A free-algebra build ran past its size cap or work budget."""

    def __init__(self, message: str, elements_reached: int = 0):
        super().__init__(message)
        self.elements_reached = elements_reached


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class App:
    op: str
    args: tuple


Term = Var | App


def term_str(t: Term) -> str:
    """Prefix notation: ``(join (meet x0 x1) x2)``."""
    if isinstance(t, Var):
        return f"x{t.index}"
    if not t.args:
        return f"({t.op})"
    return "(" + t.op + " " + " ".join(term_str(s) for s in t.args) + ")"


def parse_term(text: str) -> Term:
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def rec() -> Term:
        nonlocal pos
        if pos >= len(toks):
            raise ValueError("unexpected end of term")
        tok = toks[pos]
        pos += 1
        if tok == "(":
            if pos >= len(toks):
                raise ValueError("unexpected end of term")
            op = toks[pos]
            pos += 1
            args = []
            while pos < len(toks) and toks[pos] != ")":
                args.append(rec())
            if pos >= len(toks):
                raise ValueError("missing ')'")
            pos += 1
            return App(op, tuple(args))
        if tok == ")":
            raise ValueError("unexpected ')'")
        if not (tok.startswith("x") and tok[1:].isascii()
                and tok[1:].isdigit()):
            raise ValueError(f"bad variable token {tok!r}")
        return Var(int(tok[1:]))

    t = rec()
    if pos != len(toks):
        raise ValueError("trailing tokens after term")
    return t


def term_vars(t: Term) -> set[int]:
    if isinstance(t, Var):
        return {t.index}
    out: set[int] = set()
    for s in t.args:
        out |= term_vars(s)
    return out


def subst_vars(t: Term, mapping: dict[int, int]) -> Term:
    """Rename variables; unmapped indices are an error."""
    if isinstance(t, Var):
        if t.index not in mapping:
            raise AlgebraError(f"unmapped variable x{t.index}")
        return Var(mapping[t.index])
    return App(t.op, tuple(subst_vars(s, mapping) for s in t.args))


def eval_term(a: FiniteAlgebra, t: Term, assignment) -> int:
    """Evaluate a term at one assignment (tuple indexed by variable)."""
    if isinstance(t, Var):
        if t.index >= len(assignment):
            raise AlgebraError(f"unbound variable x{t.index}")
        v = assignment[t.index]
        if not 0 <= v < a.size:
            raise AlgebraError(f"assignment value {v} out of range")
        return int(v)
    return a.apply(t.op, tuple(eval_term(a, s, assignment) for s in t.args))


def eval_term_vector(a: FiniteAlgebra, t: Term, nvars: int,
                     var_map: dict[int, int] | None = None) -> np.ndarray:
    """Evaluate a term over the whole assignment grid A^nvars.

    Assignments are enumerated lexicographically with the last variable
    varying fastest; ``var_map`` renames term variables into grid variables.
    """
    _check_vector_size(a)
    count = a.size ** nvars
    idx = np.arange(count, dtype=np.int64)

    def rec(term: Term) -> np.ndarray:
        if isinstance(term, Var):
            j = term.index if var_map is None else var_map[term.index]
            if not 0 <= j < nvars:
                raise AlgebraError(f"unbound variable x{term.index}")
            return (idx // a.size ** (nvars - 1 - j)) % a.size
        arity = a.signature.arity(term.op)
        if arity != len(term.args):
            raise AlgebraError(f"arity mismatch for {term.op!r}")
        flat = np.zeros(count, dtype=np.int64)
        for s in term.args:
            flat = flat * a.size + rec(s)
        return a.tables[term.op][flat].astype(np.int64)

    return rec(t).astype(np.uint8)


def _check_vector_size(a: FiniteAlgebra) -> None:
    """Term and free-algebra vectors hold one uint8 per coordinate."""
    if a.size > 256:
        raise AlgebraError(
            f"vectors over {a.name!r} need {a.size} values; at most 256 "
            f"fit in uint8")


# ---------------------------------------------------------------------------
# Plane packing helpers
#
# Packed rows are word-major: an (n_planes * words, N) array whose row
# ``b * words + j`` holds word j of bit plane b of all N elements.


def _row_layout(c: int) -> tuple[np.dtype, int]:
    """(word dtype, words) of a plane of c coordinates: one word of the
    smallest unsigned dtype that holds c bits, or several uint64 words."""
    dtype = np.min_scalar_type((1 << min(c, 64)) - 1)
    return dtype, -(-c // (8 * dtype.itemsize))


def _pack_planes(vals: np.ndarray, n_planes: int) -> np.ndarray:
    """uint8 values (N, C) -> word-major planes (n_planes * words, N)."""
    n, c = vals.shape
    dtype, words = _row_layout(c)
    out = np.empty((n_planes * words, n), dtype=dtype)
    pad = words * 8 * dtype.itemsize - c
    for b in range(n_planes):
        plane = (vals >> b) & 1
        if pad:
            plane = np.pad(plane, ((0, 0), (0, pad)))
        packed = np.packbits(plane, axis=1, bitorder="little")
        out[b * words:(b + 1) * words] = packed.view(dtype).T
    return out


def _unpack_planes(rows: np.ndarray, n_planes: int, c: int) -> np.ndarray:
    n = rows.shape[1]
    words = rows.shape[0] // n_planes
    out = np.zeros((n, c), dtype=np.uint8)
    for b in range(n_planes):
        block = np.ascontiguousarray(rows[b * words:(b + 1) * words].T)
        bits = np.unpackbits(block.view(np.uint8), axis=1,
                             bitorder="little")[:, :c]
        out |= bits << b
    return out


def _fingerprint(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """64-bit hash of each packed row (column of ``rows``), folded word by
    word.

    A plain weighted sum of the words (mod 2**64) collides on rows that
    differ in the high bits of several words; the xorshift between multiplies
    breaks that linearity.  Rows differing in one word never collide.
    """
    # narrower rows widen into the uint64 accumulator, never by promotion
    # against a uint64 scalar, whose result type numpy < 2 took from its value
    h = rows[0].astype(np.uint64)
    h *= weights[0]
    for j in range(1, rows.shape[0]):
        h ^= h >> 29
        h += rows[j]
        h *= weights[j]
    return h


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """One ``np.void`` scalar per row of a 2-d array, holding the row's
    bytes: equal exactly when the rows are, and ordered by their bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))
                     ).ravel()


# ---------------------------------------------------------------------------
# The free algebra


class FreeAlgebra:
    """Built by :func:`build_free`.  Its elements never change; a witness
    that the build deferred is filled in on first use.  ``ordered`` is
    False for a walk-only build, whose elements are not in the canonical
    order and which gives no witness terms."""

    def __init__(self, base, g, vecs, generators, w_op, w_args,
                 resume=None, ordered=True):
        self.base = base
        self.g = g
        self.ordered = ordered
        self.tuple_count = base.size ** g
        self.vecs = vecs                     # (N, size**g) uint8
        self.vecs.setflags(write=False)
        self.generators = generators         # element index per generator
        # each element's witness: the signature index of its operation (-1
        # for a generator, _DEFERRED until found) and its argument elements
        self._w_op = w_op
        self._w_args = w_args
        # (rows-only builder, ops, {element: (old, total, chunks run)}) for
        # the levels whose last element's witness is deferred
        self._resume = resume
        self._terms: dict[int, Term] = {}

    @property
    def n_elements(self) -> int:
        return self.vecs.shape[0]

    def term_of(self, e: int) -> Term:
        """The first-discovered witness term of an element."""
        if not self.ordered:
            raise AlgebraError("a walk-only free algebra has no witness "
                               "terms; build it ordered")
        if not 0 <= e < self.n_elements:
            raise AlgebraError(f"element index {e} out of range")
        if e in self._terms:
            return self._terms[e]
        op, args = self._witness(e)
        if op < 0:
            t: Term = Var(int(args[0]))
        else:
            name, arity = self.base.signature.ops[op]
            t = App(name, tuple(self.term_of(int(x)) for x in args[:arity]))
        self._terms[e] = t
        return t

    def _witness(self, e: int) -> tuple[int, np.ndarray]:
        """The witness operation and argument elements of element e, found
        first when the build deferred it."""
        if self._w_op[e] == _DEFERRED:
            builder, ops, levels = self._resume
            op, args = _first_occurrence(builder, ops, *levels[e],
                                         builder.rows[:, e:e + 1])
            self._w_op[e] = op
            self._w_args[e, :args.size] = args
        return int(self._w_op[e]), self._w_args[e]

    def gen_pair_congruence(self, pairs) -> np.ndarray:
        """Class labels of the congruence generated by generator pairs.

        Cg of pairs among free generators is the kernel of the substitution
        identifying those generators, so two elements are congruent exactly
        when their vectors agree on the assignments fixed by the merge.
        """
        mask = np.ones(self.tuple_count, dtype=bool)
        for i, j in pairs:
            if not (0 <= i < self.g and 0 <= j < self.g):
                raise AlgebraError(f"generator pair ({i}, {j}) out of range")
            # a generator's vector is its digit column of the assignments
            mask &= (self.vecs[self.generators[i]]
                     == self.vecs[self.generators[j]])
        # byte order is np.unique's axis=0 order on uint8 rows, without its
        # per-field sort
        _, labels = np.unique(_row_bytes(self.vecs[:, mask]),
                              return_inverse=True)
        return labels.astype(np.int64)


# ---------------------------------------------------------------------------
# The closure build


class _Builder:
    """Word-major packed element rows (one column per element) and an index
    of one key per row, as the module docstring describes: a dense table of
    which rows are elements for rows of one uint8 or uint16 word, else a
    sorted main index and a small side index of new keys.  A one-word
    row's key is the row or an invertible fingerprint of it, so key
    equality is row equality; a wider row's matches are confirmed on the
    rows themselves.

    ``width`` counts a row in uint64 words whatever its dtype, so chunk
    sizes and work units are those of uint64 rows.
    """

    def __init__(self, n_planes: int, c: int, cap_entries: int,
                 max_arity: int):
        self.n_planes = n_planes
        self.cap_entries = cap_entries
        self.c = c
        self.max_elements = cap_entries // c
        dtype, self.words = _row_layout(c)
        bits = 8 * dtype.itemsize
        self.width = n_planes * self.words
        self.chunk = max(1, _CHUNK_WORDS // self.width)
        # new_rows packs a position of max(1, (m - 1).bit_length()) bits
        # beside the row.  m is at most the chunk, or x + 1 <= 2 ** c for a
        # symmetric-pair chunk of one x; c is a power of 2, so it is at most
        # 32 when this holds, and then either position fits
        self.exact = (self.width == 1
                      and c + max(1, (self.chunk - 1).bit_length()) <= 64)
        # whether each possible row is an element; None for the sorted index
        self._dense = (np.zeros(1 << bits, dtype=bool)
                       if self.width == 1 and bits <= 16 else None)
        self.rows = np.empty((self.width, 256), dtype=dtype)
        rng = np.random.default_rng(0x5EED_0F0D)
        self.weights = (rng.integers(1, 2 ** 63, size=self.width,
                                     dtype=np.uint64) * 2 + 1)
        # padded tail bits of each plane's last word must stay zero after
        # every op; None when the planes have no padding
        tail = c % bits
        self.tail_mask = dtype.type((1 << tail) - 1) if tail else None
        self.n = 0
        # each index is (sorted keys, element per sorted key)
        self._main = self._side = _EMPTY_INDEX
        self.max_arity = max(max_arity, 1)
        self.w_op: list[np.ndarray] = []
        self.w_args: list[np.ndarray] = []

    def append(self, rows: np.ndarray, op: int, args: np.ndarray):
        """Add distinct new rows with their witness: ``op`` applied to the
        element indices in each row of ``args`` (-1 and the variable index
        for a generator)."""
        k = rows.shape[1]
        if self.n + k > self.max_elements:
            self.refuse()
        if self.n + k > self.rows.shape[1]:
            grown = np.empty((self.width,
                              max(self.n + k, 2 * self.rows.shape[1])),
                             dtype=self.rows.dtype)
            grown[:, :self.n] = self.rows[:, :self.n]
            self.rows = grown
        self.rows[:, self.n:self.n + k] = rows
        if self._dense is not None:
            self._dense[rows[0]] = True
        else:
            keys = self.keys(rows)
            order = np.argsort(keys, kind="stable")
            self._side = _merged(self._side, (keys[order], self.n + order))
            if self._side[0].size > _SIDE_SHARE * self._main[0].size:
                self._main = _merged(self._main, self._side)
                self._side = _EMPTY_INDEX
        self.n += k
        self.w_op.append(np.full(k, op, dtype=np.int64))
        padded = np.zeros((k, self.max_arity), dtype=np.int64)
        padded[:, :args.shape[1]] = args
        self.w_args.append(padded)

    def rows_only(self) -> _Builder:
        """This builder without its key index and witness lists, its rows
        trimmed to the elements: what :func:`_level_chunks` and
        :func:`_run_op` read to run a level again."""
        self.rows = self.rows[:, :self.n].copy()
        del self._main, self._side, self._dense, self.w_op, self.w_args
        return self

    def refuse(self):
        """Raise the entries cap's refusal: ``elements_reached`` is the first
        element count that does not fit."""
        first = self.max_elements + 1
        raise CapExceeded(
            f"free algebra exceeds {self.cap_entries} vector entries "
            f"({first} elements of {self.c} coordinates)", first)

    def new_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ascending positions of the first occurrence of each row that is
        not a known element.

        With the dense table, the rows it misses are deduplicated among
        themselves.  Otherwise one sort of (key, position) words groups the
        rows and puts each group's first position first; the groups' keys
        are then probed in the index.  Fingerprints give up their low bits
        to the position, so each group is checked to hold one row, and each
        probe hit of a wider row to be that row; a failed check sends the
        chunk to :meth:`_new_rows_exact`.
        """
        m = rows.shape[1]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        if self._dense is not None:
            miss = np.flatnonzero(~np.take(self._dense, rows[0]))
            _, first = np.unique(rows[0, miss], return_index=True)
            return miss[np.sort(first)]
        b = max(1, (m - 1).bit_length())
        low = np.uint64((1 << b) - 1)
        keys = self.keys(rows)
        # a fingerprint gives up its low bits to the position; an exact key,
        # the row widened to uint64, has them free and is shifted in place
        packed = keys if self.exact else keys >> b
        packed <<= b
        packed |= np.arange(m, dtype=np.uint64)
        packed.sort()
        groups = packed >> b
        opens = groups[1:] != groups[:-1]
        starts = np.flatnonzero(np.concatenate(([True], opens)))
        first = (packed[starts] & low).astype(np.int64)
        # distinct high bits, so the groups' full keys are sorted too
        hit, elem = self._lookup(groups[starts] if self.exact
                                 else keys[first])
        if self.width == 1 and not self.exact:
            # a one-word fingerprint is a bijection on rows, so a probe hit
            # is the row itself, and each group holds one row iff its full
            # keys change only where a group opens
            run = keys[(packed & low).astype(np.int64)]
            if not np.array_equal(run[1:] != run[:-1], opens):
                return self._new_rows_exact(rows)
        elif not self.exact:
            rep = np.empty(m, dtype=np.int64)
            rep[(packed & low).astype(np.int64)] = np.repeat(
                first, np.diff(starts, append=m))
            if not (np.array_equal(rows, np.take(rows, rep, axis=1))
                    and np.array_equal(np.take(rows, first[hit], axis=1),
                                       np.take(self.rows, elem[hit], axis=1))):
                return self._new_rows_exact(rows)
        return np.sort(first[~hit])

    def _new_rows_exact(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`new_rows` by comparing row bytes, for chunks whose keys
        collide."""
        cand = _row_bytes(rows.T)
        miss = np.flatnonzero(~np.isin(cand,
                                       _row_bytes(self.rows[:, :self.n].T)))
        _, first = np.unique(cand[miss], return_index=True)
        return miss[np.sort(first)]

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The element index of each row, every row being a known element.

        The dense table holds flags, so its rows are placed in a map of the
        elements made for the call; any other row is probed in the key
        index, and a wider row's hit is confirmed on the rows, falling back
        to their bytes when a fingerprint collides.
        """
        if self._dense is not None:
            where = np.empty(self._dense.size, dtype=np.int64)
            where[self.rows[0, :self.n]] = np.arange(self.n)
            return where[rows[0]]
        _, elem = self._lookup(self.keys(rows))
        if self.width > 1 and not np.array_equal(
                rows, np.take(self.rows, elem, axis=1)):
            known = _row_bytes(self.rows[:, :self.n].T)
            order = np.argsort(known)
            return order[np.searchsorted(known[order], _row_bytes(rows.T))]
        return elem

    def new_keys(self, rows: np.ndarray, seen: np.ndarray) -> np.ndarray:
        """Sorted distinct ``seen`` and the rows' keys that no element has."""
        keys = np.sort(self.keys(rows))
        keys = keys[~(self._dense[keys] if self._dense is not None
                      else self._lookup(keys)[0])]
        # both are sorted, so the stable sort is a merge of two runs
        keys = np.sort(np.concatenate((seen, keys)), kind="stable")
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return keys[first]

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """Each row's key: the row itself when exact, which every row of the
        dense table is, and its fingerprint otherwise."""
        return (rows[0].astype(np.uint64) if self.exact
                else _fingerprint(rows, self.weights))

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per key: whether either index holds it, and then an element with
        that key, from the main index where both do."""
        hit = np.zeros(keys.size, dtype=bool)
        elem = np.empty(keys.size, dtype=np.int64)
        for index, perm in (self._side, self._main):
            if index.size:
                at = np.searchsorted(index, keys)
                found = index[np.minimum(at, index.size - 1)] == keys
                elem[found] = perm[at[found]]
                hit |= found
        return hit, elem


_EMPTY_INDEX = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))


def _merged(index, new):
    """Sorted (keys, elements) of ``index`` with the sorted ``new`` merged in
    after equal keys."""
    at = np.searchsorted(index[0], new[0], side="right")
    return np.insert(index[0], at, new[0]), np.insert(index[1], at, new[1])


def _compile_op(table: np.ndarray, size: int, arity: int,
                n_planes: int) -> tuple[list, list]:
    """One operation table as a straight-line program over bit planes.

    The variables are the argument planes: register ``i * n_planes + b``
    holds bit b of argument i.  Each output plane is a reduced Shannon
    decision diagram over them (Bryant, IEEE TC 1986), tested argument by
    argument and high bit first, built bottom-up from the table with
    subfunctions shared across planes.  Codes >= ``size`` occur in no
    element, so a branch that only they reach is a don't-care and the test
    above it is dropped.  A node ``x ? hi : lo`` with a constant child is one
    AND, OR or AND with the complemented variable; any other is
    ``lo ^ (x & (lo ^ hi))``.

    Returns ``(steps, fills, n_slots)``.  Each step ``(ufunc, a, b, slot)``
    appends a register computed from registers a and b (b is None for a
    NOT) into buffer ``slot``.  Buffers 0 .. n_planes - 1 are the output
    planes: a step register that is the root of a plane is written there
    directly.  A register's other buffer is reused once its last reader has
    run, so a program needs ``n_slots`` buffers however long it is.  Each
    fill ``(b, root)`` sets an output plane that no step writes, from a
    register or a constant bool.
    """
    dont_care = -1
    codes = 1 << n_planes
    lut = np.full((codes,) * arity, dont_care, dtype=np.int64)
    lut[(slice(0, size),) * arity] = table.reshape((size,) * arity)
    lut = lut.ravel()
    nodes: list[tuple[int, int, int]] = []   # (variable, lo, hi); id = 2 + i
    unique: dict[tuple[int, int, int], int] = {}

    def node(x, lo, hi):
        if lo == dont_care or lo == hi:
            return hi
        if hi == dont_care:
            return lo
        key = (x, lo, hi)
        if key not in unique:
            unique[key] = 2 + len(nodes)
            nodes.append(key)
        return unique[key]

    roots = []
    for b in range(n_planes):
        level = np.where(lut < 0, dont_care, (lut >> b) & 1).tolist()
        # the flat index has argument 0's high bit most significant
        for v in reversed(range(arity * n_planes)):
            x = (v // n_planes) * n_planes + n_planes - 1 - v % n_planes
            level = [node(x, level[k], level[k + 1])
                     for k in range(0, len(level), 2)]
        roots.append(level[0])

    n_vars = arity * n_planes
    steps: list = []
    reg: dict[int, int] = {}
    negated: dict[int, int] = {}

    def step(f, a, b=None):
        steps.append((f, a, b))
        return n_vars + len(steps) - 1

    def neg(x):
        if x not in negated:
            negated[x] = step(np.invert, x)
        return negated[x]

    # nodes are made children first, so this order is topological
    for i, (x, lo, hi) in enumerate(nodes):
        if (lo, hi) == (0, 1):
            r = x
        elif (lo, hi) == (1, 0):
            r = neg(x)
        elif lo == 0:
            r = step(np.bitwise_and, x, reg[hi])
        elif hi == 0:
            r = step(np.bitwise_and, reg[lo], neg(x))
        elif lo == 1:
            r = step(np.bitwise_or, reg[hi], neg(x))
        elif hi == 1:
            r = step(np.bitwise_or, reg[lo], x)
        else:
            d = step(np.bitwise_xor, reg[lo], reg[hi])
            r = step(np.bitwise_xor, reg[lo], step(np.bitwise_and, x, d))
        reg[2 + i] = r
    roots = [bool(r) if r < 2 else reg[r] for r in roots]

    slot_of: dict[int, int] = {}   # step register -> buffer
    fills = []
    for b, r in enumerate(roots):
        if isinstance(r, bool) or r < n_vars or r in slot_of:
            fills.append((b, r))
        else:
            slot_of[r] = b
    last_read = {}
    for i, (_, a, b) in enumerate(steps):
        last_read[a] = last_read[b] = i
    program, spare, n_slots = [], [], n_planes
    for i, (f, a, b) in enumerate(steps):
        # argument registers and output planes never free a buffer
        spare += [slot_of[r] for r in {a, b} - {None}
                  if r >= n_vars and last_read[r] == i
                  and slot_of[r] >= n_planes]
        r = n_vars + i
        if r not in slot_of:
            slot_of[r] = spare.pop() if spare else n_slots
            n_slots = max(n_slots, slot_of[r] + 1)
        program.append((f, a, b, slot_of[r]))
    return program, fills, n_slots


def _run_op(builder: _Builder, program, arg_rows: list[np.ndarray]
            ) -> np.ndarray:
    """Result rows of one compiled operation on argument rows that broadcast
    together, one candidate per broadcast position in C order.

    Every register is one plane of one argument or step: a (words, ...)
    block of the word-major rows.
    """
    steps, fills, n_slots = program
    n_planes, w = builder.n_planes, builder.words
    shape = np.broadcast_shapes(*(rows.shape[1:] for rows in arg_rows))
    regs = [rows[b * w:(b + 1) * w] for rows in arg_rows
            for b in range(n_planes)]
    bufs = np.empty((n_slots, w) + shape, dtype=builder.rows.dtype)
    for f, a, b, slot in steps:
        regs.append(f(regs[a], out=bufs[slot]) if b is None
                    else f(regs[a], regs[b], out=bufs[slot]))
    for b, root in fills:
        if isinstance(root, bool):
            bufs[b] = np.iinfo(bufs.dtype).max if root else 0
        else:
            bufs[b] = regs[root]
    if builder.tail_mask is not None:
        bufs[:n_planes, w - 1] &= builder.tail_mask
    return bufs[:n_planes].reshape(n_planes * w, -1)


def _block_args(builder: _Builder, domains):
    """Mixed-radix enumeration of a block, last position varying fastest:
    position p runs over the elements ``domains[p]``, a range or an array
    of element indices.

    A run is the candidates that share every position but the last.  Each
    chunk is whole runs, or one of the equal pieces of a run longer than
    ``builder.chunk``, yielded as ``(arg_rows, pick, args_of)``: the outer
    positions' rows gathered once per run as (width, runs, 1) blocks and the
    last position's piece (width, 1, piece) of the rows, a slice of a range,
    which broadcast to the chunk in order (``pick`` None), and a map from
    candidate positions to their argument elements.
    """
    *outer, last = domains
    runs = math.prod(len(d) for d in outer)
    per = max(1, builder.chunk // len(last))
    pieces = -(-len(last) // builder.chunk)
    for r0 in range(0, runs, per):
        flat = np.arange(r0, min(r0 + per, runs), dtype=np.int64)
        heads = []
        for d in reversed(outer):
            flat, digit = np.divmod(flat, len(d))
            heads.append(_element(d, digit))
        heads.reverse()
        rows = builder.rows
        head_rows = [np.take(rows, h, axis=1)[:, :, None] for h in heads]
        for i in range(pieces):
            piece = last[len(last) * i // pieces:len(last) * (i + 1) // pieces]
            tail = (rows[:, None, piece.start:piece.stop]
                    if isinstance(piece, range)
                    else np.take(rows, piece, axis=1)[:, None])

            def args_of(pos, heads=heads, piece=piece):
                run, at = np.divmod(pos, len(piece))
                return np.stack([h[run] for h in heads]
                                + [_element(piece, at)], axis=1)

            yield head_rows + [tail], None, args_of


def _element(domain, at: np.ndarray) -> np.ndarray:
    """The elements at positions ``at`` of a range or an index array."""
    return at + domain.start if isinstance(domain, range) else domain[at]


def _pair_args(builder: _Builder, old: int, total: int):
    """Unordered pairs (x, y), y <= x, x running over the frontier
    ``[old, total)``, as chunks like :func:`_block_args` yields.

    A chunk is the whole rows of consecutive x that fit in ``builder.chunk``
    pairs, or one x alone: the rectangle (x in the chunk) x (y up to its last
    x) broadcast from two slices of the rows, and ``pick`` the positions of
    its lower triangle y <= x in it.
    """
    # pairs through each x of the frontier
    ends = np.cumsum(np.arange(old + 1, total + 1, dtype=np.int64))
    x0, done = old, 0
    while x0 < total:
        fit = int(np.searchsorted(ends, done + builder.chunk, side="right"))
        x1 = max(x0 + 1, old + fit)
        done = int(ends[x1 - 1 - old])
        pick = np.flatnonzero(np.arange(x1) <= np.arange(x0, x1)[:, None])

        def args_of(pos, pick=pick, x0=x0, width=x1):
            x, y = np.divmod(pick[pos], width)
            return np.stack([x + x0, y], axis=1)

        rows = builder.rows
        yield [rows[:, x0:x1, None], rows[:, None, :x1]], pick, args_of
        x0 = x1


def _sorted_tuples(first: np.ndarray, d: int, r: int) -> np.ndarray:
    """The non-decreasing r-tuples over ``range(d)`` whose first entry is in
    the ascending ``first``, in lexicographic order, one per column."""
    tuples = first[None]
    for _ in range(r - 1):
        # each tuple continues with every value from its last one up
        last = tuples[-1]
        n = d - last
        tuples = np.repeat(tuples, n, axis=1)
        start = np.repeat(np.cumsum(n) - n - last, n)
        tuples = np.vstack((tuples, np.arange(tuples.shape[1]) - start))
    return tuples


def _multiset_args(builder: _Builder, old: int, total: int, ar: int):
    """The argument tuples of a totally symmetric operation of arity ``ar``
    that come first among their permutations in the canonical order, as
    chunks like :func:`_block_args` yields: position 0 holds f, the least
    frontier element of the multiset, and the other positions, the tail,
    are non-decreasing over ``[0, old)`` and ``[f, total)``.

    The tails of f0 are those of the ranks ``range(d)``, d = old + total -
    f0, rank ``old + i`` naming element ``f0 + i``.  When they fit in a
    chunk more than once, a chunk is consecutive f sharing them: the
    rectangle (f in the chunk) x (tails of f0), broadcast from a slice of
    the rows and the gathered tail rows, with ``pick`` its cells whose tail
    avoids ``[f0, f)``.  Otherwise f0 alone takes its tails in groups of
    consecutive first entries that fit in a chunk, a group of one first
    entry split in equal pieces when it does not, so no more tails are made
    at once than a chunk or one first entry holds.
    """
    r = ar - 1
    f0 = old
    while f0 < total:
        d = old + total - f0
        # the tails through each first entry a: C(d - a + r - 2, r - 1)
        per = np.ones(d, dtype=np.int64)
        for j in range(1, r):
            per = per * np.arange(d + j - 1, j - 1, -1) // j
        ends = np.cumsum(per)
        k = min(total - f0, max(1, builder.chunk // int(ends[-1])))
        a0 = 0
        while a0 < d:
            done = int(ends[a0 - 1]) if a0 else 0
            a1 = max(a0 + 1, int(np.searchsorted(ends, done + builder.chunk,
                                                 side="right")))
            tails = _sorted_tuples(np.arange(a0, a1), d, r)
            tails[tails >= old] += f0 - old
            pick = None
            if k > 1:
                low = np.where(tails < old, total, tails).min(axis=0)
                pick = np.flatnonzero(low >= np.arange(f0, f0 + k)[:, None])
            n = tails.shape[1]
            pieces = -(-n // builder.chunk)
            for i in range(pieces):
                part = tails[:, n * i // pieces:n * (i + 1) // pieces]

                def args_of(pos, pick=pick, part=part, f0=f0):
                    f, at = np.divmod(pos if pick is None else pick[pos],
                                      part.shape[1])
                    return np.stack((f + f0, *part[:, at]), axis=1)

                rows = builder.rows
                yield ([rows[:, f0:f0 + k, None]]
                       + [np.take(rows, t, axis=1)[:, None] for t in part],
                       pick, args_of)
            a0 = a1
        f0 += k


def _sample_overflows(builder: _Builder, ops, apps, old: int) -> bool:
    """Whether a sample of the closure level on the frontier
    ``[old, builder.n)`` has more distinct new keys than the entries cap has
    room for elements, which proves that the level overflows.

    The sample is at most ``_SAMPLE_SHARE`` of the level's candidates, and
    is drawn only when that share is more than the room left.  A sampled
    candidate draws its operation in proportion to ``apps``, the operation's
    applications in the level, each argument uniformly from the elements,
    and then one uniformly chosen position from the frontier: a candidate of
    the level, or for a symmetric table a permutation of one.  So a key
    that no element has is a row the level adds, distinct keys are distinct
    rows, and a colliding fingerprint only hides a new row.  The sample stops
    after a batch once its keys so far, projected to the whole sample,
    cannot pass the room left.  The seed is fixed.
    """
    total = builder.n
    room = builder.max_elements - total
    budget = math.floor(sum(apps) * _SAMPLE_SHARE)
    if budget <= room:
        return False
    seen = np.empty(0, dtype=np.uint64)
    rng = np.random.default_rng(0)
    share = np.array(apps, dtype=float) / sum(apps)
    drawn = 0
    while drawn < budget:
        m = min(builder.chunk, budget - drawn)
        for (_, ar, program, _), k in zip(ops, rng.multinomial(m, share)):
            if not k:
                continue
            args = rng.integers(0, total, size=(ar, k))
            args[rng.integers(0, ar, size=k), np.arange(k)] = rng.integers(
                old, total, size=k)
            res = _run_op(builder, program,
                          [np.take(builder.rows, x, axis=1) for x in args])
            seen = builder.new_keys(res, seen)
            if seen.size > room:
                return True
        drawn += m
        if seen.size * budget <= room * drawn:
            return False
    return False


def _collect(builder: _Builder, seen: _Builder, rows: np.ndarray):
    """Add the rows that the scratch builder ``seen`` does not hold yet, and
    refuse the build when they would pass the room left, ``seen``'s cap."""
    pos = seen.new_rows(rows)
    if seen.n + pos.size > seen.max_elements:
        builder.refuse()
    if pos.size:
        seen.append(rows[:, pos], -1, np.empty((pos.size, 0), np.int64))


def _swap_tables(builder: _Builder, size: int, g: int) -> list:
    """Per adjacent transposition (i, i + 1) of the variables, a table that
    permutes a packed plane's coordinates byte by byte: entry ``[k, w, v]``
    is word w of the plane holding byte k's bits of value v at the
    coordinates of their assignments with digits i and i + 1 swapped, so a
    plane's image is the OR of its bytes' entries."""
    dtype = builder.rows.dtype
    bits = 8 * dtype.itemsize
    coord = np.arange(builder.c)
    value = np.arange(256)
    tables = []
    for i in range(g - 1):
        hi, lo = size ** (g - 1 - i), size ** (g - 2 - i)
        a, b = coord // hi % size, coord // lo % size
        dest = coord + (b - a) * hi + (a - b) * lo
        # row s: the plane with only the bit of input bit s's destination
        single = np.zeros((builder.words * bits, builder.words), dtype=dtype)
        single[coord, dest // bits] = np.left_shift(
            np.ones(builder.c, dtype=dtype), (dest % bits).astype(dtype))
        table = np.zeros((builder.words * bits // 8, builder.words, 256),
                         dtype=dtype)
        for j in range(8):
            table[:, :, (value >> j) & 1 == 1] |= single[j::8, :, None]
        tables.append(table)
    return tables


def _permuted(builder: _Builder, table: np.ndarray, rows: np.ndarray
              ) -> np.ndarray:
    """Packed rows (columns) with each plane's coordinates permuted by one
    of :func:`_swap_tables`' tables."""
    w, per_word = builder.words, rows.itemsize
    out = np.zeros(rows.shape, dtype=rows.dtype)
    for b in range(builder.n_planes):
        # [j, :, i]: byte i of word j of every row, without a copy
        plane = rows[b * w:(b + 1) * w].view(np.uint8).reshape(
            w, -1, per_word)
        for k, entries in enumerate(table):
            out[b * w:(b + 1) * w] |= np.take(
                entries, plane[k // per_word, :, k % per_word], axis=1)
    return out


def _orbit_representatives(builder: _Builder, tables, old: int
                           ) -> np.ndarray:
    """The first element of each orbit of the frontier ``[old, builder.n)``
    under the transpositions that ``tables`` apply.

    Each frontier element's images are frontier elements, found in the key
    index; a label, at first the element itself, takes the least label of
    its images and then of its label until no label changes, so the labels
    are the least element of each orbit.
    """
    frontier = builder.rows[:, old:builder.n]
    images = builder.find(np.concatenate(
        [_permuted(builder, t, frontier) for t in tables], axis=1)) - old
    images = images.reshape(len(tables), -1)
    label = np.arange(frontier.shape[1])
    while True:
        least = np.minimum(label, label[images].min(axis=0))
        least = least[least]
        if np.array_equal(least, label):
            return old + np.flatnonzero(label == np.arange(label.size))
        label = least


def _level_count(builder: _Builder, ops, apps, old: int, g: int, swaps
                 ) -> np.ndarray | None:
    """The rows of the elements that the closure level on the frontier
    ``[old, builder.n)`` adds, in no particular order, or None when the
    count would cost more than ``_COUNT_SHARE`` of the level's
    applications; refuses when they are more than the room left.
    ``swaps()`` returns :func:`_swap_tables`.

    The known elements K, the frontier and the new elements N are unions of
    orbits of the variable permutations, and N is the orbits of the
    candidates with one argument on an orbit representative and the others
    on K, less K: the adjacent transpositions close those into N.  A
    symmetric table takes the representative on position 0 only.  The cost
    in rows is a chunk's overhead, the frontier's images, at most the
    room's images and the representatives' candidates, all known before
    any candidate runs.
    """
    total = builder.n
    room = builder.max_elements - total
    budget = _COUNT_SHARE * sum(apps)
    per_rep = sum((1 if symmetric else ar) * total ** (ar - 1)
                  for _, ar, _, symmetric in ops)
    cost = builder.chunk + (g - 1) * (total - old + room)
    # an orbit holds at most g! elements, and 20! is more than any frontier
    if (cost + -(-(total - old) // math.factorial(min(g, 20))) * per_rep
            > budget):
        return None
    tables = swaps()
    reps = _orbit_representatives(builder, tables, old)
    if cost + reps.size * per_rep > budget:
        return None
    seen = _Builder(builder.n_planes, builder.c, room * builder.c, 1)
    for _, ar, program, symmetric in ops:
        for p in range(1 if symmetric else ar):
            for arg_rows, _, _ in _block_args(
                    builder, [reps] + [range(total)] * (ar - 1)):
                # the representative is block position 0 and argument p
                arg_rows.insert(p, arg_rows.pop(0))
                res = _run_op(builder, program, arg_rows)
                _collect(builder, seen, res[:, builder.new_rows(res)])
    # each round permutes the rows the round before added
    done = 0
    while done < seen.n:
        start, done = done, seen.n
        for table in tables:
            _collect(builder, seen,
                     _permuted(builder, table, seen.rows[:, start:done]))
    return seen.rows[:, :seen.n]


class _Pending:
    """A counting filter over the new rows of a counted closure level (Fan
    et al., *Summary cache*, 2000): one hash of a row's key picks a bucket,
    which counts the level's new rows in it that are not appended yet.

    Every candidate of a counted level is a known element or one of its new
    rows, so a candidate whose bucket counts none is known, and only the
    others go to :meth:`_Builder.new_rows`.  Colliding keys or buckets only
    let known rows through, which ``new_rows`` drops.
    """

    def __init__(self, builder: _Builder, rows: np.ndarray):
        self.builder = builder
        n = rows.shape[1]
        # 16 to 32 buckets per new row
        bits = (16 * n).bit_length()
        self.shift = np.uint64(64 - bits)
        self.counts = np.zeros(1 << bits, dtype=np.min_scalar_type(n))
        np.add.at(self.counts, self._buckets(rows), 1)

    def _buckets(self, rows: np.ndarray) -> np.ndarray:
        """The bucket of each row: the high bits of its key, which a key
        that is the row itself gets from a multiplication by an odd
        constant (Knuth's multiplicative hashing)."""
        h = self.builder.keys(rows)
        if self.builder.exact:
            h *= np.uint64(0x9E3779B97F4A7C15)
        h >>= self.shift
        return h.view(np.int64)

    def new_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`_Builder.new_rows` of the rows, which it is passed only
        where their bucket counts a pending row; the rows it returns are
        taken off their buckets, to be appended."""
        at = self._buckets(rows)
        maybe = np.flatnonzero(self.counts[at] != 0)
        pos = maybe[self.builder.new_rows(rows[:, maybe])]
        np.subtract.at(self.counts, at[pos], 1)
        return pos


def _level_chunks(builder: _Builder, ops, old: int, total: int):
    """The chunks of the closure level on the frontier ``[old, total)`` in
    the canonical order, each as ``(op, program, arg_rows, pick,
    args_of)``."""
    for op, ar, program, symmetric in ops:
        if symmetric:
            chunks = (_pair_args(builder, old, total) if ar == 2
                      else _multiset_args(builder, old, total, ar))
        else:
            # block p: position p on the frontier, the positions before it
            # on older elements; empty for p > 0 on the first level
            chunks = itertools.chain.from_iterable(
                _block_args(builder, [range(old)] * p + [range(old, total)]
                            + [range(total)] * (ar - 1 - p))
                for p in range(ar if old else 1))
        for chunk in chunks:
            yield (op, program, *chunk)


def _symmetric(table: np.ndarray, size: int, ar: int) -> bool:
    """Whether an operation of arity at least 2 gives the same value for
    every order of its arguments: whether its table is invariant under the
    adjacent transpositions, which generate every permutation."""
    cube = table.reshape((size,) * ar)
    return ar > 1 and all(np.array_equal(cube, cube.swapaxes(p, p + 1))
                          for p in range(ar - 1))


def _first_occurrence(builder: _Builder, ops, old: int, total: int,
                      skip: int, row: np.ndarray) -> tuple[int, np.ndarray]:
    """The operation and argument elements of the first candidate equal to
    ``row`` (one column) in the closure level on the frontier
    ``[old, total)`` after its first ``skip`` chunks."""
    for op, program, arg_rows, pick, args_of in itertools.islice(
            _level_chunks(builder, ops, old, total), skip, None):
        res = _run_op(builder, program, arg_rows)
        if pick is not None:
            res = np.take(res, pick, axis=1)
        hit = np.flatnonzero((res == row).all(axis=0))
        if hit.size:
            return op, args_of(hit[:1])[0]
    raise AssertionError("a deferred element occurs in its level")


def build_free(a: FiniteAlgebra, g: int,
               cap_entries: int = DEFAULT_CAP_ENTRIES,
               work_budget: int = DEFAULT_WORK_BUDGET,
               ordered: bool = True) -> FreeAlgebra:
    """BFS closure of the projection vectors under all operations.

    Deterministic: elements appear in discovery order with operations in
    signature order and argument tuples enumerated lexicographically.  A
    symmetric binary table enumerates unordered pairs, and a totally
    symmetric table of higher arity the first tuple of each argument
    multiset, which gives the elements and witnesses that every tuple
    gives.  With ``ordered`` False, a counted level's elements come in the
    count's order instead, for saturation walks only (see the module
    docstring).
    """
    if g < 1:
        raise AlgebraError("generator count must be positive")
    _check_vector_size(a)
    size = a.size
    # size ** g > cap_entries once g passes the cap's bit length, so a huge g
    # is refused without building its power
    if (size > 1 and g > cap_entries.bit_length()
            or size ** g * g > cap_entries):
        # the decimal count while it has at most 20 digits
        coords = (size ** g if g * math.log10(size) < 20
                  else f"{size}**{g}")
        raise CapExceeded(
            f"tuple space alone ({g} generators of {coords} coordinates) "
            f"exceeds cap {cap_entries}", 0)
    c = size ** g

    n_planes = max(1, (size - 1).bit_length())
    max_arity = max((ar for _, ar in a.signature.ops), default=1)
    builder = _Builder(n_planes, c, cap_entries, max_arity)

    # seeds: the projections, distinct unless |A| = 1, when every generator
    # is element 0, then each constant that is not an element yet
    n_proj = g if size > 1 else 1
    idx = np.arange(c, dtype=np.int64)
    proj = np.stack([(idx // size ** (g - 1 - i)) % size
                     for i in range(n_proj)]).astype(np.uint8)
    builder.append(_pack_planes(proj, n_planes), -1,
                   np.arange(n_proj)[:, None])
    generators = tuple(range(g)) if size > 1 else (0,) * g
    # (signature index, arity, program, symmetric) per non-constant operation
    ops = []
    for i, (name, ar) in enumerate(a.signature.ops):
        tab = a.tables[name]
        if ar == 0:
            rows = _pack_planes(
                np.full((1, c), int(tab[0]), dtype=np.uint8), n_planes)
            if builder.new_rows(rows).size:
                builder.append(rows, i, np.empty((1, 0), dtype=np.int64))
        else:
            ops.append((i, ar, _compile_op(tab, size, ar, n_planes),
                        _symmetric(tab, size, ar)))

    # levels are counted while the swap tables, (g - 1) * bytes * 256 * words
    # words, are those of one-word planes (16 KB a table) or fit in the words
    # of the rows the entries cap allows; they are made for the first level
    # that counts
    countable = g > 1 and (builder.words == 1 or (
        (g - 1) * builder.words * builder.rows.itemsize * 256 * builder.words
        <= builder.max_elements * builder.width))
    swaps = functools.cache(lambda: _swap_tables(builder, size, g))
    units_used = 0
    frontier_start = 0
    deferred: dict[int, tuple[int, int, int]] = {}
    while frontier_start < builder.n:
        old = frontier_start
        level_total = builder.n
        frontier_start = builder.n
        # applications per operation in this level
        apps = [(level_total * (level_total + 1) - old * (old + 1)) // 2
                if symmetric and ar == 2 else level_total ** ar - old ** ar
                for _, ar, _, symmetric in ops]
        projected = sum(k * size ** ar * builder.width
                        for k, (_, ar, _, _) in zip(apps, ops))
        if units_used + projected > work_budget:
            raise CapExceeded(
                f"free algebra work budget exceeded (next closure level "
                f"needs {projected} more units of {work_budget})", builder.n)
        if _sample_overflows(builder, ops, apps, old):
            builder.refuse()
        # the level's chunks below add up to at most ``projected``
        units_used += projected
        # the level stops once at most one of its counted rows is left, and
        # checks only the candidates that may be counted rows against the
        # known ones, unless the dense table does that cheaper
        new = (_level_count(builder, ops, apps, old, g, swaps)
               if countable else None)
        stop = pending = None
        if new is not None:
            if not new.shape[1]:
                break
            if not ordered:
                builder.append(new, _DEFERRED,
                               np.empty((new.shape[1], 0), dtype=np.int64))
                continue
            stop = level_total + new.shape[1] - 1
            if builder._dense is None:
                pending = _Pending(builder, new)
        run = 0
        if builder.n != stop:
            for op, program, arg_rows, pick, args_of in _level_chunks(
                    builder, ops, old, level_total):
                run += 1
                res = _run_op(builder, program, arg_rows)
                if pick is not None:
                    res = np.take(res, pick, axis=1)
                pos = (builder if pending is None else pending).new_rows(res)
                if pos.size:
                    builder.append(res[:, pos], op, args_of(pos))
                    if stop is not None and builder.n >= stop:
                        break
        if builder.n == stop:
            # the row left first occurs after the chunks run
            builder.append(new[:, builder.new_rows(new)], _DEFERRED,
                           np.empty((1, 0), dtype=np.int64))
            deferred[builder.n - 1] = (old, level_total, run)

    vecs = _unpack_planes(builder.rows[:, :builder.n], n_planes, c)
    return FreeAlgebra(a, g, vecs, generators, np.concatenate(builder.w_op),
                       np.concatenate(builder.w_args),
                       (builder.rows_only(), ops, deferred) if deferred
                       else None, ordered)


# ---------------------------------------------------------------------------
# Partition utilities (congruences on a free algebra live as label arrays)


def meet_labels(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Labels of the common refinement of two partitions."""
    combined = l1.astype(np.int64) * (int(l2.max()) + 1) + l2
    _, labels = np.unique(combined, return_inverse=True)
    return labels.astype(np.int64)


def saturate(labels: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """All elements sharing a class with some frontier element.  Labels are
    below the element count, as ``gen_pair_congruence`` and
    ``meet_labels`` give them, so a mask of the frontier's classes fits."""
    hit = np.zeros(labels.size, dtype=bool)
    hit[labels[frontier]] = True
    return hit[labels]
