"""Free algebras of finitely generated varieties, with term recovery.

``F_V(g)`` for ``V`` the variety generated by a finite algebra ``A`` is
realized as the subalgebra of ``A^(A^g)`` generated by the g projection
vectors.  The breadth-first closure stores element vectors bit-plane packed
(one uint64 lane block per plane).  Each operation table is compiled once
per build into a straight-line program of bitwise steps over the argument
planes (a reduced Shannon decision diagram per output plane), which keeps
the pair loop off the table-lookup path.

Candidates are made and deduplicated in chunks of about 512 KB of packed
rows, so a chunk's temporaries stay in cache.  Deduplication works on one
64-bit key per candidate row: the packed row itself when it is one uint64
word with room left for a chunk position, a fingerprint otherwise.  Each
chunk of candidates is sorted once by key, and only its distinct keys are
probed in the sorted key index of the known elements, which new elements
are merged into.  Fingerprint matches are confirmed on the rows, and a
chunk with a collision is deduplicated by exact row comparison, so element
identity is exact.

Elements appear in the order of first occurrence in the global candidate
sequence, so neither they nor their witnesses depend on the chunk size, and
neither do refusals: the work budget is checked once per closure level, and
the entries cap refuses with ``elements_reached`` the first element count
that does not fit, ``cap_entries // coordinates + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraError, FiniteAlgebra

DEFAULT_CAP_ENTRIES = 10_000_000
# work units: operation applications x value-combination count x packed width
DEFAULT_WORK_BUDGET = 8_000_000_000
# candidate rows per chunk: (rows x packed width) uint64 arrays of 512 KB
_CHUNK_WORDS = 1 << 16
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


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
        if not (tok.startswith("x") and tok[1:].isdigit()):
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


def _pack_planes(vals: np.ndarray, n_planes: int, words: int) -> np.ndarray:
    """uint8 values (N, C) -> packed planes (N, n_planes * words) uint64."""
    n, c = vals.shape
    out = np.empty((n, n_planes * words), dtype=np.uint64)
    pad = words * 64 - c
    for b in range(n_planes):
        plane = (vals >> b) & 1
        if pad:
            plane = np.pad(plane, ((0, 0), (0, pad)))
        packed = np.packbits(plane, axis=1, bitorder="little")
        out[:, b * words:(b + 1) * words] = (
            packed.reshape(n, words, 8).view(np.uint64).reshape(n, words))
    return np.ascontiguousarray(out)


def _unpack_planes(rows: np.ndarray, n_planes: int, words: int,
                   c: int) -> np.ndarray:
    n = rows.shape[0]
    out = np.zeros((n, c), dtype=np.uint8)
    for b in range(n_planes):
        block = np.ascontiguousarray(rows[:, b * words:(b + 1) * words])
        bits = np.unpackbits(block.view(np.uint8).reshape(n, words * 8),
                             axis=1, bitorder="little")[:, :c]
        out |= bits << b
    return out


def _fingerprint(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """64-bit hash of each packed row, folded word by word.

    A plain weighted sum of the words (mod 2**64) collides on rows that
    differ in the high bits of several words; the xorshift between multiplies
    breaks that linearity.  Rows differing in one word never collide.
    """
    h = rows[:, 0] * weights[0]
    for j in range(1, rows.shape[1]):
        h ^= h >> 29
        h += rows[:, j]
        h *= weights[j]
    return h


# ---------------------------------------------------------------------------
# The free algebra


class FreeAlgebra:
    """Built by :func:`build_free`; immutable afterwards."""

    def __init__(self, base, g, vecs, generators, w_op, w_args, op_names):
        self.base = base
        self.g = g
        self.tuple_count = base.size ** g
        self.vecs = vecs                     # (N, size**g) uint8
        self.vecs.setflags(write=False)
        self.generators = generators         # element index per generator
        self._w_op = w_op                    # op index per element, -1 = Var
        self._w_args = w_args                # argument element indices
        self._op_names = op_names
        self._terms: dict[int, Term] = {}

    @property
    def n_elements(self) -> int:
        return self.vecs.shape[0]

    def term_of(self, e: int) -> Term:
        """The first-discovered witness term of an element."""
        if not 0 <= e < self.n_elements:
            raise AlgebraError(f"element index {e} out of range")
        if e in self._terms:
            return self._terms[e]
        op = int(self._w_op[e])
        if op < 0:
            t: Term = Var(int(self._w_args[e][0]))
        else:
            name = self._op_names[op]
            arity = self.base.signature.arity(name)
            t = App(name, tuple(self.term_of(int(x))
                                for x in self._w_args[e][:arity]))
        self._terms[e] = t
        return t

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
        sub = self.vecs[:, mask]
        _, labels = np.unique(sub, axis=0, return_inverse=True)
        return labels.astype(np.int64)


# ---------------------------------------------------------------------------
# The closure build


class _Builder:
    """Packed element rows and a sorted index of one 64-bit key per row.

    When a row is one word whose used bits leave room for a chunk position
    beside them, the word is the key and key equality is row equality.
    Otherwise the key is a fingerprint, and every match is confirmed on the
    rows themselves, so element identity is exact either way.
    """

    def __init__(self, n_planes: int, words: int, cap_entries: int, c: int,
                 max_arity: int):
        self.n_planes = n_planes
        self.words = words
        self.cap_entries = cap_entries
        self.c = c
        self.width = n_planes * words
        self.chunk = max(1, _CHUNK_WORDS // self.width)
        self.exact = (self.width == 1
                      and c + (self.chunk - 1).bit_length() <= 64)
        self.rows = np.empty((256, self.width), dtype=np.uint64)
        rng = np.random.default_rng(0x5EED_0F0D)
        self.weights = (rng.integers(1, 2 ** 63, size=self.width,
                                     dtype=np.uint64) * 2 + 1)
        # padded tail bits of each plane must stay zero after every op
        self.row_mask = np.full(self.width, _ALL_ONES)
        tail = c % 64
        if tail:
            for b in range(n_planes):
                self.row_mask[(b + 1) * words - 1] = np.uint64((1 << tail) - 1)
        self.n = 0
        self._keys_sorted = np.empty(0, dtype=np.uint64)
        self._key_perm = np.empty(0, dtype=np.int64)  # element per sorted key
        self.max_arity = max(max_arity, 1)
        self.w_op: list[np.ndarray] = []
        self.w_args: list[np.ndarray] = []

    def append(self, rows: np.ndarray, keys: np.ndarray, op: int,
               args: np.ndarray):
        """Add distinct new rows with their witness: ``op`` applied to the
        element indices in each row of ``args`` (-1 and the variable index
        for a generator)."""
        k = rows.shape[0]
        if (self.n + k) * self.c > self.cap_entries:
            first = self.cap_entries // self.c + 1   # first count over cap
            raise CapExceeded(
                f"free algebra exceeds {self.cap_entries} vector entries "
                f"({first} elements of {self.c} coordinates)", first)
        if self.n + k > self.rows.shape[0]:
            self.rows = np.resize(self.rows, (max(self.n + k,
                                                  2 * self.rows.shape[0]),
                                              self.width))
        self.rows[self.n:self.n + k] = rows
        order = np.argsort(keys, kind="stable")
        new_keys = keys[order]
        at = np.searchsorted(self._keys_sorted, new_keys, side="right")
        self._keys_sorted = np.insert(self._keys_sorted, at, new_keys)
        self._key_perm = np.insert(self._key_perm, at, self.n + order)
        self.n += k
        self.w_op.append(np.full(k, op, dtype=np.int64))
        padded = np.zeros((k, self.max_arity), dtype=np.int64)
        padded[:, :args.shape[1]] = args
        self.w_args.append(padded)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, 0] if self.exact else _fingerprint(rows, self.weights)

    def new_rows(self, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Ascending positions of the first occurrence of each row that is
        not a known element.

        One sort of (key, position) words groups the rows and puts each
        group's first position first; the groups' keys are then probed in
        the index.  Fingerprints give up their low bits to the position, so
        each group is checked to hold one row and each probe hit to be that
        row; a failed check sends the chunk to the exact path.
        """
        m = rows.shape[0]
        b = max(1, (m - 1).bit_length())
        if self.exact and self.c + b > 64:
            return self._new_rows_exact(rows, keys)
        low = np.uint64((1 << b) - 1)
        if self.exact:
            packed = keys << b
        else:
            packed = keys >> b
            packed <<= b
        packed |= np.arange(m, dtype=np.uint64)
        packed.sort()
        groups = packed >> b
        starts = np.flatnonzero(np.concatenate(
            ([True], groups[1:] != groups[:-1])))
        first = (packed[starts] & low).astype(np.int64)
        # distinct high bits, so the groups' full keys are sorted too
        group_keys = keys[first]
        at = np.searchsorted(self._keys_sorted, group_keys)
        top = self._keys_sorted.size - 1
        hit = self._keys_sorted[np.minimum(at, top)] == group_keys
        if not self.exact:
            if self.width == 1:
                # a one-word fingerprint is a bijection on rows, so each
                # group holds one row iff it holds one distinct key
                full = np.sort(keys)
                pure = np.count_nonzero(full[1:] != full[:-1]) < starts.size
            else:
                rep = np.empty(m, dtype=np.int64)
                rep[(packed & low).astype(np.int64)] = np.repeat(
                    first, np.diff(starts, append=m))
                pure = np.array_equal(rows, rows[rep])
            if not (pure and np.array_equal(
                    rows[first[hit]], self.rows[self._key_perm[at[hit]]])):
                return self._new_rows_exact(rows, keys)
        return np.sort(first[~hit])

    def _new_rows_exact(self, rows: np.ndarray,
                        keys: np.ndarray) -> np.ndarray:
        """:meth:`new_rows` by row comparison, for chunks with collisions."""
        miss = np.flatnonzero(~self.known_mask(rows, keys))
        _, first = np.unique(rows[miss], axis=0, return_index=True)
        return miss[np.sort(first)]

    def known_mask(self, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Exactly which candidate rows equal an already-known element.

        Keys narrow the comparison; equality is decided on the rows
        themselves, so fingerprint collisions cannot drop or duplicate
        elements.
        """
        index = self._keys_sorted
        k = index.size
        known = np.zeros(rows.shape[0], dtype=bool)
        pos = np.searchsorted(index, keys)
        cand = np.nonzero((pos < k) & (index[np.minimum(pos, k - 1)]
                                       == keys))[0]
        while cand.size:
            p = pos[cand]
            match = (rows[cand] == self.rows[self._key_perm[p]]).all(axis=1)
            known[cand[match]] = True
            # unresolved candidates may match a later element with equal key
            cand = cand[~match]
            if cand.size:
                pos[cand] += 1
                p = pos[cand]
                still = (p < k) & (index[np.minimum(p, k - 1)] == keys[cand])
                cand = cand[still]
        return known


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

    Returns ``(steps, roots)``.  Each step ``(ufunc, a, b)`` appends a
    register computed from registers a and b (b is None for a NOT);
    ``roots[b]`` is output plane b as a register or a constant bool.
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
    return steps, [bool(r) if r < 2 else reg[r] for r in roots]


def _run_op(builder: _Builder, program, arg_rows: list[np.ndarray]
            ) -> np.ndarray:
    """Result rows of one compiled operation on gathered argument rows."""
    steps, roots = program
    w = builder.words
    regs = [rows[:, b * w:(b + 1) * w]
            for rows in arg_rows for b in range(builder.n_planes)]
    for f, a, b in steps:
        regs.append(f(regs[a]) if b is None else f(regs[a], regs[b]))
    out = np.empty_like(arg_rows[0])
    for b, root in enumerate(roots):
        if isinstance(root, bool):
            out[:, b * w:(b + 1) * w] = _ALL_ONES if root else 0
        else:
            out[:, b * w:(b + 1) * w] = regs[root]
    out &= builder.row_mask
    return out


def _block_chunks(sizes, chunk):
    """Mixed-radix enumeration of a block, last position varying fastest."""
    total = 1
    for s in sizes:
        total *= s
    lo = 0
    while lo < total:
        hi = min(lo + chunk, total)
        flat = np.arange(lo, hi, dtype=np.int64)
        idxs = []
        for s in reversed(sizes):
            idxs.append(flat % s)
            flat = flat // s
        yield list(reversed(idxs))
        lo = hi


def build_free(a: FiniteAlgebra, g: int,
               cap_entries: int = DEFAULT_CAP_ENTRIES,
               work_budget: int = DEFAULT_WORK_BUDGET) -> FreeAlgebra:
    """BFS closure of the projection vectors under all operations.

    Deterministic: elements appear in discovery order with operations in
    signature order and argument tuples enumerated lexicographically
    (symmetric binary tables enumerate unordered pairs).
    """
    if g < 1:
        raise AlgebraError("generator count must be positive")
    _check_vector_size(a)
    size = a.size
    c = size ** g
    if c * g > cap_entries:
        raise CapExceeded(
            f"tuple space alone ({g} generators of {c} coordinates) "
            f"exceeds cap {cap_entries}", 0)

    idx = np.arange(c, dtype=np.int64)
    digits = np.empty((c, g), dtype=np.uint8)
    for i in range(g):
        digits[:, i] = (idx // size ** (g - 1 - i)) % size

    n_planes = max(1, (size - 1).bit_length())
    words = (c + 63) // 64
    max_arity = max((ar for _, ar in a.signature.ops), default=1)
    builder = _Builder(n_planes, words, cap_entries, c, max_arity)

    ops = [(name, ar, a.tables[name]) for name, ar in a.signature.ops]
    op_index = {name: i for i, (name, _, _) in enumerate(ops)}
    programs = {name: _compile_op(tab, size, ar, n_planes)
                for name, ar, tab in ops if ar}
    symmetric = {}
    for name, ar, tab in ops:
        symmetric[name] = (ar == 2 and
                           np.array_equal(tab.reshape(size, size),
                                          tab.reshape(size, size).T))

    # seed: projections, then constants
    generators = []
    for i in range(g):
        vec = digits[:, i].reshape(1, -1)
        rows = _pack_planes(vec, n_planes, words)
        hit = [e for e in range(builder.n)
               if np.array_equal(builder.rows[e], rows[0])]
        if hit:
            generators.append(hit[0])
        else:
            builder.append(rows, builder.keys(rows), -1, np.array([[i]]))
            generators.append(builder.n - 1)
    for name, ar, tab in ops:
        if ar != 0:
            continue
        vec = np.full((1, c), int(tab[0]), dtype=np.uint8)
        rows = _pack_planes(vec, n_planes, words)
        if not any(np.array_equal(builder.rows[e], rows[0])
                   for e in range(builder.n)):
            builder.append(rows, builder.keys(rows),
                           op_index[name], np.empty((1, 0), dtype=np.int64))

    units_used = 0
    op_cost = {name: (size ** ar) * builder.width for name, ar, _ in ops}
    frontier_start = 0
    while frontier_start < builder.n:
        old = frontier_start
        level_total = builder.n
        frontier_start = builder.n
        projected = 0
        for name, ar, _ in ops:
            if ar == 0:
                continue
            if symmetric[name]:
                apps = (level_total * (level_total + 1) - old * (old + 1)) // 2
            else:
                apps = level_total ** ar - old ** ar
            projected += apps * op_cost[name]
        if units_used + projected > work_budget:
            raise CapExceeded(
                f"free algebra work budget exceeded (next closure level "
                f"needs {projected} more units of {work_budget})", builder.n)
        # the level's chunks below add up to exactly ``projected``
        units_used += projected
        for name, ar, _ in ops:
            if ar == 0:
                continue
            blocks = []
            if symmetric[name]:
                blocks.append("sym")
            else:
                for p in range(ar):
                    sizes = ([old] * p + [level_total - old]
                             + [level_total] * (ar - 1 - p))
                    offsets = [0] * p + [old] + [0] * (ar - 1 - p)
                    if all(s > 0 for s in sizes):
                        blocks.append((sizes, offsets))
            for block in blocks:
                if block == "sym":
                    xs_all = np.arange(old, level_total, dtype=np.int64)
                    gen = _sym_pair_chunks(xs_all, builder.chunk)
                else:
                    sizes, offsets = block
                    gen = (_offset(idxs, offsets)
                           for idxs in _block_chunks(sizes, builder.chunk))
                for arg_idx in gen:
                    # np.take gathers narrow rows much faster than
                    # fancy indexing does
                    arg_rows = [np.take(builder.rows, ix, axis=0)
                                for ix in arg_idx]
                    res = _run_op(builder, programs[name], arg_rows)
                    keys = builder.keys(res)
                    pos = builder.new_rows(res, keys)
                    if pos.size:
                        builder.append(
                            res[pos], keys[pos], op_index[name],
                            np.stack([ix[pos] for ix in arg_idx], axis=1))

    vecs = _unpack_planes(builder.rows[:builder.n], n_planes, words, c)
    return FreeAlgebra(a, g, vecs, tuple(generators),
                       np.concatenate(builder.w_op),
                       np.concatenate(builder.w_args),
                       [name for name, _, _ in ops])


def _sym_pair_chunks(xs_all: np.ndarray, chunk: int):
    """Unordered pairs (x, y), y <= x, x running over the frontier."""
    if xs_all.size == 0:
        return
    counts_all = xs_all + 1
    start = 0
    while start < xs_all.size:
        end = start
        total = 0
        while end < xs_all.size and total + counts_all[end] <= chunk:
            total += int(counts_all[end])
            end += 1
        if end == start:
            end = start + 1
            total = int(counts_all[start])
        xs = xs_all[start:end]
        counts = xs + 1
        ia = np.repeat(xs, counts)
        offs = np.cumsum(counts) - counts
        jy = np.arange(counts.sum(), dtype=np.int64) - np.repeat(offs, counts)
        yield [ia, jy]
        start = end


def _offset(idxs, offsets):
    return [ix + off if off else ix for ix, off in zip(idxs, offsets)]


# ---------------------------------------------------------------------------
# Partition utilities (congruences on a free algebra live as label arrays)


def meet_labels(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Labels of the common refinement of two partitions."""
    combined = l1.astype(np.int64) * (int(l2.max()) + 1) + l2
    _, labels = np.unique(combined, return_inverse=True)
    return labels.astype(np.int64)


def saturate(labels: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """All elements sharing a class with some frontier element."""
    if not frontier.any():
        return frontier.copy()
    return np.isin(labels, np.unique(labels[frontier]))
