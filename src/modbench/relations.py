"""Reflexive binary relations as bitset matrices, and the calculus on them.

Rows are Python integers used as bitsets: bit ``j`` of ``rows[i]`` means
``(i, j)`` is in the relation.  Every relation here is reflexive; the
constructor closes the diagonal.  Kinds form a ladder:

    admissible  = reflexive + compatible with all operations
    tolerance   = admissible + symmetric
    congruence  = tolerance + transitive
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebras import FiniteAlgebra

ADMISSIBLE = "admissible"
TOLERANCE = "tolerance"
CONGRUENCE = "congruence"
KIND_LEVEL = {ADMISSIBLE: 0, TOLERANCE: 1, CONGRUENCE: 2}


class RelationError(ValueError):
    pass


class GuardExceeded(RuntimeError):
    """A size guard (enumeration or congruence-lattice cap) was exceeded."""


class BinRel:
    """Reflexive binary relation on {0..n-1}.

    A ``kind_hint`` is validated as far as that needs no algebra, and not
    stored.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows, kind_hint: str | None = None):
        self.n = n
        mask = (1 << n) - 1
        self.rows = tuple((int(r) | (1 << i)) & mask for i, r in enumerate(rows))
        if kind_hint is not None:
            if kind_hint not in KIND_LEVEL:
                raise RelationError(f"unknown kind {kind_hint!r}")
            # the algebra-free part of the hint is enforced here; the
            # admissibility part is checked wherever an algebra is in hand
            if (KIND_LEVEL[kind_hint] >= KIND_LEVEL[TOLERANCE]
                    and not self.is_symmetric()):
                raise RelationError(f"{kind_hint} hint on an asymmetric "
                                    f"relation")
            if kind_hint == CONGRUENCE and not self.is_transitive():
                raise RelationError("congruence hint on an intransitive "
                                    "relation")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "BinRel":
        return BinRel(n, [0] * n, CONGRUENCE)

    @staticmethod
    def full(n: int) -> "BinRel":
        mask = (1 << n) - 1
        return BinRel(n, [mask] * n, CONGRUENCE)

    @staticmethod
    def from_pairs(n: int, pairs, kind_hint: str | None = None) -> "BinRel":
        rows = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise RelationError(f"pair ({a}, {b}) out of range")
            rows[a] |= 1 << b
        return BinRel(n, rows, kind_hint)

    @staticmethod
    def _of(n: int, rows: tuple) -> "BinRel":
        """Wrap rows that are already reflexive and in range, unchecked."""
        rel = object.__new__(BinRel)
        rel.n, rel.rows = n, rows
        return rel

    # -- basic structure ---------------------------------------------------

    def has(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def pairs(self):
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                yield (i, low.bit_length() - 1)
                row ^= low

    def is_symmetric(self) -> bool:
        return self == self.converse()

    def is_transitive(self) -> bool:
        return compose(self, self) <= self

    def to_bitstrings(self) -> list[str]:
        return [format(r, f"0{self.n}b")[::-1] for r in self.rows]

    def __eq__(self, other):
        return (isinstance(other, BinRel) and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __le__(self, other):
        self._check(other)
        return self.rows == tuple(map(int.__and__, self.rows, other.rows))

    def __repr__(self):
        return f"BinRel({self.n}, {{{', '.join(map(str, self.pairs()))}}})"

    def _check(self, other: "BinRel"):
        if self.n != other.n:
            raise RelationError("universe size mismatch")

    # -- calculus ----------------------------------------------------------

    def converse(self) -> "BinRel":
        rows = [0] * self.n
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                rows[low.bit_length() - 1] |= 1 << i
                row ^= low
        return BinRel._of(self.n, tuple(rows))


def compose(r: BinRel, s: BinRel) -> BinRel:
    """(a, c) in r o s  iff  a r b and b s c for some b."""
    r._check(s)
    rows = []
    for row in r.rows:
        acc = 0
        while row:
            low = row & -row
            acc |= s.rows[low.bit_length() - 1]
            row ^= low
        rows.append(acc)
    return BinRel._of(r.n, tuple(rows))


def meet(r: BinRel, s: BinRel) -> BinRel:
    r._check(s)
    return BinRel._of(r.n, tuple(map(int.__and__, r.rows, s.rows)))


def union(r: BinRel, s: BinRel) -> BinRel:
    r._check(s)
    return BinRel._of(r.n, tuple(map(int.__or__, r.rows, s.rows)))


def converse(r: BinRel) -> BinRel:
    return r.converse()


def alt(r: BinRel, s: BinRel, m: int) -> BinRel:
    """Alternating composition r o s o r o ... with exactly m factors.

    m = 0 is rejected here: the empty composition is the identity relation
    by convention, handled at the expression level only.
    """
    if m < 1:
        raise RelationError("alt requires m >= 1")
    r._check(s)
    out = r
    for i in range(1, m):
        out = compose(out, s if i % 2 else r)
    return out


def transitive_closure(r: BinRel) -> BinRel:
    """Square ``r`` until nothing changes; every relation here is
    reflexive, so r <= r o r."""
    square = compose(r, r)
    while square != r:
        r, square = square, compose(square, square)
    return r


# -- packed rows -------------------------------------------------------------
#
# A stack of k relations on n elements as a uint64 array of shape
# (k, n, ceil(n / 64)): bit j of row i is bit j % 64 of word j // 64, words
# little-endian, so a row's bytes are its Python integer's.  The calculus
# below runs on whole stacks, pair by pair: r[c] with s[c].

WORD = np.dtype("<u8")


def pack(rels, n: int) -> np.ndarray:
    """The packed rows of relations on ``n`` elements."""
    if n <= 64:
        # a row is one word: numpy converts the row integers in one step
        return np.array([rel.rows for rel in rels], WORD).reshape(-1, n, 1)
    width = 8 * -(-n // 64)
    data = b"".join(row.to_bytes(width, "little")
                    for rel in rels for row in rel.rows)
    return np.frombuffer(data, WORD).reshape(-1, n, width // 8)


def unpack(data: bytes, n: int) -> BinRel:
    """The relation on ``n`` elements of one packed relation's bytes, which
    must be reflexive."""
    width = len(data) // n
    return BinRel._of(n, tuple(int.from_bytes(data[lo:lo + width], "little")
                               for lo in range(0, len(data), width)))


def _bits(r: np.ndarray, n: int) -> np.ndarray:
    """The packed rows of a stack as 0/1 uint8 rows of ``n`` columns."""
    return np.unpackbits(np.ascontiguousarray(r).view(np.uint8), axis=-1,
                         count=n, bitorder="little")


# the most words of selected rows one step of ``compose_packed`` holds
_COMPOSE_WORDS = 1 << 16


def compose_packed(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """r o s for each pair: row a of the result ORs the rows of ``s`` that
    row a of ``r`` selects.  A step selects the rows for a block of pairs
    and of rows of ``r`` at once, and ORs them in one reduction."""
    k, n, words = r.shape
    out = np.empty_like(s)
    rows = max(1, min(n, _COMPOSE_WORDS // (n * words)))
    pairs = max(1, _COMPOSE_WORDS // (n * rows * words))
    for lo in range(0, k, pairs):
        # axes: row b of s, pair, -, word
        right = s[lo:lo + pairs].transpose(1, 0, 2)[:, :, None]
        for top in range(0, n, rows):
            # axes: column b of r, pair, row a of r
            sel = np.ascontiguousarray(
                _bits(r[lo:lo + pairs, top:top + rows], n).transpose(2, 0, 1))
            np.bitwise_or.reduce(sel[..., None] * right, axis=0,
                                 out=out[lo:lo + pairs, top:top + rows])
    return out


def meet_packed(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    return r & s


def union_packed(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    return r | s


def converse_packed(r: np.ndarray) -> np.ndarray:
    """The converse of each relation: its bit matrix transposed."""
    k, n, words = r.shape
    out = np.zeros((k, n, 8 * words), np.uint8)
    packed = np.packbits(_bits(r, n).swapaxes(1, 2), axis=-1,
                         bitorder="little")
    out[:, :, :packed.shape[2]] = packed
    return out.view(WORD)


def included_packed(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Whether r <= s, for each pair."""
    return ~(r & ~s).any(axis=(1, 2))


def pair_ranks(rels: np.ndarray, most: int) -> np.ndarray:
    """The fewest off-diagonal pairs that generate each relation of a
    stack, or ``most + 1`` where it takes more.

    The stack must hold every relation of one kind, so that it is closed
    under meets: the relation a set of pairs generates is then the least
    one of the stack that holds them, and no closure is run.  A relation of
    rank r is generated by one of rank r - 1 and one more pair, so each
    rank is found from the relations of the rank before: for each of them
    and each pair, the least relation holding both.
    """
    k, n = rels.shape[:2]
    bits = _bits(rels, n).reshape(k, n * n).astype(bool)
    missing, size = ~bits, bits.sum(axis=1)
    pairs = np.flatnonzero(~np.eye(n, dtype=bool))
    holds = bits[:, pairs].T
    ranks = np.full(k, most + 1)
    # the least relation, the meet of all, is generated by no pair
    frontier = np.argmin(size, keepdims=True)
    ranks[frontier] = 0
    step = max(1, (1 << 20) // (k * max(n * n, pairs.size)))
    for rank in range(1, most + 1):
        if not frontier.size:
            break
        found = []
        for lo in range(0, frontier.size, step):
            # y <= x exactly when y holds none of x's missing pairs
            above = ~(bits[frontier[lo:lo + step], None] & missing).any(-1)
            # axes: relation y, pair p, relation x holding y and p
            both = above[:, None] & holds
            found.append(np.where(both, size, n * n + 1).argmin(axis=-1)
                         .reshape(-1))
        found = np.concatenate(found)
        frontier = np.unique(found[ranks[found] > rank])
        ranks[frontier] = rank
    return ranks


# -- compatibility and generation ------------------------------------------


def _images(a: FiniteAlgebra, prs):
    """(f(x1..xr), f(y1..yr)) for every operation f of ``a`` and every
    r-tuple of pairs (xi, yi) from ``prs``; a constant gives a diagonal
    pair."""
    for opname, arity in a.signature.ops:
        table = a.tables[opname]
        for combo in itertools.product(prs, repeat=arity):
            ia = ib = 0
            for x, y in combo:
                ia = ia * a.size + x
                ib = ib * a.size + y
            yield int(table[ia]), int(table[ib])


def is_compatible(a: FiniteAlgebra, r: BinRel, kind: str) -> bool:
    """Check a relation kind exhaustively against the operation tables."""
    if r.n != a.size:
        raise RelationError("relation size does not match algebra")
    if kind not in KIND_LEVEL:
        raise RelationError(f"unknown kind {kind!r}")
    if KIND_LEVEL[kind] >= KIND_LEVEL[TOLERANCE] and not r.is_symmetric():
        return False
    if kind == CONGRUENCE and not r.is_transitive():
        return False
    return all(r.has(x, y) for x, y in _images(a, list(r.pairs())))


def _congruence_from_pairs(a: FiniteAlgebra, pairs) -> BinRel:
    # merge classes along the pairs and their images under unary
    # translations; transitivity makes one-coordinate steps sufficient
    n = a.size
    tables = [a.tables[name].reshape((n,) * arity)
              for name, arity in a.signature.ops]
    label, queue = list(range(n)), list(pairs)
    while queue:
        x, y = queue.pop()
        old, new = label[x], label[y]
        if old == new:
            continue
        label = [new if c == old else c for c in label]
        for table in tables:
            for pos in range(table.ndim):
                queue += zip(table.take(x, axis=pos).ravel().tolist(),
                             table.take(y, axis=pos).ravel().tolist())
    return BinRel(n, [sum(1 << j for j, c in enumerate(label) if c == d)
                      for d in label], CONGRUENCE)


def _closure(a: FiniteAlgebra, bits: int, symmetric: bool) -> int:
    """The least admissible relation, or tolerance when ``symmetric``, that
    holds the pairs of ``bits``: pair (i, j) is bit i * |A| + j.

    Each round applies each operation to every tuple of the round's pairs
    in one index-and-scatter, until a round adds nothing.  A constant gives
    only a diagonal pair, which every relation here holds.
    """
    n = a.size
    rel = np.eye(n, dtype=bool)
    rel.flat[[p for p in range(n * n) if bits >> p & 1]] = True
    ops = [(a.tables[name], arity) for name, arity in a.signature.ops
           if arity]
    count = np.count_nonzero(rel)
    while True:
        xs, ys = np.nonzero(rel)
        for table, arity in ops:
            # blocks of first pairs keep an index array near 2**16 entries
            step = max(1, (1 << 16) // xs.size ** (arity - 1))
            for lo in range(0, xs.size, step):
                ia, ib = xs[lo:lo + step], ys[lo:lo + step]
                for _ in range(arity - 1):
                    ia = (ia[:, None] * n + xs).ravel()
                    ib = (ib[:, None] * n + ys).ravel()
                rel[table[ia], table[ib]] = True
        if symmetric:
            rel |= rel.T
        grown = np.count_nonzero(rel)
        if grown == count:
            return int.from_bytes(
                np.packbits(rel, bitorder="little").tobytes(), "little")
        count = grown


def generate(a: FiniteAlgebra, pairs, kind: str) -> BinRel:
    """Least relation of the given kind containing the seed pairs.

    Admissible relations and tolerances are a vectorized least fixed point
    (``_closure``); congruences merge classes along unary translations.
    """
    if kind not in KIND_LEVEL:
        raise RelationError(f"unknown kind {kind!r}")
    pairs = list(pairs)
    n, bits = a.size, 0
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise RelationError(f"pair ({x}, {y}) out of range")
        bits |= 1 << (x * n + y)
    if kind == CONGRUENCE:
        return _congruence_from_pairs(a, pairs)
    bits = _closure(a, bits, kind == TOLERANCE)
    return BinRel(n, [bits >> (i * n) for i in range(n)], kind)


def cong_join(alpha: BinRel, beta: BinRel) -> BinRel:
    """Join of two congruences: transitive closure of their union."""
    alpha._check(beta)
    for r in (alpha, beta):
        if not (r.is_symmetric() and r.is_transitive()):
            raise RelationError("cong_join requires congruences")
    out = transitive_closure(union(alpha, beta))
    return BinRel(alpha.n, out.rows, CONGRUENCE)


def all_congruences(a: FiniteAlgebra, cap: int = 12) -> list[BinRel]:
    """The full congruence lattice, in order of rows.

    Guarded: raises GuardExceeded for universes larger than ``cap``.
    """
    return sorted(_congruences(a, cap), key=lambda r: r.rows)


# the most joins ``_congruences`` closes in one block
_JOIN_BLOCK = 2048


def _congruences(a: FiniteAlgebra, cap: int = 12):
    """The congruences of ``a`` as the join closure of the principal
    congruences finds them: the identity and the principal ones first,
    then each new join of a frontier congruence with a principal one, in
    order of the frontier and then of the principal congruences.
    Refused (``GuardExceeded``) past ``cap`` elements.

    A block of frontier congruences is joined with every principal one at
    once: the unions are ORed and the whole block squared until no row
    changes.  A block holds about ``_JOIN_BLOCK`` joins, so a listing
    stopped early computes at most that many past its last congruence.
    """
    if a.size > cap:
        raise GuardExceeded(
            f"congruence lattice guard: size {a.size} exceeds cap {cap}")
    n = a.size
    ident = BinRel.identity(n)
    found = {ident.rows: ident}
    principal = []
    for x in range(n):
        for y in range(x + 1, n):
            c = _congruence_from_pairs(a, [(x, y)])
            principal.append(c)
            found[c.rows] = c
    yield from found.values()
    if len(principal) < 2:
        # the join of one principal congruence with itself is no new one
        return
    frontier, joined = pack(found.values(), n), pack(principal, n)
    seen = {rows.tobytes() for rows in frontier}
    step = max(1, _JOIN_BLOCK // len(principal))
    shape, width = joined.shape[1:], joined[0].nbytes
    while len(frontier):
        nxt = []
        for lo in range(0, len(frontier), step):
            data = _closed((frontier[lo:lo + step, None] | joined)
                           .reshape(-1, *shape)).tobytes()
            for at in range(0, len(data), width):
                key = data[at:at + width]
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
                    yield unpack(key, n)
        frontier = np.frombuffer(b"".join(nxt), WORD).reshape(-1, *shape)


def _closed(x: np.ndarray) -> np.ndarray:
    """Each relation of the stack ``x`` closed transitively: the whole
    stack is squared until no row changes."""
    square = compose_packed(x, x)
    while not np.array_equal(square, x):
        x, square = square, compose_packed(square, square)
    return x


def enumerate_relations(a: FiniteAlgebra, kind: str,
                        limit: int | None = None) -> list[BinRel]:
    """Every relation of one kind on ``a``, or the first ``limit`` of them.

    Congruences come in ``all_congruences``'s order, under its guard, but
    the join closure stops once it has found ``limit`` of them: a lattice
    with more gives ``limit`` congruences, not necessarily its least ones.
    Admissible relations and tolerances are the closed sets of ``generate``
    on the off-diagonal pairs, listed by Ganter's NextClosure (Ganter 1984;
    Ganter--Obiedkov, *Conceptual Exploration*, 2016) in increasing order
    of their ``_closure`` bits, the order of a filter over all bitmasks.
    A candidate pair whose own closure adds a more significant pair is
    skipped without a closure.
    """
    if kind == CONGRUENCE:
        return sorted(itertools.islice(_congruences(a), limit),
                      key=lambda r: r.rows)
    if kind not in KIND_LEVEL:
        raise RelationError(f"unknown kind {kind!r}")
    n, symmetric = a.size, kind == TOLERANCE
    offdiag = [1 << (i * n + j) for i in range(n) for j in range(n)
               if i != j]
    single = {bit: _closure(a, bit, symmetric) for bit in offdiag}
    found, cur = [], _closure(a, 0, symmetric)
    while limit is None or len(found) < limit:
        found.append(cur)
        for bit in offdiag:
            if cur & bit:
                cur ^= bit
                continue
            above = -(bit << 1)
            if not single[bit] & above & ~cur:
                nxt = _closure(a, cur | bit, symmetric)
                if not nxt & above & ~cur:
                    cur = nxt
                    break
        else:
            break
    return [BinRel(n, [bits >> (i * n) for i in range(n)]) for bits in found]
