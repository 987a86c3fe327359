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
    # union-find plus unary translations; transitivity makes one-coordinate
    # steps sufficient
    n = a.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(x, y) for x, y in pairs]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        for opname, arity in a.signature.ops:
            if arity == 0:
                continue
            table = a.tables[opname]
            for pos in range(arity):
                for rest in itertools.product(range(n), repeat=arity - 1):
                    ta = rest[:pos] + (x,) + rest[pos:]
                    tb = rest[:pos] + (y,) + rest[pos:]
                    ia = ib = 0
                    for u, v in zip(ta, tb):
                        ia = ia * n + u
                        ib = ib * n + v
                    fa, fb = int(table[ia]), int(table[ib])
                    if find(fa) != find(fb):
                        queue.append((fa, fb))
    rows = [0] * n
    roots = [find(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if roots[i] == roots[j]:
                rows[i] |= 1 << j
    return BinRel(n, rows, CONGRUENCE)


def generate(a: FiniteAlgebra, pairs, kind: str) -> BinRel:
    """Least relation of the given kind containing the seed pairs.

    Computed as a fixed point of: close under every operation applied
    coordinatewise, symmetrize (tolerance and up), transitively close
    (congruence).  Congruences take a faster union-find route.
    """
    if kind not in KIND_LEVEL:
        raise RelationError(f"unknown kind {kind!r}")
    pairs = list(pairs)
    for x, y in pairs:
        if not (0 <= x < a.size and 0 <= y < a.size):
            raise RelationError(f"pair ({x}, {y}) out of range")
    if kind == CONGRUENCE:
        return _congruence_from_pairs(a, pairs)

    rel = BinRel.from_pairs(a.size, pairs)
    while True:
        rows = list(rel.rows)
        for x, y in _images(a, list(rel.pairs())):
            rows[x] |= 1 << y
        new = BinRel._of(a.size, tuple(rows))
        if KIND_LEVEL[kind] >= KIND_LEVEL[TOLERANCE]:
            new = union(new, new.converse())
        if new == rel:
            return BinRel(a.size, rel.rows, kind)
        rel = new


def cong_join(alpha: BinRel, beta: BinRel) -> BinRel:
    """Join of two congruences: transitive closure of their union."""
    alpha._check(beta)
    for r in (alpha, beta):
        if not (r.is_symmetric() and r.is_transitive()):
            raise RelationError("cong_join requires congruences")
    out = transitive_closure(union(alpha, beta))
    return BinRel(alpha.n, out.rows, CONGRUENCE)


def all_congruences(a: FiniteAlgebra, cap: int = 12) -> list[BinRel]:
    """The full congruence lattice, as join-closure of principal congruences.

    Guarded: raises GuardExceeded for universes larger than ``cap``.
    """
    if a.size > cap:
        raise GuardExceeded(
            f"congruence lattice guard: size {a.size} exceeds cap {cap}")
    found: dict[tuple, BinRel] = {}
    ident = BinRel.identity(a.size)
    found[ident.rows] = ident
    principal = []
    for x in range(a.size):
        for y in range(x + 1, a.size):
            c = _congruence_from_pairs(a, [(x, y)])
            principal.append(c)
            found[c.rows] = c
    frontier = list(found.values())
    while frontier:
        nxt = []
        for c in frontier:
            for p in principal:
                j = cong_join(c, p)
                if j.rows not in found:
                    found[j.rows] = j
                    nxt.append(j)
        frontier = nxt
    return sorted(found.values(), key=lambda r: r.rows)
