import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from modbench.relations import (ADMISSIBLE, CONGRUENCE, TOLERANCE, BinRel,
                                GuardExceeded, RelationError,
                                all_congruences, alt, compose, cong_join,
                                converse, enumerate_relations, generate,
                                is_compatible, meet, transitive_closure,
                                union)
from modbench import relations
from modbench.algebras import FiniteAlgebra, Signature
from conftest import random_algebra


def rel_from_partition(blocks, n):
    pairs = [(x, y) for b in blocks for x in b for y in b]
    return BinRel.from_pairs(n, pairs)


# the two nontrivial congruences of the 3-chain
BETA = rel_from_partition([[0, 1], [2]], 3)
GAMMA = rel_from_partition([[0], [1, 2]], 3)


def naive_compose(r, s):
    pairs = set()
    for a, b in r.pairs():
        for b2, c in s.pairs():
            if b == b2:
                pairs.add((a, c))
    return BinRel.from_pairs(r.n, pairs)


def test_compose_examples():
    assert compose(BETA, GAMMA).has(0, 2)
    assert not compose(GAMMA, BETA).has(0, 2)
    r = BinRel.from_pairs(3, [(0, 1), (2, 1)])
    assert compose(r, BinRel.identity(3)) == r
    assert compose(BETA, GAMMA) == naive_compose(BETA, GAMMA)


def test_meet_converse_examples():
    assert meet(BETA, GAMMA) == BinRel.identity(3)
    r = BinRel.from_pairs(3, [(0, 2), (1, 0)])
    assert converse(converse(r)) == r
    tol = union(r, r.converse())
    assert converse(tol) == tol


def test_alt_examples():
    assert alt(BETA, GAMMA, 1) == BETA
    assert alt(BETA, BETA, 5) == BETA  # congruences are idempotent
    assert alt(BETA, GAMMA, 3) == BinRel.full(3)
    with pytest.raises(RelationError):
        alt(BETA, GAMMA, 0)


def test_size_mismatch():
    with pytest.raises(RelationError):
        compose(BETA, BinRel.identity(2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_associative_and_converse_antihom(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    def rel():
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=6))
        return BinRel.from_pairs(n, pairs)
    r, s, t = rel(), rel(), rel()
    assert compose(compose(r, s), t) == compose(r, compose(s, t))
    assert compose(r, s).converse() == compose(s.converse(), r.converse())


def test_is_compatible_corpus(corpus):
    for a in corpus.values():
        assert is_compatible(a, BinRel.identity(a.size), CONGRUENCE)
        assert is_compatible(a, BinRel.full(a.size), CONGRUENCE)


def test_is_compatible_chain3(chain3):
    r = BinRel.from_pairs(3, [(0, 1)])
    assert is_compatible(chain3, r, ADMISSIBLE)
    assert not is_compatible(chain3, r, TOLERANCE)  # not symmetric
    assert not is_compatible(chain3, r, CONGRUENCE)


def test_generate_chain3(chain3):
    cg01 = generate(chain3, [(0, 1)], CONGRUENCE)
    assert cg01 == BETA
    cg02 = generate(chain3, [(0, 2)], CONGRUENCE)
    assert cg02 == BinRel.full(3)
    assert generate(chain3, [], CONGRUENCE) == BinRel.identity(3)


def test_cong_join(chain3):
    assert cong_join(BETA, BETA) == BETA
    assert cong_join(BETA, BinRel.identity(3)) == BETA
    assert cong_join(BETA, GAMMA) == BinRel.full(3)
    with pytest.raises(RelationError):
        cong_join(BETA, BinRel.from_pairs(3, [(0, 1)]))


def test_all_congruences_counts(corpus):
    assert len(all_congruences(corpus["chain3"])) == 4
    assert len(all_congruences(corpus["z2"])) == 2
    assert len(all_congruences(corpus["one"])) == 1
    assert len(all_congruences(corpus["lattice2"])) == 2
    assert len(all_congruences(corpus["pixley3"])) == 2


def test_all_congruences_guard(corpus):
    with pytest.raises(GuardExceeded):
        all_congruences(corpus["z2"], cap=1)


# -- brute-force oracles -----------------------------------------------------


def enumerate_kind(a, kind):
    """All relations of the kind, by exhausting off-diagonal bitmasks.

    A mask is kept when it is symmetric (for tolerances and congruences),
    transitive (for congruences), and each operation, gathered at once
    over every tuple of its pairs, lands back in it.
    """
    n = a.size
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    ops = [(np.asarray(a.tables[name]), arity)
           for name, arity in a.signature.ops if arity]

    def closed(held, table, arity):
        xs, ys = np.nonzero(held)
        # column t of ``pick`` indexes the pairs of the t-th arity-tuple
        pick = np.indices((xs.size,) * arity).reshape(arity, -1)
        ia = np.ravel_multi_index(xs[pick], (n,) * arity)
        ib = np.ravel_multi_index(ys[pick], (n,) * arity)
        return held[table[ia], table[ib]].all()

    out = []
    for mask in range(1 << len(offdiag)):
        pairs = [offdiag[t] for t in range(len(offdiag)) if (mask >> t) & 1]
        held = np.eye(n, dtype=bool)
        for x, y in pairs:
            held[x, y] = True
        if kind != ADMISSIBLE and (held != held.T).any():
            continue
        if kind == CONGRUENCE and (held @ held > held).any():
            continue
        if all(closed(held, table, arity) for table, arity in ops):
            out.append(BinRel.from_pairs(n, pairs))
    return out


def minimal_containing(a, seed, kind):
    """Intersection of every kind-relation containing the seed (the kinds
    are closed under intersection, so this is the least one)."""
    acc = BinRel.full(a.size)
    for r in enumerate_kind(a, kind):
        if all(r.has(x, y) for x, y in seed):
            acc = meet(acc, r)
    return acc


def all_congruences_by_partitions(a):
    """Filter every partition of the universe for compatibility."""
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part
    out = set()
    for part in partitions(list(range(a.size))):
        r = rel_from_partition(part, a.size)
        if is_compatible(a, r, CONGRUENCE):
            out.add(r)
    return out


@pytest.mark.parametrize("seed", [7, 19])
def test_generate_matches_bruteforce_sample(seed):
    rng = random.Random(seed)
    for _ in range(8):
        a = random_algebra(rng, size=rng.choice([2, 3, 4]), max_arity=3)
        pairs = [(rng.randrange(a.size), rng.randrange(a.size))
                 for _ in range(rng.choice([0, 1, 2, 3]))]
        for kind in (ADMISSIBLE, TOLERANCE, CONGRUENCE):
            assert generate(a, pairs, kind) == minimal_containing(
                a, pairs, kind)


@st.composite
def _small_algebras(draw):
    size = draw(st.integers(1, 4))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    ops = tuple((f"f{i}", ar) for i, ar in enumerate(arities))
    tables = {name: draw(st.lists(st.integers(0, size - 1),
                                  min_size=size ** ar, max_size=size ** ar))
              for name, ar in ops}
    return FiniteAlgebra("hyp", size, Signature(ops), tables)


def test_enumerate_relations_matches_bruteforce_on_corpus(corpus):
    for a in corpus.values():
        for kind in (ADMISSIBLE, TOLERANCE):
            assert enumerate_relations(a, kind) == enumerate_kind(a, kind)


# constant and projection ternary tables keep every one of the 2**12
# reflexive relations on four elements, the oracle's slowest case
_CONST4 = FiniteAlgebra("const4", 4, Signature((("f0", 3),)), {"f0": [0] * 64})
_PROJ4 = FiniteAlgebra("proj4", 4, Signature((("f0", 3),)),
                       {"f0": [i // 16 for i in range(64)]})


@settings(max_examples=30, deadline=None)
@given(a=_small_algebras(), kind=st.sampled_from((ADMISSIBLE, TOLERANCE)))
@example(a=_CONST4, kind=ADMISSIBLE)
@example(a=_PROJ4, kind=ADMISSIBLE)
def test_enumerate_relations_matches_bruteforce(a, kind):
    # the same relations in the same (bitmask) order, and a limit keeps a
    # prefix of them
    want = enumerate_kind(a, kind)
    assert enumerate_relations(a, kind) == want
    assert enumerate_relations(a, kind, 2) == want[:2]


def test_all_congruences_matches_partition_filter():
    rng = random.Random(3)
    for _ in range(6):
        a = random_algebra(rng, size=rng.choice([2, 3]), max_arity=2)
        assert set(all_congruences(a)) == all_congruences_by_partitions(a)


def _joins_by_cong_join(a):
    """The congruences in the join closure's order of discovery, every join
    through the checked ``cong_join``."""
    n = a.size
    principal = [generate(a, [(x, y)], CONGRUENCE)
                 for x in range(n) for y in range(x + 1, n)]
    found = dict.fromkeys([BinRel.identity(n)] + principal)
    frontier = list(found)
    while frontier:
        nxt = []
        for c in frontier:
            for p in principal:
                j = cong_join(c, p)
                if j not in found:
                    found[j] = None
                    nxt.append(j)
        frontier = nxt
    return list(found)


def test_congruence_listing_matches_checked_joins(corpus):
    # the unary identity operation on seven elements: all 877 equivalence
    # relations are congruences
    s7 = FiniteAlgebra("s7", 7, Signature((("f", 1),)), {"f": list(range(7))})
    for a in [*corpus.values(), s7]:
        want = _joins_by_cong_join(a)
        assert list(relations._congruences(a)) == want
        assert all_congruences(a) == sorted(want, key=lambda r: r.rows)
    assert len(want) == 877


def _nested_join_closure(a):
    """The congruences as a nested loop over the frontier and the principal
    congruences finds them, one transitive closure per join: the order
    that the block closure of ``relations._congruences`` keeps."""
    ident = BinRel.identity(a.size)
    found = {ident.rows: ident}
    principal = []
    for x in range(a.size):
        for y in range(x + 1, a.size):
            c = generate(a, [(x, y)], CONGRUENCE)
            principal.append(c)
            found[c.rows] = c
    yield from found.values()
    frontier = list(found.values())
    while frontier:
        nxt = []
        for c in frontier:
            for p in principal:
                j = transitive_closure(union(c, p))
                if j.rows not in found:
                    found[j.rows] = j
                    nxt.append(j)
                    yield j
        frontier = nxt


def _unary_identity(n):
    return FiniteAlgebra(f"s{n}", n, Signature((("f", 1),)),
                         {"f": list(range(n))})


def _assert_nested_order(a):
    want = list(_nested_join_closure(a))
    assert list(relations._congruences(a)) == want
    for limit in sorted({1, 2, 3, 7, 40, len(want) - 1, len(want),
                         len(want) + 1}):
        assert enumerate_relations(a, CONGRUENCE, limit) == sorted(
            want[:limit], key=lambda r: r.rows), limit
    return want


@pytest.mark.parametrize("block", [1, 40, relations._JOIN_BLOCK])
def test_block_joins_keep_the_nested_order(corpus, monkeypatch, block):
    # s5 and s6: all 52 and 203 equivalence relations are congruences, so
    # a block of 1 or 40 joins cuts every frontier into several blocks
    monkeypatch.setattr(relations, "_JOIN_BLOCK", block)
    for a in corpus.values():
        _assert_nested_order(a)
    assert [len(_assert_nested_order(_unary_identity(n)))
            for n in (5, 6)] == [52, 203]


@settings(max_examples=60, deadline=None)
@given(a=_small_algebras(), block=st.sampled_from((1, 5, 2048)))
def test_block_joins_keep_the_nested_order_on_random_algebras(a, block):
    with mock.patch.object(relations, "_JOIN_BLOCK", block):
        _assert_nested_order(a)


@st.composite
def _packed_operands(draw):
    """Pairs of reflexive relations on n elements, n about the 64-bit word
    boundaries, each pair of one drawn density."""
    n = draw(st.sampled_from((1, 2, 3, 63, 64, 65, 130)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def rel(density):
        rows = rng.random((n, n)) < density
        return BinRel(n, [int.from_bytes(np.packbits(row, bitorder="little")
                                         .tobytes(), "little")
                          for row in rows])

    densities = draw(st.lists(st.sampled_from((0.0, 0.02, 0.1, 0.5)),
                              min_size=1, max_size=5))
    return n, [(rel(d), rel(d)) for d in densities]


@settings(max_examples=80, deadline=None)
@given(case=_packed_operands(), words=st.sampled_from((1, 1_000, 1 << 16)))
def test_packed_kernels_match_the_scalar_calculus(case, words):
    # a step of one word composes one row of one pair at a time, and one of
    # 1,000 words a few rows of a wide pair or many narrow pairs
    n, pairs = case
    rs, ss = [r for r, _ in pairs], [s for _, s in pairs]
    r, s = relations.pack(rs, n), relations.pack(ss, n)
    assert r.shape == (len(pairs), n, -(-n // 64))

    def rels(stack):
        return [relations.unpack(rows.tobytes(), n) for rows in stack]

    assert rels(r) == rs
    with mock.patch.object(relations, "_COMPOSE_WORDS", words):
        assert rels(relations.compose_packed(r, s)) == [
            compose(x, y) for x, y in pairs]
    assert rels(relations.meet_packed(r, s)) == [meet(x, y) for x, y in pairs]
    assert rels(relations.union_packed(r, s)) == [
        union(x, y) for x, y in pairs]
    assert rels(relations.converse_packed(r)) == [x.converse() for x in rs]
    assert relations.included_packed(r, s).tolist() == [
        x <= y for x, y in pairs]
    assert relations.included_packed(relations.meet_packed(r, s), s).all()


def test_absorption_identity_on_corpus(corpus):
    # a & (b o (a & g)) = (a & b) o (a & g) for congruences
    for a in corpus.values():
        congs = all_congruences(a)
        for al, be, ga in itertools.product(congs, repeat=3):
            left = meet(al, compose(be, meet(al, ga)))
            right = compose(meet(al, be), meet(al, ga))
            assert left == right


def test_congruence_props_on_corpus(corpus):
    for a in corpus.values():
        for c in all_congruences(a):
            assert compose(c, c) == c
            assert c.converse() == c


def test_transitive_closure():
    r = BinRel.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert transitive_closure(r).has(0, 3)


@st.composite
def _reflexive_relations(draw):
    n = draw(st.integers(1, 6))
    point = st.integers(0, n - 1)
    return BinRel.from_pairs(n, draw(st.sets(st.tuples(point, point))))


def _closure_oracle(r):
    pairs = set(r.pairs())
    while True:
        more = {(x, z) for x, y in pairs for y2, z in pairs if y == y2}
        if more <= pairs:
            return pairs
        pairs |= more


@settings(max_examples=300, deadline=None)
@given(r=_reflexive_relations())
def test_transitivity_matches_a_set_oracle(r):
    closed = _closure_oracle(r)
    assert r.is_transitive() == (closed == set(r.pairs()))
    closure = transitive_closure(r)
    assert set(closure.pairs()) == closed
    assert closure.is_transitive()


@settings(max_examples=40, deadline=None)
@given(a=_small_algebras(), most=st.integers(0, 6),
       kind=st.sampled_from((ADMISSIBLE, TOLERANCE, CONGRUENCE)))
def test_pair_ranks_are_the_fewest_generating_pairs(a, most, kind):
    # against generate over every set of off-diagonal pairs, smallest first
    assume(a.size <= 3)
    n = a.size
    rels = enumerate_relations(a, kind)
    offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
    want = {}
    for size in range(len(offdiag) + 1):
        for pairs in itertools.combinations(offdiag, size):
            want.setdefault(generate(a, pairs, kind), size)
    assert set(want) == set(rels)
    ranks = relations.pair_ranks(relations.pack(rels, n), most)
    assert ranks.tolist() == [min(want[r], most + 1) for r in rels]
