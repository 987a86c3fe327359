import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
