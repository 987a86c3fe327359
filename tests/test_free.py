import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modbench import free
from modbench.algebras import AlgebraError, FiniteAlgebra, Signature
from modbench.free import (App, CapExceeded, Var, build_free, eval_term,
                           eval_term_vector, parse_term, subst_vars,
                           term_str)
from modbench.relations import CONGRUENCE, generate
from conftest import free_as_algebra, induced_table, random_algebra


def test_build_counts(z2, lattice2, semilattice2):
    assert build_free(z2, 2).n_elements == 4
    assert build_free(lattice2, 3).n_elements == 18
    assert build_free(lattice2, 4).n_elements == 166
    # 64 coordinates fill the packed word, so rows are keyed by fingerprint
    assert build_free(semilattice2, 6).n_elements == 2 ** 6 - 1


def test_z2_f2_elements(z2):
    f = build_free(z2, 2)
    # x, y, the constant 0 and x+y, in discovery order
    terms = [term_str(f.term_of(e)) for e in range(4)]
    assert terms[0] == "x0" and terms[1] == "x1"
    vecs = {tuple(f.vecs[e]) for e in range(4)}
    assert (0, 0, 1, 1) in vecs and (0, 1, 0, 1) in vecs
    assert (0, 0, 0, 0) in vecs and (0, 1, 1, 0) in vecs


def test_determinism(lattice2):
    f1 = build_free(lattice2, 3)
    f2 = build_free(lattice2, 3)
    assert np.array_equal(f1.vecs, f2.vecs)
    assert [f1.term_of(e) for e in range(f1.n_elements)] == \
           [f2.term_of(e) for e in range(f2.n_elements)]


def test_eval_term(z2, lattice2):
    assert eval_term(z2, Var(0), (1, 0)) == 1
    t = App("plus", (Var(0), App("plus", (Var(1), Var(2)))))
    assert eval_term(z2, t, (1, 1, 0)) == 0
    maj = App("join", (App("join", (
        App("meet", (Var(0), Var(1))),
        App("meet", (Var(1), Var(2))))),
        App("meet", (Var(0), Var(2)))))
    assert eval_term(lattice2, maj, (0, 1, 0)) == 0


def test_eval_term_errors(z2):
    with pytest.raises(AlgebraError):
        eval_term(z2, Var(2), (0, 1))
    with pytest.raises(AlgebraError):
        eval_term(z2, App("plus", (Var(0),)), (0,))


def test_term_round_trip():
    t = App("plus", (Var(0), App("plus", (Var(1), Var(2)))))
    assert parse_term(term_str(t)) == t
    assert term_str(t) == "(plus x0 (plus x1 x2))"


def test_subst_vars():
    t = App("f", (Var(0), Var(2)))
    assert subst_vars(t, {0: 0, 2: 3}) == App("f", (Var(0), Var(3)))
    with pytest.raises(AlgebraError):
        subst_vars(t, {0: 0})


def test_term_of_generators(z2):
    f = build_free(z2, 3)
    for i in range(3):
        assert f.term_of(f.generators[i]) == Var(i)


def test_witnesses_reproduce_vectors(z2, lattice2, semilattice2):
    for a, g in [(z2, 2), (lattice2, 3), (semilattice2, 6)]:
        f = build_free(a, g)
        for e in range(f.n_elements):
            vec = eval_term_vector(a, f.term_of(e), g)
            assert np.array_equal(vec, f.vecs[e])


def test_universal_property(z2, lattice2):
    # evaluating witnesses at any generator assignment is a homomorphism
    for a, g in [(z2, 2), (lattice2, 3)]:
        f = build_free(a, g)
        tables = {op: induced_table(f, op) for op in a.signature.names()}
        for assign in itertools.product(range(a.size), repeat=g):
            hom = [eval_term(a, f.term_of(e), assign)
                   for e in range(f.n_elements)]
            for opname, arity in a.signature.ops:
                table = tables[opname]
                for args in itertools.product(range(f.n_elements),
                                              repeat=arity):
                    idx = 0
                    for x in args:
                        idx = idx * f.n_elements + x
                    image = a.apply(opname, tuple(hom[x] for x in args))
                    assert hom[int(table[idx])] == image


def test_cap_exceeded(lattice2):
    with pytest.raises(CapExceeded) as over:
        build_free(lattice2, 4, cap_entries=100)
    # the first element count that does not fit in 100 entries of 16
    assert over.value.elements_reached == 7
    assert "(7 elements of 16 coordinates)" in str(over.value)
    with pytest.raises(CapExceeded):
        build_free(lattice2, 4, work_budget=10)


def test_gen_pair_congruence_matches_worklist(z2, lattice2):
    # cross-check the substitution-kernel path against the generic
    # congruence generation on the free algebra itself
    for a, g in [(z2, 2), (lattice2, 3)]:
        f = build_free(a, g)
        fa = free_as_algebra(f)
        for pairs in ([(0, 1)], [(0, 1), (1, 2)][:g - 1]):
            pairs = [p for p in pairs if p[0] < g and p[1] < g]
            labels = f.gen_pair_congruence(pairs)
            seed = [(f.generators[i], f.generators[j]) for i, j in pairs]
            cg = generate(fa, seed, CONGRUENCE)
            for x in range(f.n_elements):
                for y in range(f.n_elements):
                    assert (labels[x] == labels[y]) == cg.has(x, y)


def test_gen_pair_congruence_rejects_out_of_range_generators(z2):
    f = build_free(z2, 2)
    for pair in ((-1, 0), (0, 2)):
        with pytest.raises(AlgebraError, match="out of range"):
            f.gen_pair_congruence([pair])


def test_gen_pair_congruence_quotient_size(chain3):
    f = build_free(chain3, 4)
    labels = f.gen_pair_congruence([(0, 1)])
    # identifying two free generators leaves a free algebra on 3 generators
    assert int(labels.max()) + 1 == build_free(chain3, 3).n_elements


def test_random_small_builds_are_closed():
    rng = random.Random(11)
    for _ in range(6):
        a = random_algebra(rng, size=2, max_arity=2)
        f = build_free(a, 2)
        fa = free_as_algebra(f)
        for opname, arity in a.signature.ops:
            table = fa.tables[opname]
            assert table.size == f.n_elements ** arity


def _build_outputs(f):
    return (f.vecs.tobytes(), f.vecs.shape, f.generators,
            f._w_op.tobytes(), f._w_args.tobytes())


@pytest.mark.parametrize("fake", [
    lambda rows, weights: np.zeros(rows.shape[0], dtype=np.uint64),
    lambda rows, weights: rows[:, -1] & np.uint64(3),
], ids=["all-equal", "two-low-bits"])
def test_colliding_fingerprints_build_identically(fake, monkeypatch, chain3,
                                                  pixley3):
    # packed rows wider than one word are keyed by fingerprint; forced
    # collisions must send chunks down the exact path, not drop elements
    cases = [(chain3, 3), (chain3, 4), (pixley3, 2)]
    expected = [_build_outputs(build_free(a, g)) for a, g in cases]
    monkeypatch.setattr(free, "_fingerprint", fake)
    for (a, g), want in zip(cases, expected):
        assert _build_outputs(build_free(a, g)) == want


def test_colliding_one_word_fingerprints_build_identically(monkeypatch,
                                                          semilattice2):
    # one-word rows trust that the fingerprint is a bijection; a byteswap is
    # one, and it moves the coordinates that tell elements apart into the
    # low bits that the chunk sort gives up
    want = _build_outputs(build_free(semilattice2, 6))
    monkeypatch.setattr(free, "_fingerprint",
                        lambda rows, weights: rows[:, 0].byteswap())
    assert _build_outputs(build_free(semilattice2, 6)) == want


def _unary_shift(size: int) -> FiniteAlgebra:
    table = [(x - 1) % size for x in range(size)]
    return FiniteAlgebra(f"shift{size}", size, Signature((("f", 1),)),
                         {"f": table})


def test_vectors_reject_more_than_256_values():
    f_x0 = App("f", (Var(0),))
    top = eval_term_vector(_unary_shift(256), f_x0, 1)
    assert int(top[0]) == 255
    big = _unary_shift(257)
    # f(0) = 256 does not fit in uint8 and used to read back as 0
    with pytest.raises(AlgebraError):
        eval_term_vector(big, f_x0, 1)
    with pytest.raises(AlgebraError):
        build_free(big, 1)


_CLOSURE_LIMIT = 40


def _set_closure(a: FiniteAlgebra, g: int):
    """Vectors of F(g) as bytes, by naive fixpoint iteration over a set;
    None once more than _CLOSURE_LIMIT elements appear."""
    size = a.size
    grid = list(itertools.product(range(size), repeat=g))
    elems = {bytes(t[i] for t in grid) for i in range(g)}
    for name, arity in a.signature.ops:
        if arity == 0:
            elems.add(bytes([int(a.tables[name][0])] * len(grid)))
    while len(elems) <= _CLOSURE_LIMIT:
        new = set()
        for name, arity in a.signature.ops:
            table = [int(v) for v in a.tables[name]]
            for args in itertools.product(sorted(elems), repeat=arity):
                out = []
                for column in zip(*args) if args else [()] * len(grid):
                    flat = 0
                    for v in column:
                        flat = flat * size + v
                    out.append(table[flat])
                vec = bytes(out)
                if vec not in elems:
                    new.add(vec)
                    if len(elems) + len(new) > _CLOSURE_LIMIT:
                        return None
        if not new:
            return elems
        elems |= new
    return None


@st.composite
def _small_algebras(draw):
    size = draw(st.sampled_from([2, 3]))
    arities = draw(st.lists(st.integers(0, 3 if size == 2 else 2),
                            min_size=1, max_size=2))
    ops = tuple((f"f{i}", ar) for i, ar in enumerate(arities))
    tables = {name: draw(st.lists(st.integers(0, size - 1),
                                  min_size=size ** ar, max_size=size ** ar))
              for name, ar in ops}
    return FiniteAlgebra("hyp", size, Signature(ops), tables)


@settings(max_examples=40, deadline=None)
@given(a=_small_algebras(), g=st.integers(1, 3))
def test_build_matches_set_closure(a, g):
    want = _set_closure(a, g)
    cap = _CLOSURE_LIMIT * a.size ** g
    if want is None:
        with pytest.raises(CapExceeded):
            build_free(a, g, cap_entries=cap)
        return
    f = build_free(a, g, cap_entries=cap)
    got = [row.tobytes() for row in f.vecs]
    assert len(got) == len(set(got))
    assert set(got) == want
    for e in range(f.n_elements):
        assert np.array_equal(eval_term_vector(a, f.term_of(e), g), f.vecs[e])


# ---------------------------------------------------------------------------
# Chunk size: elements, witnesses and refusals follow the global candidate
# order, never the chunking.

# words per chunk; one word gives one row per chunk, which makes every
# symmetric-pair row of a frontier element past the first larger than a chunk
_CHUNKINGS = [1, 13, free._CHUNK_WORDS]


def _outcome(a, g, **caps):
    try:
        return _build_outputs(build_free(a, g, **caps))
    except CapExceeded as exc:
        return ("refused", str(exc), exc.elements_reached)


def _outcomes_per_chunking(monkeypatch, cases):
    per = []
    for words in _CHUNKINGS:
        monkeypatch.setattr(free, "_CHUNK_WORDS", words)
        per.append([_outcome(a, g, **caps) for a, g, caps in cases])
    return per


def test_corpus_builds_do_not_depend_on_chunk_size(monkeypatch, corpus):
    cases = [(a, g, {"cap_entries": cap, "work_budget": budget})
             for a in corpus.values() for g in (1, 2, 3, 4)
             for cap, budget in ((200, 10 ** 7), (2_000, 10 ** 7),
                                 (2_000, 10 ** 5))]
    per = _outcomes_per_chunking(monkeypatch, cases)
    refused = [o for o in per[0] if o[0] == "refused"]
    assert any("vector entries" in o[1] for o in refused)
    assert any("work budget" in o[1] for o in refused)
    assert len(refused) < len(cases)
    assert per[1] == per[0] and per[2] == per[0]


@settings(max_examples=25, deadline=None)
@given(a=_small_algebras(), g=st.integers(1, 3))
def test_random_builds_do_not_depend_on_chunk_size(a, g):
    cases = [(a, g, {"cap_entries": 12 * a.size ** g})]
    with pytest.MonkeyPatch.context() as mp:
        per = _outcomes_per_chunking(mp, cases)
    assert per[1] == per[0] and per[2] == per[0]


# ---------------------------------------------------------------------------
# Compiled operations against direct table lookup


def _lookup_rows(table, size, vals_per_arg):
    flat = np.zeros_like(vals_per_arg[0], dtype=np.int64)
    for vals in vals_per_arg:
        flat = flat * size + vals
    return table[flat].astype(np.uint8)


def _table_cases():
    rng = np.random.default_rng(7)
    for size in range(1, 6):
        for arity in (1, 2, 3):
            n = size ** arity
            yield size, arity, rng.integers(0, size, n)
            yield size, arity, np.full(n, size - 1)          # constant
            yield size, arity, np.zeros(n, dtype=np.int64)   # constant 0
            for i in range(arity):                           # projections
                yield size, arity, (np.arange(n) // size ** (arity - 1 - i)
                                    % size)


@pytest.mark.parametrize("c", [1, 100])
def test_compiled_ops_match_table_lookup(c):
    rng = np.random.default_rng(c)
    m = 50
    for size, arity, table in _table_cases():
        n_planes = max(1, (size - 1).bit_length())
        words = (c + 63) // 64
        builder = free._Builder(n_planes, words, 10 ** 9, c, arity)
        vals = [rng.integers(0, size, (m, c)).astype(np.uint8)
                for _ in range(arity)]
        arg_rows = [free._pack_planes(v, n_planes, words) for v in vals]
        program = free._compile_op(table, size, arity, n_planes)
        got = free._run_op(builder, program, arg_rows)
        want = _lookup_rows(table, size, vals)
        # packed from c coordinates, so the padded tail bits are zero
        assert np.array_equal(
            got, free._pack_planes(want, n_planes, words)), (size, arity,
                                                            table)
