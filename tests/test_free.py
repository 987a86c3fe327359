import contextlib
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modbench import free
from modbench.algebras import AlgebraError, FiniteAlgebra, Signature
from modbench.free import (App, CapExceeded, Var, build_free, eval_term,
                           eval_term_vector, parse_term, subst_vars,
                           term_str)
from modbench.catalog import get_entry
from modbench.chains import search_day, search_gumm, search_jonsson
from modbench.checks import PWContext, pw_check, spectrum
from modbench.relations import CONGRUENCE, generate
from modbench.report import consistency_report
from conftest import (free_as_algebra, induced_table, median3_table,
                      random_algebra)


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


def test_variable_indices_take_ascii_digits_only():
    assert parse_term("(meet x0 x3)") == App("meet", (Var(0), Var(3)))
    for bad in ("(meet x0 x\u0663)", "x\u00b2", "x"):
        with pytest.raises(ValueError, match="bad variable token"):
            parse_term(bad)


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


@pytest.mark.parametrize("ordered", [True, False])
def test_built_arrays_are_read_only(lattice2, ordered):
    f = build_free(lattice2, 3, ordered=ordered)
    for array in (f.vecs, f._w_op, f._w_args):
        with pytest.raises(ValueError, match="read-only"):
            array[-1] = 0


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


def _row_unique_labels(f, pairs):
    """gen_pair_congruence's labels by np.unique over rows (axis=0)."""
    mask = np.ones(f.tuple_count, dtype=bool)
    for i, j in pairs:
        mask &= f.vecs[f.generators[i]] == f.vecs[f.generators[j]]
    _, labels = np.unique(f.vecs[:, mask], axis=0, return_inverse=True)
    return labels.ravel()


def test_gen_pair_congruence_labels_match_row_unique(corpus):
    pair_sets = ([], [(0, 1)], [(1, 0)], [(0, 2)], [(0, 1), (1, 2)],
                 [(0, 2), (1, 2)], [(0, 1), (0, 2), (1, 2)])
    for a in corpus.values():
        for g in (3, 4):
            try:
                f = build_free(a, g, cap_entries=20_000)
            except CapExceeded:
                continue
            for pairs in pair_sets:
                assert np.array_equal(f.gen_pair_congruence(pairs),
                                      _row_unique_labels(f, pairs))


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


# packed rows are word-major, one column per candidate row
@pytest.mark.parametrize("fake", [
    lambda rows, weights: np.zeros(rows.shape[1], dtype=np.uint64),
    lambda rows, weights: (rows[-1] & 3).astype(np.uint64),
], ids=["all-equal", "two-low-bits"])
def test_colliding_fingerprints_build_identically(fake, monkeypatch, chain3,
                                                  pixley3):
    # packed rows wider than one word are keyed by fingerprint; forced
    # collisions must send chunks down the exact path, not drop elements,
    # with equal keys in either index level
    cases = [(chain3, 3), (chain3, 4), (pixley3, 2)]
    expected = [_build_outputs(build_free(a, g)) for a, g in cases]
    monkeypatch.setattr(free, "_fingerprint", fake)
    for share in _SIDE_SHARES:
        monkeypatch.setattr(free, "_SIDE_SHARE", share)
        for (a, g), want in zip(cases, expected):
            assert _build_outputs(build_free(a, g)) == want, share


def test_colliding_one_word_fingerprints_build_identically(monkeypatch,
                                                          semilattice2):
    # one-word rows trust that the fingerprint is a bijection; a byteswap is
    # one, and it moves the coordinates that tell elements apart into the
    # low bits that the chunk sort gives up
    want = _build_outputs(build_free(semilattice2, 6))
    monkeypatch.setattr(free, "_fingerprint",
                        lambda rows, weights: rows[0].byteswap())
    for share in _SIDE_SHARES:
        monkeypatch.setattr(free, "_SIDE_SHARE", share)
        assert _build_outputs(build_free(semilattice2, 6)) == want, share


@st.composite
def _exact_chunks(draw):
    """(dtype, known rows, chunk rows) as tuples of one to three words, with
    zero and all-ones bytes in every position, and repeats within the chunk
    and of known rows."""
    dtype = draw(st.sampled_from((np.uint8, np.uint16, np.uint32, np.uint64)))
    top = int(np.iinfo(dtype).max)
    word = st.sampled_from(sorted({0, 1, 1 << 7, top >> 1, top}))
    row = st.tuples(*[word] * draw(st.integers(1, 3)))
    known = draw(st.lists(row, max_size=6, unique=True))
    chunk = draw(st.lists(st.sampled_from(known) | row if known else row,
                          min_size=1, max_size=30))
    return dtype, known, chunk


@settings(max_examples=80, deadline=None)
@given(case=_exact_chunks())
def test_exact_new_rows_match_a_set_oracle(case):
    dtype, known, chunk = case
    seen, want = set(known), []
    for pos, row in enumerate(chunk):
        if row not in seen:
            seen.add(row)
            want.append(pos)
    words = len(chunk[0])
    # a stand-in builder: word-major element rows, with spare columns past
    # its n elements that must not count as known
    stored = np.full((words, len(known) + 3), np.iinfo(dtype).max,
                     dtype=dtype)
    if known:
        stored[:, :len(known)] = np.array(known, dtype=dtype).T
    builder = types.SimpleNamespace(rows=stored, n=len(known))
    # word-major candidates: a transposed view, not C-contiguous
    rows = np.array(chunk, dtype=dtype).T
    got = free._Builder._new_rows_exact(builder, rows)
    assert got.tolist() == want


def test_an_empty_chunk_has_no_new_rows():
    # (planes, coordinates): dense tables of uint8 and uint16 rows, one-word
    # rows keyed exactly or by fingerprint, and multiword rows; each with no
    # element and with one
    paths = []
    for planes, c in ((1, 8), (1, 16), (1, 32), (1, 64), (2, 81)):
        builder = free._Builder(planes, c, 10 ** 7, 2)
        paths.append((builder._dense is not None, builder.exact,
                      builder.width))
        for _ in range(2):
            got = builder.new_rows(builder.rows[:, :0])
            assert (got.dtype, got.size) == (np.int64, 0), (planes, c)
            builder.append(np.ones((builder.width, 1), builder.rows.dtype),
                           -1, np.zeros((1, 1), dtype=np.int64))
    assert paths == [(True, True, 1), (True, True, 1), (False, True, 1),
                     (False, False, 1), (False, False, 4)]


def _digest(outcome):
    h = hashlib.sha256()
    for part in outcome:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# digests of _build_outputs, and refusals as (message, elements_reached),
# recorded with the row-major closure store that the word-major one replaced;
# the one-word F(lattice2, 5) and F(semilattice2, 6) were recorded with the
# closure that gathered per-candidate argument index arrays, and the cases
# after F(lattice2, 6) with the closure that stored every row in uint64
# words and kept every key in the sorted index, and the constants' cases with
# the closure that seeded by scanning the known elements
_GOLDEN = [
    ("chain3", 3, {},
     "3bf5c70bfbc6700d04b9b48aee5a7387b40006fc2e7036261c2867f331c8533f"),
    ("chain3", 4, {},
     "1faa3a68551744185b7df3cfe19a32b169fae4c65467d00fdce5e7341ad54e43"),
    ("pixley3", 2, {},
     "3489f7917a47947ef75932e20169b0e83456ab15f761bba71ee5834873a7b98f"),
    ("pixley3", 3, {},
     "118888244c3f6a8c257510a141555f7a71b6c63d00ca56068e97411e861ed91f"),
    ("rand3", 4, {},
     "e3b62631d7f69500284563caef309424d4347db1917cb152934f133948c03b00"),
    ("rand3", 4, {"cap_entries": 8100},
     ("free algebra exceeds 8100 vector entries "
      "(101 elements of 81 coordinates)", 101)),
    ("rand3", 4, {"work_budget": 100000},
     ("free algebra work budget exceeded (next closure level needs 308880 "
      "more units of 100000)", 94)),
    # one-word rows: exact keys, then one-word fingerprints
    ("lattice2", 5, {},
     "c8b03a1337b588b1d80c2db7cca90f680091ecd5519b12470befc7a431953bcb"),
    ("semilattice2", 6, {},
     "05947d979b49eec7051223c8f4b8dcd7ca4adf65b9603ee0cae00f831bf70eb0"),
    ("lattice2", 6, {},
     ("free algebra exceeds 10000000 vector entries "
      "(156251 elements of 64 coordinates)", 156251)),
    # one narrow word per plane: uint8 and uint16 rows in the dense table,
    # then masked two-plane uint16 and uint32 rows in the sorted index
    ("rand2-1", 3, {},
     "41b062e5fafac871b578864546831b30265c57ef4753258400fb901df14bc27b"),
    ("lattice2", 4, {},
     "4efbe73c8464860f518f407c388a3933610cdaadf489be9db55f6f1dd51d8a1f"),
    ("rand2-72", 4, {},
     "bf9d836652e407589d837b796a4ceb10b8ad7179c7ddcf5ef5ca4901e5027119"),
    ("rand2-72", 4, {"cap_entries": 4800},
     ("free algebra exceeds 4800 vector entries "
      "(301 elements of 16 coordinates)", 301)),
    ("rand2-72", 4, {"work_budget": 10 ** 8},
     ("free algebra work budget exceeded (next closure level needs "
      "279411832 more units of 100000000)", 327)),
    ("rand3-16", 2, {},
     "cd7d4b3915cc406a11ecb5816c921ea6b3835dde2abd26c64854a276f9980d8b"),
    ("rand3", 3, {},
     "a554ed2330ae39f128904f30c39cd7e516efcfd4e092b3fca5fee0db70d5486c"),
    # constants: one generator element for all three; a constant equal to
    # an earlier one; two distinct constants
    ("one", 3, {},
     "1ea37c0c30e3c5cd349478d2acce4576434d5d54a36deceaf51bbd283e80ab5b"),
    ("consts2", 3, {},
     "3f408968983338a384697ceafdabf9a0b986cbad807bffc6d2c33b6f3d6d1ed7"),
    ("consts3", 2, {},
     "5cd8673212e70a28fe88cece9f3eb1fab26d006ee47feb2286f6caae59e95c23"),
]


def _golden_algebra(corpus, name):
    if name == "consts2":
        # implication between two equal constants
        return FiniteAlgebra("consts2", 2,
                             Signature((("c", 0), ("imp", 2), ("d", 0))),
                             {"c": [1], "imp": [1, 1, 0, 1], "d": [1]})
    if name == "consts3":
        # x - y + z mod 3 between the constants 0 and 2
        return FiniteAlgebra(
            "consts3", 3, Signature((("a", 0), ("p", 3), ("b", 0))),
            {"a": [0], "b": [2],
             "p": [(x - y + z) % 3
                   for x, y, z in itertools.product(range(3), repeat=3)]})
    if name == "rand3":
        # one non-symmetric binary operation; g = 4 gives 81 coordinates,
        # two words per plane
        return random_algebra(random.Random(0), size=3, max_arity=2)
    if name.startswith("rand"):
        # rand<size>-<seed>: rand2-1 and rand2-72 have one ternary
        # operation, rand3-16 one binary operation
        size, seed = name[len("rand"):].split("-")
        return random_algebra(random.Random(int(seed)), size=int(size),
                              max_arity=3)
    return corpus[name]


@pytest.mark.parametrize("name, g, caps, want", _GOLDEN,
                         ids=[f"{n}-g{g}-{'-'.join(c) or 'full'}"
                              for n, g, c, _ in _GOLDEN])
def test_builds_match_recorded_digests(corpus, name, g, caps, want):
    a = _golden_algebra(corpus, name)
    if isinstance(want, tuple):
        with pytest.raises(CapExceeded) as info:
            build_free(a, g, **caps)
        assert (str(info.value), info.value.elements_reached) == want
    else:
        assert _digest(_build_outputs(build_free(a, g, **caps))) == want


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
def _small_algebras(draw, sizes=(2, 3)):
    size = draw(st.sampled_from(sizes))
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
    _assert_matches_set_closure(a, g)


# 3 ** 4 = 81 coordinates: two words per plane
@settings(max_examples=30, deadline=None)
@given(a=_small_algebras(sizes=(3,)))
def test_wide_build_matches_set_closure(a):
    _assert_matches_set_closure(a, 4)


# one uint8 word per row (g = 2, 3): the dense element table
@settings(max_examples=40, deadline=None)
@given(a=_small_algebras(sizes=(2,)), g=st.integers(2, 3))
def test_dense_build_matches_set_closure(a, g):
    _assert_matches_set_closure(a, g)


def _assert_matches_set_closure(a, g):
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
    _assert_chunking_free(a, g)


@settings(max_examples=30, deadline=None)
@given(a=_small_algebras(sizes=(3,)))
def test_wide_random_builds_do_not_depend_on_chunk_size(a):
    _assert_chunking_free(a, 4)


def _assert_chunking_free(a, g):
    cases = [(a, g, {"cap_entries": 12 * a.size ** g})]
    with pytest.MonkeyPatch.context() as mp:
        per = _outcomes_per_chunking(mp, cases)
    assert per[1] == per[0] and per[2] == per[0]


def _indexed(n, chunk):
    """A stand-in builder whose one-word rows hold their own element index,
    so the argument rows a chunk broadcasts read back as element indices."""
    return types.SimpleNamespace(rows=np.arange(n, dtype=np.uint64)[None, :],
                                 chunk=chunk)


def _chunk_tuples(arg_rows, pick, args_of):
    """The argument tuples of one chunk, in candidate order, checked against
    the witnesses ``args_of`` recovers from the positions."""
    shape = np.broadcast_shapes(*(rows.shape[1:] for rows in arg_rows))
    cols = [np.broadcast_to(rows[0], shape).ravel() for rows in arg_rows]
    if pick is not None:
        cols = [col[pick] for col in cols]
    got = list(zip(*(col.tolist() for col in cols)))
    assert args_of(np.arange(len(got))).tolist() == [list(t) for t in got]
    return got


@pytest.mark.parametrize("sizes, offsets", [
    ([7], [3]), ([3, 5], [0, 2]), ([2, 3, 4], [1, 0, 5])])
@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 6, 7, 100])
def test_block_chunks_enumerate_the_block_in_order(sizes, offsets, chunk):
    n = max(s + off for s, off in zip(sizes, offsets))
    domains = [range(off, off + s) for s, off in zip(sizes, offsets)]
    chunks = [_chunk_tuples(*c)
              for c in free._block_args(_indexed(n, chunk), domains)]
    # a one-word exact key packs the chunk position in the bits beside the
    # row, which holds only while no chunk exceeds ``chunk`` rows
    assert all(1 <= len(c) <= chunk for c in chunks)
    assert sum(chunks, []) == list(itertools.product(*domains))


@pytest.mark.parametrize("domains", [
    [np.array([4, 0, 2])], [np.array([5, 1]), range(2, 6)],
    [range(3), np.array([6, 3]), np.array([0, 2, 1])]])
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 100])
def test_block_chunks_take_index_arrays(domains, chunk):
    # the level count puts its orbit representatives, an index array, on
    # one position of a block
    chunks = [_chunk_tuples(*c)
              for c in free._block_args(_indexed(7, chunk), domains)]
    assert all(1 <= len(c) <= chunk for c in chunks)
    assert sum(chunks, []) == list(itertools.product(
        *(d.tolist() if isinstance(d, np.ndarray) else d for d in domains)))


@pytest.mark.parametrize("old, total", [(0, 1), (0, 6), (3, 9), (10, 12)])
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 100])
def test_pair_chunks_enumerate_the_triangle_in_order(old, total, chunk):
    chunks = [_chunk_tuples(*c)
              for c in free._pair_args(_indexed(total, chunk), old, total)]
    # more than ``chunk`` pairs only in a chunk of one x, whose x + 1 pairs
    # still fit the exact key's position bits
    assert all(1 <= len(c) <= chunk or len({x for x, _ in c}) == 1
               for c in chunks)
    assert sum(chunks, []) == [(x, y) for x in range(old, total)
                               for y in range(x + 1)]


def _first_per_multiset(old, total, ar):
    """The level's argument tuples in the canonical block order, each kept
    only where its multiset first occurs."""
    seen, out = set(), []
    for p in range(ar if old else 1):
        for t in itertools.product(*([range(old)] * p + [range(old, total)]
                                     + [range(total)] * (ar - 1 - p))):
            if tuple(sorted(t)) not in seen:
                seen.add(tuple(sorted(t)))
                out.append(t)
    return out


@pytest.mark.parametrize("ar", [3, 4])
@pytest.mark.parametrize("old, total", [(0, 1), (0, 5), (2, 7), (6, 8),
                                        (1, 9)])
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 40, 1000])
def test_multiset_chunks_enumerate_each_multiset_once_in_order(ar, old, total,
                                                               chunk):
    # consecutive frontier elements that share their first one's tails, one
    # element's tails in groups of first entries, and one first entry's
    # tails in pieces
    chunks = [_chunk_tuples(*c) for c in free._multiset_args(
        _indexed(total, chunk), old, total, ar)]
    assert all(1 <= len(c) <= chunk for c in chunks)
    assert sum(chunks, []) == _first_per_multiset(old, total, ar)


# the side index merged after every chunk, never, and as built
_SIDE_SHARES = [0, math.inf, free._SIDE_SHARE]


def _assert_side_share_free(cases):
    per = []
    with pytest.MonkeyPatch.context() as mp:
        for share in _SIDE_SHARES:
            mp.setattr(free, "_SIDE_SHARE", share)
            per.append([_outcome(a, g, **caps) for a, g, caps in cases])
    assert per[1] == per[0] and per[2] == per[0]
    return per[0]


def test_corpus_builds_do_not_depend_on_side_index_merges(corpus):
    cases = [(a, g, {"cap_entries": cap, "work_budget": 10 ** 7})
             for a in corpus.values() for g in (1, 2, 3, 4)
             for cap in (200, 2_000, 20_000)]
    refused = [o for o in _assert_side_share_free(cases)
               if o[0] == "refused"]
    assert 0 < len(refused) < len(cases)


@settings(max_examples=30, deadline=None)
@given(a=_small_algebras(sizes=(3,)))
def test_wide_random_builds_do_not_depend_on_side_index_merges(a):
    _assert_side_share_free([(a, 4, {"cap_entries": 12 * 3 ** 4})])


# ---------------------------------------------------------------------------
# Overflow samples: a level that a sample of its candidates proves to overflow
# is refused at its boundary exactly as the canonical order refuses it later

# never sampled, as built, and sampled whenever a level could overflow
_SAMPLE_SHARES = [0, free._SAMPLE_SHARE, 1]


def _assert_sample_free(cases, chunk_words=free._CHUNK_WORDS):
    """Per sample share, each case's outcome, which must not depend on the
    share, and whether a sample refused it."""
    real = free._sample_overflows
    fired = []

    def counted(*args):
        fired.append(real(*args))
        return fired[-1]

    per = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "_sample_overflows", counted)
        mp.setattr(free, "_CHUNK_WORDS", chunk_words)
        for share in _SAMPLE_SHARES:
            mp.setattr(free, "_SAMPLE_SHARE", share)
            row = []
            for a, g, caps in cases:
                fired.clear()
                row.append((_outcome(a, g, **caps), any(fired)))
            per.append(row)
    outcomes = [[o for o, _ in row] for row in per]
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    assert not any(f for _, f in per[0])
    return per


def test_corpus_refusals_do_not_depend_on_the_sample(corpus):
    # caps of 10 to 40,000 elements put some level across the cap
    cases = [(corpus[name], g, {"cap_entries": room * corpus[name].size ** g})
             for name, g, rooms in (
                 ("lattice2", 4, (10, 100)), ("semilattice2", 5, (10, 30)),
                 ("lattice2", 5, (10, 300, 3_000, 6_250)),
                 ("lattice2", 6, (30, 1_000, 40_000)),
                 ("chain3", 4, (10, 100)), ("pixley3", 3, (10, 100)),
                 ("chain3", 5, (100, 3_000, 6_250)))
             for room in rooms]
    # exact fits: the last level that adds elements has room for them
    # alone, so a sample that counts one more refuses a build that completes
    fits = (("lattice2", 4, 166), ("semilattice2", 5, 31),
            ("lattice2", 5, 7_579), ("chain3", 4, 166), ("pixley3", 3, 24),
            ("semilattice2", 6, 63))
    per = _assert_sample_free(cases + [
        (corpus[name], g, {"cap_entries": n * corpus[name].size ** g})
        for name, g, n in fits])
    assert [o[1][0] for o, _ in per[0][len(cases):]] == [n for *_, n in fits]
    per = [row[:len(cases)] for row in per]
    assert 0 < sum(o[0] == "refused" for o, _ in per[0]) < len(cases)
    # the default share refuses a level of one-word exact rows (32
    # coordinates), one-word fingerprint rows (64) and multiword rows (243)
    sampled = {a.size ** g for (a, g, _), (_, f) in zip(cases, per[1]) if f}
    assert sampled == {32, 64, 243}
    assert sum(f for _, f in per[2]) > len(cases) // 2


@settings(max_examples=40, deadline=None)
@given(a=_small_algebras(), g=st.integers(3, 6), room=st.integers(1, 60),
       words=st.sampled_from(_CHUNKINGS))
def test_random_refusals_do_not_depend_on_the_sample(a, g, room, words):
    # dense, one-word exact, one-word fingerprint and multiword rows: 8, 16,
    # 32 and 64 coordinates of 2 elements, 27 to 729 of 3; small chunks
    # split a sample into many batches.  A build that completes is built at
    # its exact fit too
    c = a.size ** g
    cases = [(a, g, {"cap_entries": (g + room) * c})]
    with contextlib.suppress(CapExceeded):
        n = build_free(a, g, cap_entries=(g + 60) * c).n_elements
        cases.append((a, g, {"cap_entries": n * c}))
    _assert_sample_free(cases, words)


def test_lattice2_f6_is_refused_at_a_level_boundary(monkeypatch, lattice2):
    # in the canonical order the 156,251st element of F(6) comes after
    # 35.6 M candidate rows; the sample proves the overflow at the boundary
    # of that level.  It counts the keys of its rows, so only the levels'
    # own 246,512 candidate rows reach new_rows (572,398 when the sample's
    # rows went there too), and no scratch builder is made.  It weighs each
    # orbit of 720 rows at once, so it runs 7,749 rows (196,608 when it
    # counted keys alone)
    real_run, real_sample = free._run_op, free._sample_overflows
    real_new, real_init = free._Builder.new_rows, free._Builder.__init__
    rows, sampled, checked, made = [], [], [], []
    sampling = [False]

    def counted(*args):
        res = real_run(*args)
        (sampled if sampling[0] else rows).append(res.shape[1])
        return res

    def sample(*args):
        sampling[0] = True
        try:
            return real_sample(*args)
        finally:
            sampling[0] = False

    def new_rows(builder, res):
        checked.append((sampling[0], res.shape[1]))
        return real_new(builder, res)

    def init(builder, *args):
        made.append(args)
        real_init(builder, *args)

    monkeypatch.setattr(free, "_run_op", counted)
    monkeypatch.setattr(free, "_sample_overflows", sample)
    monkeypatch.setattr(free._Builder, "new_rows", new_rows)
    monkeypatch.setattr(free._Builder, "__init__", init)
    with pytest.raises(CapExceeded) as over:
        build_free(lattice2, 6)
    assert over.value.elements_reached == 156_251
    assert str(over.value) == ("free algebra exceeds 10000000 vector entries "
                               "(156251 elements of 64 coordinates)")
    assert sum(rows) + sum(sampled) < 2_000_000
    assert 0 < sum(sampled) <= 25_000
    assert not any(in_sample for in_sample, _ in checked)
    assert sum(m for _, m in checked) <= 250_000
    assert len(made) == 1


def test_builds_and_samples_import_no_numpy_random():
    # the fingerprint weights and the overflow sample draw from
    # free._Stream, so a process that builds F(z2, 3) and has the sample
    # refuse F(lattice2, 6) never loads numpy.random, about 5 MB of memory
    code = """if True:
        import importlib.resources, sys
        from modbench.algebras import parse_algebra
        from modbench.free import CapExceeded, build_free

        def load(name):
            path = importlib.resources.files("modbench") / "data" / name
            return parse_algebra(path.read_text())

        print(build_free(load("z2.alg"), 3).n_elements)
        try:
            build_free(load("lattice2.alg"), 6)
        except CapExceeded as exc:
            print(exc.elements_reached)
        print("numpy.random" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(free.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["8", "156251", "False"]


@pytest.mark.parametrize("name, g, room, throughout", [
    ("lattice2", 6, 40_000, False), ("chain3", 5, 6_250, True)],
    ids=["64-coordinates", "243-coordinates"])
def test_colliding_sample_keys_prove_nothing(monkeypatch, corpus, name, g,
                                            room, throughout):
    # every key the sample makes is one element's fingerprint, so it counts
    # no new row: the sample proves nothing, and the canonical order
    # refuses the level as it does with the sample switched off.  Multiword
    # rows collide throughout the build, whose own dedup falls back to the
    # rows' bytes; one-word rows' own dedup needs a bijective fingerprint,
    # so their keys collide in the sample only
    a = corpus[name]
    caps = {"cap_entries": room * a.size ** g}
    real = free._sample_overflows
    fired = []

    def sample(*args):
        fired.append(real(*args))
        return fired[-1]

    def colliding(builder, *args):
        held = free._fingerprint(builder.rows[:, :1], builder.weights)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(free, "_fingerprint",
                       lambda rows, weights: np.repeat(held, rows.shape[1]))
            return sample(builder, *args)

    monkeypatch.setattr(free, "_sample_overflows", sample)
    want = _outcome(a, g, **caps)
    # without collisions the sample proves the overflow
    assert want[0] == "refused" and fired[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "_SAMPLE_SHARE", 0)
        assert _outcome(a, g, **caps) == want
    fired.clear()
    monkeypatch.setattr(free, "_sample_overflows", colliding)
    if throughout:
        monkeypatch.setattr(
            free, "_fingerprint",
            lambda rows, weights: np.zeros(rows.shape[1], dtype=np.uint64))
    assert _outcome(a, g, **caps) == want
    assert fired and not any(fired)


def _sample_counts(a, g, **caps):
    """Per closure level that the build runs to its end: the weighted count
    of a sample of as many draws as the level has applications, the
    level's new elements, and whether the sample weighed an orbit."""
    counts, starts = [], []

    def sample(builder, ops, apps, old, size, g, swaps):
        tally = free._NewCount(builder, size, g, swaps() if swaps else None)
        stream = free._Stream(builder.n)
        draws = sum(apps)
        for done in range(0, draws, builder.chunk):
            for rows in free._sampled_rows(builder, ops, apps, old, stream,
                                           min(builder.chunk, draws - done)):
                tally.add(rows)
        starts.append(builder.n)
        counts.append((tally.count, tally.orbits.size > 0))
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "_sample_overflows", sample)
        try:
            end = build_free(a, g, **caps).n_elements
        except CapExceeded as exc:
            # the work budget refuses at a boundary, after a whole level
            end = exc.elements_reached if "work budget" in str(exc) else None
    return [(count, stop - start, weighed)
            for (count, weighed), start, stop
            in zip(counts, starts, starts[1:] + [end]) if stop is not None]


@st.composite
def _orbit_algebras(draw):
    """One to three elements; one or two binary or ternary operations, each
    without symmetry or totally symmetric, and maybe a constant and a unary
    operation."""
    size = draw(st.integers(1, 3))

    def values(k):
        return draw(st.lists(st.integers(0, size - 1), min_size=k,
                             max_size=k))

    ops, tables = [], {}
    for i, ar in enumerate(draw(st.lists(st.sampled_from((2, 3)),
                                         min_size=1, max_size=2))):
        tuples = list(itertools.product(range(size), repeat=ar))
        if draw(st.booleans()):
            bags = sorted({tuple(sorted(t)) for t in tuples})
            value = dict(zip(bags, values(len(bags))))
            tables[f"f{i}"] = [value[tuple(sorted(t))] for t in tuples]
        else:
            tables[f"f{i}"] = values(len(tuples))
        ops.append((f"f{i}", ar))
    for name, ar in (("c", 0), ("u", 1)):
        if draw(st.booleans()):
            ops.append((name, ar))
            tables[name] = values(size ** ar)
    return FiniteAlgebra("orb", size, Signature(tuple(ops)), tables)


@settings(max_examples=60, deadline=None)
@given(a=_orbit_algebras(), g=st.integers(2, 6))
def test_random_sample_counts_never_pass_the_level(a, g):
    # a row fixed by a permutation, or one of an orbit sorted by tied
    # invariants, counted as an orbit of g! rows passes the level's count
    for count, new, _ in _sample_counts(a, g, cap_entries=200 * a.size ** g,
                                        work_budget=10 ** 6):
        assert count <= new


@pytest.mark.parametrize("name, g, weighed", [
    ("lattice2", 4, False), ("lattice2", 5, True), ("lattice2", 6, True),
    ("semilattice2", 6, False), ("chain3", 4, False), ("pixley3", 3, True),
    ("z2", 5, False)])
def test_corpus_sample_counts_never_pass_the_level(corpus, name, g, weighed):
    # up to the work budget's refusal of the fourth levels of F(lattice2, 5)
    # and F(lattice2, 6).  Their third levels add 3,132 and 37,714
    # elements, and a sample of as many draws as they have applications
    # counts 2,783 and 30,351; they and F(pixley3, 3) have orbits of g! rows
    levels = _sample_counts(corpus[name], g, work_budget=10 ** 7)
    assert len(levels) >= 2
    assert all(count <= new for count, new, _ in levels)
    assert any(w for *_, w in levels) == weighed


# ---------------------------------------------------------------------------
# Level counts: a level whose new elements are counted through the generator
# symmetry stops at its last new element, and builds exactly as the level run
# to its end


def _assert_count_free(cases, chunk_words=free._CHUNK_WORDS):
    """Build each case with the count declined, as built, and made for
    every level that allows one; the outcomes must agree.  Returns how many
    levels were counted, as built and when always made."""
    real = free._level_count
    made = []

    def recorded(*args):
        made.append(real(*args))
        return made[-1]

    per, counted = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "_CHUNK_WORDS", chunk_words)
        mp.setattr(free, "_level_count", lambda *args: None)
        per.append([_outcome(a, g, **caps) for a, g, caps in cases])
        mp.setattr(free, "_level_count", recorded)
        for share in (free._COUNT_SHARE, math.inf):
            mp.setattr(free, "_COUNT_SHARE", share)
            made.clear()
            per.append([_outcome(a, g, **caps) for a, g, caps in cases])
            counted.append(sum(m is not None for m in made))
    assert per[1] == per[0] and per[2] == per[0]
    return counted


def test_corpus_builds_do_not_depend_on_the_count(corpus):
    # caps of 10 elements to the full build: levels refused by the count,
    # by the sample, mid-level and by the work budget, and complete builds;
    # dense, one-word exact, one-word fingerprint and multiword rows
    cases = [(corpus[name], g,
              {"cap_entries": room * corpus[name].size ** g} if room else {})
             for name, g, rooms in (
                 ("one", 4, (None,)), ("z2", 5, (None,)),
                 ("lattice2", 4, (10, 100, None)),
                 ("semilattice2", 6, (10, 30, None)),
                 ("lattice2", 5, (10, 300, 3_000, 4_000, 6_250, None)),
                 ("chain3", 3, (10, None)), ("chain3", 4, (10, 100, None)),
                 ("pixley3", 3, (10, 100, None)), ("pixley3", 4, (None,)),
                 ("chain3", 5, (100, 3_000, 6_250)))
             for room in rooms]
    as_built, always = _assert_count_free(cases)
    assert 0 < as_built < always


@settings(max_examples=40, deadline=None)
@given(a=_small_algebras(), g=st.integers(2, 6),
       room=st.one_of(st.integers(1, 60), st.none()),
       words=st.sampled_from(_CHUNKINGS))
def test_random_builds_do_not_depend_on_the_count(a, g, room, words):
    # caps of a few elements in every chunking; a full build, up to a small
    # work budget, in chunks of the default size
    if room is None:
        _assert_count_free([(a, g, {"work_budget": 10 ** 7})])
    else:
        _assert_count_free(
            [(a, g, {"cap_entries": (g + room) * a.size ** g})], words)


_COLLIDING_FINGERPRINTS = [
    (lambda rows, weights: np.zeros(rows.shape[1], dtype=np.uint64),
     [("chain3", 4), ("pixley3", 3)]),
    (lambda rows, weights: (rows[-1] & 3).astype(np.uint64),
     [("chain3", 4), ("pixley3", 3)]),
    (lambda rows, weights: rows[0].byteswap(), [("semilattice2", 6)]),
]


def test_counted_builds_with_colliding_fingerprints(corpus):
    # multiword keys all collide, or take four values, so the orbit
    # representatives are found on the rows' bytes and the counted levels'
    # chunks go down the exact path; one-word rows get a byteswap, a
    # bijection that moves the coordinates that tell elements apart into
    # the low bits that the chunk sort gives up
    real = free._level_count
    made = []

    def recorded(*args):
        made.append(real(*args))
        return made[-1]

    for fake, cases in _COLLIDING_FINGERPRINTS:
        want = [_outcome(corpus[name], g) for name, g in cases]
        made.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(free, "_fingerprint", fake)
            mp.setattr(free, "_COUNT_SHARE", math.inf)
            mp.setattr(free, "_level_count", recorded)
            assert [_outcome(corpus[name], g) for name, g in cases] == want
        assert any(m is not None for m in made)


def _swapped(vecs, size, g, i):
    """Element vectors with variables i and i + 1 swapped: the value at
    each assignment is the one at the assignment with those digits
    swapped."""
    grid = np.array(list(itertools.product(range(size), repeat=g)))
    grid[:, [i, i + 1]] = grid[:, [i + 1, i]]
    return vecs[:, np.ravel_multi_index(grid.T, (size,) * g)]


@pytest.mark.parametrize("size, g, n_planes", [
    (2, 3, 1), (2, 4, 1), (2, 5, 1), (2, 6, 1), (2, 7, 1), (3, 2, 2),
    (3, 4, 2), (3, 5, 2), (4, 3, 2), (5, 3, 3)])
def test_swap_tables_permute_packed_coordinates(size, g, n_planes):
    # uint8, uint16, uint32 and uint64 words, and multiword planes
    c = size ** g
    builder = free._Builder(n_planes, c, 10 ** 9, 1)
    vals = np.random.default_rng(c).integers(
        0, size, (50, c)).astype(np.uint8)
    rows = free._pack_planes(vals, n_planes)
    tables = free._swap_tables(builder, size, g)
    assert len(tables) == g - 1
    for i, table in enumerate(tables):
        got = free._permuted(builder, table, rows)
        assert np.array_equal(free._unpack_planes(got, n_planes, c),
                              _swapped(vals, size, g, i))


@pytest.mark.parametrize("size, g, n_planes", [
    (2, 3, 1), (2, 6, 1), (2, 7, 1), (3, 3, 2), (3, 4, 2), (4, 3, 2)])
def test_new_count_sorts_variables_by_invariant(size, g, n_planes):
    # one-word and multiword planes against a reference on unpacked rows:
    # a variable's invariant is the set bits of each plane where it takes
    # each value but the last, and a row with pairwise distinct invariants
    # sorts to the row whose variables' invariant words ascend
    c = size ** g
    builder = free._Builder(n_planes, c, 10 ** 9, 1)
    vals = np.random.default_rng(c).integers(
        0, min(size, 2 ** n_planes), (300, c)).astype(np.uint8)
    # few distinct values make ties, and many make distinct invariants
    vals[::2] = np.minimum(vals[::2], 1)
    rows = free._pack_planes(vals, n_planes)
    tally = free._NewCount(builder, size, g, free._swap_tables(builder, size,
                                                               g))
    inv = tally._invariants(rows)
    grid = np.array(list(itertools.product(range(size), repeat=g)))
    want = [[tuple(int(((row >> b) & 1)[grid[:, i] == v].sum())
                   for b in range(n_planes) for v in range(size - 1))
             for i in range(g)] for row in vals]
    assert all((inv[i, r] == inv[j, r]) == (want[r][i] == want[r][j])
               for r in range(len(vals))
               for i, j in itertools.combinations(range(g), 2))
    distinct = np.array([len(set(w)) == g for w in want])
    assert 0 < distinct.sum() < len(vals)
    got = free._unpack_planes(tally._sorted(
        rows[:, distinct].copy(), inv[:, distinct].copy()), n_planes, c)
    for row, words, sorted_row in zip(vals[distinct], inv[:, distinct].T,
                                      got):
        # variable k of the sorted row is variable order[k] of the row
        order = np.argsort(words)
        at = np.empty_like(grid)
        at[:, order] = grid
        assert np.array_equal(sorted_row,
                              row[np.ravel_multi_index(at.T, (size,) * g)])


def test_popcount_without_bitwise_count(monkeypatch):
    # numpy < 2 has no bitwise_count; there the bytes are counted
    words = np.random.default_rng(0).integers(0, 2 ** 63, (3, 50),
                                              dtype=np.uint64)
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        want = free._popcount(words.astype(dtype))
        with monkeypatch.context() as mp:
            mp.delattr(np, "bitwise_count")
            assert np.array_equal(free._popcount(words.astype(dtype)), want)


def _levels(f):
    """Each element's closure level: 0 for a seed, else one more than the
    highest level among its witness arguments."""
    level = np.zeros(f.n_elements, dtype=np.int64)
    for e in range(f.n_elements):
        arity = (f.base.signature.ops[f._w_op[e]][1] if f._w_op[e] >= 0
                 else 0)
        if arity:
            level[e] = 1 + level[f._w_args[e][:arity]].max()
    return level


def _assert_levels_are_symmetric(f):
    size, g = f.base.size, f.g
    level = _levels(f)
    for i in range(g - 1):
        swapped = _swapped(f.vecs, size, g, i)
        for d in range(level.max() + 1):
            at = level == d
            assert ({r.tobytes() for r in f.vecs[at]}
                    == {r.tobytes() for r in swapped[at]}), (i, d)


@pytest.mark.parametrize("name, g", [
    ("one", 3), ("z2", 4), ("lattice2", 4), ("lattice2", 5),
    ("semilattice2", 5), ("chain3", 3), ("chain3", 4), ("pixley3", 3)])
def test_corpus_levels_are_invariant_under_swapped_variables(corpus, name, g):
    _assert_levels_are_symmetric(build_free(corpus[name], g))


@settings(max_examples=30, deadline=None)
@given(a=_small_algebras(), g=st.integers(2, 4))
def test_random_levels_are_invariant_under_swapped_variables(a, g):
    try:
        f = build_free(a, g, cap_entries=500 * a.size ** g)
    except CapExceeded:
        return
    _assert_levels_are_symmetric(f)


# the candidate rows of the ordered builds, 2.2 M of them in their counts and
# 280 in the sample of F(chain3, 5)'s last level: one batch of room / 5!
# draws, none of them new
_F5_ROWS = {"lattice2": 15_754_388, "chain3": 15_621_555}


@pytest.mark.parametrize("name", ["lattice2", "chain3"])
def test_f5_stops_each_level_with_one_new_element_left(monkeypatch, corpus,
                                                       name):
    # 57.4 M candidate rows run to the end of every level.  Counted, the
    # last two big levels stop right after the append of their last new
    # element, and the last level, which adds nothing, is skipped.  Every
    # witness comes from the build, so no term runs an operation
    real = free._run_op
    rows = []

    def counted(*args):
        res = real(*args)
        rows.append(res.shape[1])
        return res

    monkeypatch.setattr(free, "_run_op", counted)
    f = build_free(corpus[name], 5)
    assert f.n_elements == 7_579
    assert sum(rows) == _F5_ROWS[name]
    rows.clear()
    for e in range(f.n_elements):
        f.term_of(e)
    assert not rows and free._NO_WITNESS not in f._w_op


def test_lattice2_report_builds_f5_walk_only(monkeypatch, lattice2):
    # the report's searches build F(3) and F(4) in the canonical order; its
    # spectra walk F(5) only, which runs none of its counted levels'
    # chunks: 2.33 M candidate rows instead of 6.22 M, and with the refused
    # F(6) 2.94 M in all
    real = free._run_op
    rows = []

    def counted(*args):
        res = real(*args)
        rows.append(res.shape[1])
        return res

    monkeypatch.setattr(free, "_run_op", counted)
    ctx = PWContext(lattice2)
    assert consistency_report(lattice2, ctx=ctx)["ok"]
    assert sum(rows) < 3_500_000
    assert ctx.free(3).ordered and ctx.free(4).ordered
    assert not ctx.free(5, ordered=False).ordered


# ---------------------------------------------------------------------------
# Walk-only builds: a counted level's new rows are appended in the count's
# order, and the build has the ordered build's element set and refusals


def _either_order(a, g, **caps):
    """The ordered and the walk-only build's generators, element count and
    sorted rows, or refusal, and how many rows the walk-only build appended
    from its counts, which have no witnesses."""
    out, counted = [], 0
    for ordered in (True, False):
        try:
            f = build_free(a, g, ordered=ordered, **caps)
        except CapExceeded as exc:
            out.append(("refused", str(exc), exc.elements_reached))
            continue
        assert f.ordered == ordered
        if not ordered:
            counted = int((f._w_op == free._NO_WITNESS).sum())
            with pytest.raises(AlgebraError, match="walk-only"):
                f.term_of(0)
        out.append((f.generators, f.n_elements,
                    sorted(row.tobytes() for row in f.vecs)))
    assert out[1] == out[0]
    return out[0], counted


@pytest.mark.parametrize("name", ["lattice2", "chain3"])
def test_walk_only_f5_runs_no_chunk_of_its_counted_levels(
        monkeypatch, corpus, name):
    # 2.24 M of the candidate rows are the counts'; the ordered build runs
    # _F5_ROWS
    real = free._run_op
    rows = []

    def counted(*args):
        res = real(*args)
        rows.append(res.shape[1])
        return res

    monkeypatch.setattr(free, "_run_op", counted)
    a = corpus[name]
    f = build_free(a, 5, ordered=False)
    assert f.n_elements == 7_579 and sum(rows) <= 2_400_000
    monkeypatch.setattr(free, "_run_op", real)
    outcome, appended = _either_order(a, 5)
    assert outcome[1] == 7_579 and appended > 4_000


def test_walk_only_f5_refuses_as_the_ordered_build(corpus):
    # entries caps across F(5)'s levels, and work budgets that refuse its
    # third or fourth level
    outcomes = [
        _either_order(corpus[name], 5, **caps)[0]
        for name, rooms in (("lattice2", (10, 300, 3_000, 4_000, 6_250)),
                            ("chain3", (100, 3_000, 6_250)))
        for caps in ([{"cap_entries": room * corpus[name].size ** 5}
                      for room in rooms]
                     + [{"work_budget": budget}
                        for budget in (10 ** 6, 10 ** 8)])]
    refused = [o for o in outcomes if o[0] == "refused"]
    assert any("vector entries" in o[1] for o in refused)
    assert any("work budget" in o[1] for o in refused)


@settings(max_examples=40, deadline=None)
@given(a=_small_algebras(), g=st.integers(2, 5),
       room=st.one_of(st.integers(1, 60), st.none()),
       budget=st.sampled_from([10 ** 5, 10 ** 7]))
def test_random_walk_only_builds_match_the_ordered_build(a, g, room, budget):
    # every level that allows a count is counted, so most levels past the
    # first are appended in the count's order
    caps = {"work_budget": budget}
    if room is not None:
        caps["cap_entries"] = (g + room) * a.size ** g
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "_COUNT_SHARE", math.inf)
        _either_order(a, g, **caps)


# variety-level cells on F(3), F(4) and F(5), and identities checked at a
# fixed count
_WALK_CELLS = [("TSCHANTZ", "m", 2), ("DAY", "m", 3), ("DAY_REV", "m", 3),
               ("DSTAR", "l", 1), ("DAY", "m", 4), ("DAY_REV", "m", 4)]
_WALK_CHECKS = [("TSCHANTZ", {}, 1), ("DAY", {}, 2), ("DAY", {"m": 4}, 3)]


@contextlib.contextmanager
def _ordered_only():
    """Every ``PWContext.free`` call builds in the canonical order."""
    real = PWContext.free
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PWContext, "free",
                   lambda ctx, g, ordered=True: real(ctx, g))
        yield


def _walk_answers(a, **caps):
    """The cells and checks of one context, and the orders of the free
    algebras it built for them."""
    ctx = PWContext(a, **caps)
    out = [spectrum(a, fam, cap=8, params={p: m}, ctx=ctx)
           for fam, p, m in _WALK_CELLS]
    for name, params, k in _WALK_CHECKS:
        try:
            out.append(pw_check(ctx, get_entry(name).identity(**params), k))
        except CapExceeded as exc:
            out.append(str(exc))
    return out, {f.ordered for f in ctx._free.values()}


def _assert_walks_agree(a, **caps):
    """The walks' answers on walk-only builds equal those on builds that
    every call asks to be ordered; returns the orders held."""
    with _ordered_only():
        want, held = _walk_answers(a, **caps)
    assert held <= {True}
    got, held = _walk_answers(a, **caps)
    assert got == want
    return held


def test_walks_agree_on_either_build(corpus):
    for name in ("lattice2", "chain3"):
        assert _assert_walks_agree(corpus[name]) == {False}


@settings(max_examples=25, deadline=None)
@given(a=_small_algebras(), room=st.integers(1, 300))
def test_random_walks_agree_on_either_build(a, room):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "_COUNT_SHARE", math.inf)
        _assert_walks_agree(a, cap_entries=room * a.size ** 4)


def _walks_then_searches(a, **caps):
    """The three searches on a context in which the TSCHANTZ(2) and DAY(3)
    spectra first built and partitioned F(3) and F(4), the context, and
    the free algebras it held before the searches."""
    ctx = PWContext(a, **caps)
    for fam, p, m in _WALK_CELLS[:2]:
        spectrum(a, fam, cap=8, params={p: m}, ctx=ctx)
    walked = dict(ctx._free)
    out = []
    for search in (search_day, search_gumm, search_jonsson):
        try:
            out.append(search(a, ctx=ctx))
        except CapExceeded as exc:
            out.append(str(exc))
    return out, ctx, walked


def _assert_search_after_walks_is_fresh(a, **caps):
    """Searches after walks on walk-only builds equal those after walks on
    ordered builds; returns them, and whether some walk-only build
    differed from the ordered one that replaced it."""
    with _ordered_only():
        want, _, _ = _walks_then_searches(a, **caps)
    got, ctx, walked = _walks_then_searches(a, **caps)
    assert got == want
    assert all(not f.ordered and ctx._free[g].ordered
               for g, f in walked.items())
    return got, any(not np.array_equal(f.vecs, ctx._free[g].vecs)
                    for g, f in walked.items())


def test_search_after_walks_matches_a_fresh_search(corpus):
    # counting every level puts F(4)'s elements in another order, so a
    # partition kept from the walk-only F(4) would name other elements
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "_COUNT_SHARE", math.inf)
        for name in ("lattice2", "chain3"):
            a = corpus[name]
            got, reordered = _assert_search_after_walks_is_fresh(a)
            assert reordered
            assert got == [search(a) for search in (
                search_day, search_gumm, search_jonsson)]


@settings(max_examples=25, deadline=None)
@given(a=_small_algebras(), room=st.integers(1, 300))
def test_random_search_after_walks_matches_a_fresh_search(a, room):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "_COUNT_SHARE", math.inf)
        _assert_search_after_walks_is_fresh(
            a, cap_entries=room * a.size ** 4)


# ---------------------------------------------------------------------------
# Totally symmetric operations of arity 3 or more: a level runs one argument
# tuple per multiset and builds exactly what its whole blocks build


@st.composite
def _symmetric_algebras(draw):
    """A random totally symmetric ternary operation on 2 or 3 elements, or a
    4-ary one on 2, with or without a random unary operation."""
    size = draw(st.sampled_from((2, 3)))
    ar = draw(st.sampled_from((3, 4) if size == 2 else (3,)))
    tuples = list(itertools.product(range(size), repeat=ar))
    bags = sorted({tuple(sorted(t)) for t in tuples})
    value = dict(zip(bags, draw(st.lists(st.integers(0, size - 1),
                                         min_size=len(bags),
                                         max_size=len(bags)))))
    ops = [("m", ar)]
    tables = {"m": [value[tuple(sorted(t))] for t in tuples]}
    if draw(st.booleans()):
        ops.append(("u", 1))
        tables["u"] = draw(st.lists(st.integers(0, size - 1),
                                    min_size=size, max_size=size))
    return FiniteAlgebra("sym", size, Signature(tuple(ops)), tables)


def _symmetric_outcome(a, g, ordered, **caps):
    """An ordered build's outputs and its terms; a walk-only build's generators, element count and sorted rows;
    or the refusal."""
    try:
        f = build_free(a, g, ordered=ordered, **caps)
    except CapExceeded as exc:
        return ("refused", str(exc), exc.elements_reached)
    if not ordered:
        return (f.generators, f.n_elements,
                sorted(row.tobytes() for row in f.vecs))
    return (_build_outputs(f),
            [term_str(f.term_of(e)) for e in range(f.n_elements)])


def _assert_symmetry_free(cases, ordered, chunk_words=free._CHUNK_WORDS,
                          count_share=free._COUNT_SHARE):
    """Build each case as built and with symmetry detection off, which runs
    every argument tuple of the blocks; the outcomes must agree.  Returns
    how many operations were found symmetric, as built."""
    real = free._symmetric
    found = []

    def detected(*args):
        found.append(real(*args))
        return found[-1]

    per = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "_CHUNK_WORDS", chunk_words)
        mp.setattr(free, "_COUNT_SHARE", count_share)
        mp.setattr(free, "_symmetric", detected)
        per.append([_symmetric_outcome(a, g, ordered, **caps)
                    for a, g, caps in cases])
        mp.setattr(free, "_symmetric", lambda *args: False)
        per.append([_symmetric_outcome(a, g, ordered, **caps)
                    for a, g, caps in cases])
    assert per[1] == per[0]
    return sum(found)


def _table(size, ar, f):
    return np.array([f(*t) for t in itertools.product(range(size), repeat=ar)])


@pytest.mark.parametrize("size, ar, f, want", [
    (3, 3, lambda x, y, z: sorted((x, y, z))[1], True),
    (2, 4, lambda *t: int(sum(t) >= 2), True),
    (3, 2, max, True),
    # symmetric under one adjacent transposition only
    (3, 3, lambda x, y, z: z if z else max(x, y), False),
    (3, 3, lambda x, y, z: x if x else max(y, z), False),
    (3, 2, lambda x, y: x, False),
    (3, 1, lambda x: x, False)])
def test_symmetric_tables_are_found(size, ar, f, want):
    assert free._symmetric(_table(size, ar, f), size, ar) == want


@settings(max_examples=100, deadline=None)
@given(a=_symmetric_algebras(), g=st.integers(2, 4),
       room=st.one_of(st.integers(1, 20), st.none()),
       budget=st.sampled_from([10 ** 5, 10 ** 7]),
       words=st.sampled_from([64, free._CHUNK_WORDS]),
       ordered=st.booleans(),
       share=st.sampled_from([free._COUNT_SHARE, math.inf]))
def test_random_symmetric_builds_match_the_block_enumeration(
        a, g, room, budget, words, ordered, share):
    # entries caps and work budgets, chunks of 16 to 64 rows and of the
    # default size, and every level that allows a count counted
    caps = {"work_budget": budget}
    if room is not None:
        caps["cap_entries"] = (g + room) * a.size ** g
    assert _assert_symmetry_free([(a, g, caps)], ordered, words, share) == 1


def _median_algebras():
    """The median on the chain 0 < 1 < 2, and the same with the constant
    unary operation 1."""
    med3 = FiniteAlgebra("med3", 3, Signature((("m", 3),)),
                         {"m": median3_table()})
    med3c = FiniteAlgebra("med3c", 3, Signature((("m", 3), ("c", 1))),
                          {"m": median3_table(), "c": [1, 1, 1]})
    return med3, med3c


@pytest.mark.parametrize("ordered", [True, False])
def test_median_builds_match_the_block_enumeration(ordered):
    med3, med3c = _median_algebras()
    cases = [(a, g, caps)
             for a, gs in ((med3, (2, 3, 4, 5)), (med3c, (2, 3, 4)))
             for g in gs
             for caps in ({}, {"cap_entries": 40 * 3 ** g},
                          {"work_budget": 10 ** 7})]
    cases.append((med3c, 5, {}))
    for share in (free._COUNT_SHARE, math.inf):
        assert _assert_symmetry_free(cases, ordered,
                                     count_share=share) == len(cases)


def test_median_f4_runs_one_tuple_per_multiset(monkeypatch):
    # F(med3c, 4) has 81 elements; its levels run the first tuple of each
    # multiset, with the cells a chunk's rectangle wastes about a fifth of
    # the ternary tuples (106,943 candidate rows against 531,522)
    _, med3c = _median_algebras()
    real = free._run_op
    rows = []

    def counted(*args):
        res = real(*args)
        rows.append(res.shape[1])
        return res

    monkeypatch.setattr(free, "_run_op", counted)
    assert build_free(med3c, 4).n_elements == 81
    as_built = sum(rows)
    rows.clear()
    monkeypatch.setattr(free, "_symmetric", lambda *args: False)
    assert build_free(med3c, 4).n_elements == 81
    assert as_built * 4 < sum(rows)


# ---------------------------------------------------------------------------
# Row dtypes: the narrowest word that holds a plane, and uint64 keys


def _uint64_layout(c):
    return np.dtype(np.uint64), -(-c // 64)


def test_narrow_rows_build_as_uint64_rows(monkeypatch, corpus):
    # rows of uint64 words keep every key in the sorted index, so this also
    # checks the dense table against it
    cases = [(corpus[name], g, {}) for name, g in (
        ("z2", 3), ("lattice2", 3), ("lattice2", 4), ("semilattice2", 4),
        ("lattice2", 5), ("pixley3", 2), ("chain3", 2), ("chain3", 3))]
    cases += [(_golden_algebra(corpus, name), g, caps)
              for name, g, caps, _ in _GOLDEN
              if name.startswith("rand2") or name == "rand3-16"]
    want = [_outcome(a, g, **caps) for a, g, caps in cases]
    monkeypatch.setattr(free, "_row_layout", _uint64_layout)
    assert [_outcome(a, g, **caps) for a, g, caps in cases] == want


@pytest.mark.parametrize("c, dtype, words", [
    (1, np.uint8, 1), (8, np.uint8, 1), (9, np.uint16, 1),
    (16, np.uint16, 1), (27, np.uint32, 1), (32, np.uint32, 1),
    (64, np.uint64, 1), (81, np.uint64, 2)])
def test_pack_planes_round_trip(c, dtype, words):
    assert free._row_layout(c) == (np.dtype(dtype), words)
    rng = np.random.default_rng(c)
    for n_planes in (1, 2, 3):
        vals = rng.integers(0, 1 << n_planes, (40, c)).astype(np.uint8)
        rows = free._pack_planes(vals, n_planes)
        assert rows.dtype == dtype and rows.shape == (n_planes * words, 40)
        assert np.array_equal(free._unpack_planes(rows, n_planes, c), vals)
    # the padded tail bits of the last word are zero
    top = free._pack_planes(np.ones((1, c), dtype=np.uint8), 1)[-1]
    assert top >> (c - 64 * (words - 1) - 1) == 1
    # one uint8 or uint16 word per row is looked up in the dense table
    builder = free._Builder(1, c, 10 ** 9, 1)
    assert (builder._dense is not None) == (c <= 16)


@pytest.mark.parametrize("size, g", [(3, 2), (4, 2), (3, 3)])
def test_two_plane_narrow_rows_get_uint64_keys(size, g):
    c = size ** g
    weights = free._Builder(2, c, 10 ** 9, 1).weights
    rng = np.random.default_rng(c)
    rows = free._pack_planes(
        rng.integers(0, size, (500, c)).astype(np.uint8), 2)
    assert rows.dtype in (np.uint16, np.uint32)
    keys = free._fingerprint(rows, weights)
    assert keys.dtype == np.uint64
    # the key of a narrow row is the key of the same row in uint64 words
    assert np.array_equal(
        keys, free._fingerprint(rows.astype(np.uint64), weights))
    assert keys.max() > np.iinfo(rows.dtype).max


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


# narrow words, masked (1, 9, 27) and full (8, 64), and uint64 words
@pytest.mark.parametrize("c", [1, 8, 9, 27, 64, 100, 200])
def test_compiled_ops_match_table_lookup(c):
    rng = np.random.default_rng(c)
    m = 50
    dtype, words = free._row_layout(c)
    for size, arity, table in _table_cases():
        n_planes = max(1, (size - 1).bit_length())
        builder = free._Builder(n_planes, c, 10 ** 9, arity)
        vals = [rng.integers(0, size, (m, c)).astype(np.uint8)
                for _ in range(arity)]
        arg_rows = [free._pack_planes(v, n_planes) for v in vals]
        program = free._compile_op(table, size, arity, n_planes)
        got = free._run_op(builder, program, arg_rows)
        want = _lookup_rows(table, size, vals)
        # word-major: one column per row, one row per (plane, word)
        assert got.dtype == dtype and got.shape == (n_planes * words, m)
        # packed from c coordinates, so the padded tail bits are zero
        # after NOT steps and constant fills too
        assert np.array_equal(
            got, free._pack_planes(want, n_planes)), (size, arity, table)
        assert np.array_equal(free._unpack_planes(got, n_planes, c), want)


def test_one_element_algebra_past_64_generators(one):
    # every generator is the one element; 100 generators are past numpy's
    # 64-dimension limit, so nothing may index the generators as axes
    f = build_free(one, 100)
    assert (f.n_elements, f.tuple_count, f.g) == (1, 1, 100)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 300))
def test_saturate_is_the_frontier_classes(data, n):
    # class labels below the element count, as partitions and their meets
    # give them, and frontiers from empty to full
    classes = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.integers(0, classes, n)
    frontier = rng.random(n) < data.draw(st.sampled_from([0, 0.01, 0.3, 1]))
    assert np.array_equal(free.saturate(labels, frontier),
                          np.isin(labels, np.unique(labels[frontier])))
