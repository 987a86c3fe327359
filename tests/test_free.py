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
    with pytest.raises(CapExceeded):
        build_free(lattice2, 4, cap_entries=100)
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
