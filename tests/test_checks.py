import collections
import functools
import hashlib
import itertools
import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modbench import checks
from modbench.algebras import FiniteAlgebra, Signature, parse_algebra
from modbench.catalog import ALGEBRA, CATALOG, VARIETY, get_entry
from modbench.checks import (Bound, CheckError, ConcreteResult, PWConfig,
                             PWContext, PWGrammarError, check_concrete,
                             enumerate_relations, eval_expr, pw_analyze,
                             pw_check, spectrum, walk_scan)
from modbench.dsl import (AltE, ComposeE, ConvE, DslError, GenE, Identity, K,
                          MeetE, PowE, VarE, compose, has_symbolic,
                          parse_identity, push_converse, substitute_k)
from modbench.free import CapExceeded
from modbench.relations import (ADMISSIBLE, CONGRUENCE, KIND_LEVEL,
                                TOLERANCE, BinRel, GuardExceeded,
                                RelationError, all_congruences, generate)
from modbench.relations import alt as rel_alt
from modbench.relations import compose as rel_compose
from modbench.relations import meet as rel_meet
from conftest import free_as_algebra, load_corpus, m5_text, random_algebra


def test_eval_expr_basics(chain3):
    beta = generate(chain3, [(0, 1)], CONGRUENCE)
    gamma = generate(chain3, [(1, 2)], CONGRUENCE)
    env = {"b": beta, "g": gamma}
    assert eval_expr(chain3, VarE("b"), env) == beta
    assert eval_expr(chain3, compose(VarE("b"), VarE("g")), env) == \
        rel_compose(beta, gamma)
    assert eval_expr(chain3, AltE(VarE("b"), VarE("g"), 0), env) == \
        BinRel.identity(3)
    assert eval_expr(chain3, AltE(VarE("b"), VarE("g"), 3), env) == \
        BinRel.full(3)


def test_eval_expr_gen_closure_oracle(chain3):
    # least admissible superset oracle = intersection of all admissible
    # relations containing the union
    r = generate(chain3, [(0, 1)], ADMISSIBLE)
    s = generate(chain3, [(2, 1)], ADMISSIBLE)
    env = {"R": r, "S": s}
    got = eval_expr(chain3, GenE(ADMISSIBLE, (VarE("R"), VarE("S"))), env)
    acc = BinRel.full(3)
    for cand in enumerate_relations(chain3, ADMISSIBLE):
        if r <= cand and s <= cand:
            acc = rel_meet(acc, cand)
    assert got == acc


def test_eval_expr_generates_each_kind(chain3):
    # one seed set, two closures: the generate memo is keyed on the kind
    r = generate(chain3, [(0, 1)], ADMISSIBLE)
    e = compose(GenE(ADMISSIBLE, (VarE("R"),)), GenE(TOLERANCE, (VarE("R"),)),
                GenE(CONGRUENCE, (VarE("R"),)))
    want = rel_compose(rel_compose(r, generate(chain3, [(0, 1)], TOLERANCE)),
                       generate(chain3, [(0, 1)], CONGRUENCE))
    assert eval_expr(chain3, e, {"R": r}) == want


def test_eval_expr_kind_violation(chain3):
    nonsym = generate(chain3, [(0, 1)], ADMISSIBLE)
    ident = parse_identity("tol D; D <= D")
    with pytest.raises(CheckError):
        eval_expr(chain3, ident.lhs, {"D": nonsym}, kinds=ident.kinds())


def test_eval_expr_rejects_other_universe(chain3):
    big = BinRel.full(4)
    for e in (GenE(ADMISSIBLE, (VarE("R"),)), compose(VarE("R"), VarE("R"))):
        with pytest.raises(RelationError):
            eval_expr(chain3, e, {"R": big})


def test_check_concrete_day_z2(z2):
    day = get_entry("DAY").identity(m=3)
    assert check_concrete(z2, day, k=2).holds


def test_check_concrete_day_lattice2_holds_on_algebra(lattice2):
    # only trivial congruences exist on the two-element lattice, so the
    # k = 2 inclusion holds here even though it fails variety-wide
    day = get_entry("DAY").identity(m=3)
    assert check_concrete(lattice2, day, k=2).holds


def test_check_concrete_tolc_trivial(corpus):
    tolc = get_entry("TOLC").identity(h=1, m=1)
    for a in corpus.values():
        if a.size <= 3:
            assert check_concrete(a, tolc, k=1).holds


def test_check_concrete_counterexample(semilattice2):
    # semilattices are not congruence modular, but both congruences of the
    # two-element semilattice are trivial, so refutation needs relations:
    # relational modularity fails at k = 1
    rr = get_entry("RRMOD").identity(m=3)
    res = check_concrete(semilattice2, rr, k=1)
    assert not res.holds
    assert res.counterexample is not None


def test_pw_check_day(lattice2, z2, pw_context):
    day = get_entry("DAY").identity(m=3)
    ctx = pw_context(lattice2)
    assert [pw_check(ctx, day, k=k) for k in range(5)] == \
        [False, False, False, True, True]
    assert pw_check(pw_context(z2), day, k=2)


def test_pw_rejects_relation_variables(z2, pw_context):
    aga = get_entry("AGA").identity()
    with pytest.raises(PWGrammarError):
        pw_check(pw_context(z2), aga, k=1)


def test_pw_analyze_day_config():
    # source 0, chain nodes in allocation order, target last: the Day
    # search walks a, b, c, d and the Gumm search x, y, z
    assert pw_analyze(get_entry("DAY").identity(m=3)) == PWConfig(
        (("a", ((0, 3), (1, 2))), ("b", ((0, 1), (2, 3))),
         ("g", ((1, 2),))), 3)
    assert pw_analyze(get_entry("TSCHANTZ").identity(m=2)) == PWConfig(
        (("a", ((0, 2),)), ("b", ((0, 1),)), ("g", ((1, 2),))), 2)


def test_pw_analyze_rejects_bad_lhs():
    ident = parse_identity("cong a b; a & conv(b) <= a")
    with pytest.raises(PWGrammarError):
        pw_analyze(ident)


def test_spectrum_values(z2, lattice2, pw_context):
    assert spectrum(z2, "DAY", params={"m": 3},
                    ctx=pw_context(z2)).value == 2
    assert spectrum(lattice2, "DAY", params={"m": 3},
                    ctx=pw_context(lattice2)).value == 3
    assert spectrum(lattice2, "TSCHANTZ", params={"m": 2},
                    ctx=pw_context(lattice2)).value == 1


def test_spectrum_exceeds_cap(semilattice2, pw_context):
    res = spectrum(semilattice2, "DAY", cap=6, params={"m": 3},
                   ctx=pw_context(semilattice2))
    assert (res, res.evidence) == (Bound(7), {"checked_up_to": 6})
    assert res.value is None


def test_refused_cells_are_open_bounds(lattice2, chain3):
    # a cap refusal leaves the cell [0, None] with the refusal as its reason
    ctx = PWContext(lattice2, cap_entries=10000)
    res = spectrum(lattice2, "DAY", params={"m": 4}, ctx=ctx)
    assert (res, res.evidence) == (Bound(0, None, (
        "free algebra exceeds 10000 vector entries (313 elements of 32 "
        "coordinates)")), None)
    res = spectrum(chain3, "AGI")
    assert (res, res.evidence) == (Bound(0, None, (
        "at least 2151296 variable assignments exceed the cap 2000000")),
        None)
    assert res.value is None


def test_bound_rejects_what_is_not_an_interval():
    for lo, hi in ((-1, None), (-1, 2), (3, 2), (1, 0)):
        with pytest.raises(AssertionError, match="not a bound"):
            Bound(lo, hi)
    assert (Bound(2, 2).value, Bound(2, 3).value, Bound(0).value) == \
        (2, None, None)


def test_bound_equality_ignores_evidence():
    seen = Bound(7, evidence={"checked_up_to": 6})
    assert seen == Bound(7) and hash(seen) == hash(Bound(7))
    assert {seen, Bound(7)} == {Bound(7)}
    assert seen.evidence == {"checked_up_to": 6}
    assert seen != Bound(7, reason="refused") and seen != Bound(7, 7)


def test_context_must_be_for_the_same_algebra(z2, lattice2, pw_context):
    with pytest.raises(CheckError, match="'z2', not for 'lattice2'"):
        spectrum(lattice2, "DAY", ctx=PWContext(z2))
    # an equal algebra, loaded again, is answered from the same context
    again = load_corpus("lattice2")
    assert again is not lattice2
    assert spectrum(again, "DAY", ctx=pw_context(lattice2)).value == 3


def test_spectrum_algebra_level(z2, chain3):
    res = spectrum(z2, "RMOD", params={"m": 2})
    assert res.value is not None
    # relational Gumm spectrum on an algebra with a Maltsev term
    res = spectrum(z2, "AGA")
    assert res.value == 0
    res = spectrum(chain3, "TOLC", params={"h": 1, "m": 1})
    assert res.value == 1


def test_ed_eddd_nte_hold_at_day_length(z2):
    # z2 is 2-modular: NTE and ED hold at alternation length 2, EDDD at 1
    assert spectrum(z2, "NTE").value <= 2
    assert spectrum(z2, "ED").value <= 2
    assert spectrum(z2, "EDDD").value <= 1


def test_concrete_never_refutes_pw(corpus, pw_context):
    # soundness: the generating algebra itself lies in the variety
    families = [("DAY", {"m": 3}), ("TSCHANTZ", {"m": 2}),
                ("DSTAR", {"l": 1}), ("TSCHANTZ_REV", {"m": 3})]
    for name in ("z2", "lattice2", "chain3"):
        a = corpus[name]
        ctx = pw_context(a)
        for fam, params in families:
            entry = get_entry(fam)
            for k in range(0, 5):
                ident = entry.identity(**params)
                if pw_check(ctx, ident, k=k):
                    assert check_concrete(a, ident, k=k).holds


def test_pw_identity_claims_on_corpus(corpus, pw_context):
    # theorem instances with measured parameters must validate
    lat = corpus["lattice2"]
    ctx = pw_context(lat)
    # QDIST with q=1, n=1 on the lattice: a & (b o g o b) <= ...
    assert pw_check(ctx, get_entry("QDIST").identity(q=1, n=1))
    assert pw_check(ctx, get_entry("QDISTCONV").identity(q=1, n=1))
    assert pw_check(ctx, get_entry("AGT_4HB").identity(h=0, n=1))
    assert pw_check(ctx, get_entry("Q2_B").identity(r=1, s=2, n=1, q=1))
    z2 = corpus["z2"]
    ctxz = pw_context(z2)
    # the 7-factor left side needs F(8); feasible for z2, capped for lattices
    assert pw_check(ctxz, get_entry("QMOD2").identity(h=1, t=2, n=0))
    assert pw_check(ctxz, get_entry("BBB").identity(n=1))
    assert pw_check(ctxz, get_entry("TTRIPLE").identity(m=3, h=1, k=1))


def test_enumerate_relations_complete_small(chain3):
    adm = enumerate_relations(chain3, ADMISSIBLE)
    # brute force count: every off-diagonal mask that is compatible
    from modbench.relations import is_compatible
    count = 0
    offdiag = [(i, j) for i in range(3) for j in range(3) if i != j]
    for mask in range(1 << 6):
        pairs = [offdiag[t] for t in range(6) if (mask >> t) & 1]
        if is_compatible(chain3, BinRel.from_pairs(3, pairs), ADMISSIBLE):
            count += 1
    assert len(adm) == count
    tols = enumerate_relations(chain3, TOLERANCE)
    assert all(t.is_symmetric() for t in tols)


def test_pw_day_agrees_with_chain_search(corpus, pw_context):
    # a verified Day(k) chain exists exactly when the k-level inclusion
    # holds variety-wide (k >= 1; the chain scheme has no k = 0 form)
    from modbench.chains import search_day
    day = get_entry("DAY")
    for name in ("one", "z2", "lattice2", "chain3", "semilattice2"):
        a = corpus[name]
        ctx = pw_context(a)
        res = search_day(a, ctx=ctx)
        for k in range(1, 7):
            holds = pw_check(ctx, day.identity(m=3), k=k)
            assert holds == (res.found and res.value <= k), (name, k)


def test_more_theorem_instances_on_z2(corpus, pw_context):
    z2 = corpus["z2"]
    ctx = pw_context(z2)
    # permutable: one composite block absorbs the whole left side
    assert spectrum(z2, "TSTARSTAR", params={"m": 3}, ctx=ctx).value == 1
    assert spectrum(z2, "TSTAR", params={"m": 3}, ctx=ctx).value == 0
    # five-factor identities live in F(6) = 64 elements here
    assert pw_check(ctx, get_entry("AGT_4H").identity(h=1, n=1))
    assert pw_check(ctx, get_entry("Q2_A").identity(r=1, s=2, n=1))
    assert pw_check(ctx, get_entry("AGT_4HBCONV").identity(h=0, n=1))


def test_ed_holds_at_even_day_length(lattice2):
    # the lattice is 3-modular; the tolerance identities hold at the even
    # rounding 2r = 4
    assert spectrum(lattice2, "ED").value <= 4
    assert spectrum(lattice2, "NTE").value <= 4
    assert spectrum(lattice2, "EDDD").value <= 3


def _labels_to_binrel(labels):
    n = len(labels)
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if labels[i] == labels[j]:
                row |= 1 << j
        rows.append(row)
    return BinRel(n, rows)


def test_reach_agrees_with_bitset_eval(corpus, pw_context):
    # dual route: the partition/saturation engine vs direct bitset
    # evaluation of the right-hand side on the free algebra itself
    from modbench.checks import pw_analyze
    from modbench.dsl import substitute_k
    cases = {
        "z2": [("DAY", {"m": 3}), ("DAY", {"m": 4}), ("TSCHANTZ", {"m": 2}),
               ("DSTAR", {"l": 2}), ("DAY_REV", {"m": 3}),
               ("TSTARSTAR", {"m": 3})],
        "lattice2": [("DAY", {"m": 3}), ("TSCHANTZ", {"m": 2}),
                     ("DAY_REV", {"m": 3})],
        "semilattice2": [("DAY", {"m": 3}), ("TSCHANTZ", {"m": 2})],
    }
    for name, fams in cases.items():
        a = corpus[name]
        ctx = pw_context(a)
        for fam, params in fams:
            ident = get_entry(fam).identity(**params)
            cfg = pw_analyze(ident)
            g = cfg.target + 1
            f = ctx.free(g)
            seed_map = dict(cfg.seeds)
            env = {v: _labels_to_binrel(ctx.partition(g,
                                                      seed_map.get(v, ())))
                   for v, _ in ident.var_kinds}
            fa = free_as_algebra(f)
            src = f.generators[0]
            dst = f.generators[cfg.target]
            for k in range(0, 5):
                rhs = substitute_k(ident.rhs, k)
                rel = eval_expr(fa, rhs, env)
                want = rel.has(src, dst)
                got = pw_check(ctx, ident, k=k)
                assert got == want, (name, fam, k)


def test_meets_of_two_composites_agree_with_bitset_eval(corpus, pw_context):
    # a meet with two composite items is reached one source at a time
    texts = ("cong a b g; a & (b o g) <= alt((b o g) & (g o b), a & g, k)",
             "cong a b g; a & (b o g) <= "
             "alt(a & b, a & (b o g) & (g o b), k)")
    for name in ("one", "z2", "lattice2", "semilattice2"):
        ctx = pw_context(corpus[name])
        for text in texts:
            ident = parse_identity(text)
            cfg = pw_analyze(ident)
            g = cfg.target + 1
            f = ctx.free(g)
            seeds = dict(cfg.seeds)
            env = {v: _labels_to_binrel(ctx.partition(g, seeds.get(v, ())))
                   for v, _ in ident.var_kinds}
            fa = free_as_algebra(f)
            for k in range(4):
                rel = eval_expr(fa, substitute_k(ident.rhs, k), env)
                want = rel.has(f.generators[0], f.generators[cfg.target])
                assert pw_check(ctx, ident, k=k) == want, (name, text, k)


def test_lhs_alternation_is_its_composition(corpus, pw_context):
    rhs = " <= alt(a & g, a & b, k)"
    alt = parse_identity("cong a b g; a & alt(b, g, 3)" + rhs)
    comp = parse_identity("cong a b g; a & (b o g o b)" + rhs)
    assert pw_analyze(alt) == pw_analyze(comp)
    for name in ("one", "z2", "lattice2", "semilattice2"):
        ctx = pw_context(corpus[name])
        assert ([pw_check(ctx, alt, k=k) for k in range(4)]
                == [pw_check(ctx, comp, k=k) for k in range(4)]), name
    for count, message in (("0", "must be concrete and positive"),
                           ("k", "symbolic count on the left-hand side")):
        with pytest.raises(PWGrammarError, match=message):
            pw_analyze(parse_identity(
                f"cong a b g; a & alt(b, g, {count})" + rhs))
    with pytest.raises(PWGrammarError, match="power must be concrete and "
                                             "positive"):
        pw_analyze(parse_identity("cong a b g; a & pow(b o g, 0)" + rhs))


def test_relational_families_on_maltsev_algebra(z2):
    # every reflexive admissible relation on z2 is a congruence (the
    # classical Maltsev-variety fact), which forces these values
    adms = enumerate_relations(z2, ADMISSIBLE)
    assert all(r.is_symmetric() and r.is_transitive() for r in adms)
    assert spectrum(z2, "RMOD", params={"m": 2}).value == 1
    assert spectrum(z2, "RRMOD", params={"m": 3}).value == 2
    assert spectrum(z2, "TOLC", params={"h": 2, "m": 2}).value == 1
    assert spectrum(z2, "TR_REL", params={"m": 2}).value == 0


def test_same_variety_same_verdicts(lattice2, chain3, pw_context):
    # the two-element lattice and the three-chain generate the same
    # variety, so every variety-level verdict must coincide
    day = get_entry("DAY").identity(m=3)
    ts = get_entry("TSCHANTZ").identity(m=2)
    for k in range(5):
        assert pw_check(pw_context(lattice2), day, k=k) == \
            pw_check(pw_context(chain3), day, k=k)
    for k in range(3):
        assert pw_check(pw_context(lattice2), ts, k=k) == \
            pw_check(pw_context(chain3), ts, k=k)
    assert spectrum(lattice2, "TSCHANTZ_REV", params={"m": 3},
                    ctx=pw_context(lattice2)).value == \
        spectrum(chain3, "TSCHANTZ_REV", params={"m": 3},
                 ctx=pw_context(chain3)).value


def test_tschantz_rev_permutable(z2, pw_context):
    # with a Maltsev term the composite first factor absorbs everything
    assert spectrum(z2, "TSCHANTZ_REV", params={"m": 3},
                    ctx=pw_context(z2)).value == 0


# ---------------------------------------------------------------------------
# The one-pass concrete checker against a plain recursive evaluator and a
# scan over k that enumerates every environment again at each k


def _oracle_eval(a, e, env):
    def rec(x):
        if isinstance(x, VarE):
            return env[x.name]
        if isinstance(x, ComposeE):
            out = rec(x.items[0])
            for it in x.items[1:]:
                out = rel_compose(out, rec(it))
            return out
        if isinstance(x, MeetE):
            out = rec(x.items[0])
            for it in x.items[1:]:
                out = rel_meet(out, rec(it))
            return out
        if isinstance(x, ConvE):
            return rec(x.item).converse()
        if isinstance(x, GenE):
            return generate(a, [p for it in x.items for p in rec(it).pairs()],
                            x.kind)
        if isinstance(x, (AltE, PowE)):
            first, second = ((x.first, x.second) if isinstance(x, AltE)
                             else (x.item, x.item))
            if x.count == 0:
                return BinRel.identity(a.size)
            return rel_alt(rec(first), rec(second), x.count)
        raise AssertionError(x)
    return rec(e)


def _oracle_check(a, ident, k):
    """(holds, counterexample, envs_checked) by direct enumeration at k."""
    lhs, rhs = substitute_k(ident.lhs, k), substitute_k(ident.rhs, k)
    names = [name for name, _ in ident.var_kinds]
    spaces = [enumerate_relations(a, kind) for _, kind in ident.var_kinds]
    checked = 0
    for combo in itertools.product(*spaces):
        env = dict(zip(names, combo))
        if not all(_oracle_eval(a, c.sub, env) <= _oracle_eval(a, c.sup, env)
                   for c in ident.side_conditions):
            continue
        checked += 1
        if not _oracle_eval(a, lhs, env) <= _oracle_eval(a, rhs, env):
            return False, env, checked
    return True, None, checked


def _oracle_spectrum(a, ident, cap):
    """(bound, evidence) by the linear scan k = 0..cap."""
    for k in range(cap + 1):
        if _oracle_check(a, ident, k)[0]:
            return Bound(k, k), None
    _, env, _ = _oracle_check(a, ident, cap)
    return Bound(cap + 1), {"checked_up_to": cap, "counterexample": {
        name: rel.to_bitstrings() for name, rel in env.items()}}


def _assert_matches_oracle(a, family, cap):
    ident = get_entry(family).identity()
    res = spectrum(a, family, cap=cap)
    want = _oracle_spectrum(a, ident, cap)
    assert (res, res.evidence) == want, (a.name, family)
    for k in sorted({0, 1, cap}):
        got = check_concrete(a, ident, k=k)
        holds, env, checked = _oracle_check(a, ident, k)
        assert (got.holds, got.counterexample, got.envs_checked) == \
            (holds, env, checked), (a.name, family, k)
        if holds:
            assert got.least_k == _oracle_spectrum(a, ident, k)[0].value
        else:
            assert got.least_k is None


@st.composite
def _two_element_algebras(draw):
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    ops = tuple((f"f{i}", ar) for i, ar in enumerate(arities))
    tables = {name: draw(st.lists(st.integers(0, 1), min_size=2 ** ar,
                                  max_size=2 ** ar))
              for name, ar in ops}
    return FiniteAlgebra("hyp2", 2, Signature(ops), tables)


ALGEBRA_FAMILIES = sorted(name for name, e in CATALOG.items()
                          if e.level == ALGEBRA and e.scan is not None)


@pytest.mark.parametrize("name", ["one", "z2", "semilattice2", "lattice2",
                                  "pixley3", "chain3"])
def test_concrete_matches_oracle_on_corpus(corpus, name):
    # chain3 AG and AGI are too large for the oracle (and AGI for the
    # guard); AGAI takes the oracle about a minute there
    skip = {"AG", "AGI", "AGAI"} if name == "chain3" else set()
    for family in ALGEBRA_FAMILIES:
        if family not in skip:
            _assert_matches_oracle(corpus[name], family, cap=4)


@settings(max_examples=60, deadline=None)
@given(a=_two_element_algebras(),
       family=st.sampled_from(ALGEBRA_FAMILIES),
       cap=st.integers(0, 2))
def test_concrete_matches_oracle_on_random_algebras(a, family, cap):
    _assert_matches_oracle(a, family, cap)


def test_symbolic_count_on_both_sides_is_not_scanned(chain3):
    # with k on the left the right side is evaluated at the given k only;
    # a scan from 0 would report least_k = 2 at k = 2
    same = parse_identity("adm R; pow(R, k) <= pow(R, k)")
    n_adm = len(enumerate_relations(chain3, ADMISSIBLE))
    for k in range(4):
        res = check_concrete(chain3, same, k=k)
        assert res.holds and res.least_k is None
        assert res.envs_checked == n_adm
    mixed = parse_identity("adm R S; pow(R, k) & S <= alt(S, R, k)")
    for k in range(4):
        res = check_concrete(chain3, mixed, k=k)
        holds, env, checked = _oracle_check(chain3, mixed, k)
        assert (res.holds, res.counterexample, res.envs_checked) == \
            (holds, env, checked)
        assert res.least_k is None


@pytest.mark.parametrize("name", ["z2", "semilattice2", "lattice2",
                                  "pixley3"])
def test_batch_size_changes_no_output(corpus, monkeypatch, name):
    # one batch by default on these algebras; sizes 1, 7 and 26 split
    # every check, so counterexamples and the running least k cross batches
    a = corpus[name]

    def results():
        return {(family, k): check_concrete(a, get_entry(family).identity(),
                                            k=k)
                for family in ALGEBRA_FAMILIES for k in (0, 1, 4)}

    want = results()
    for size in (1, 7, 26):
        monkeypatch.setattr(checks, "BATCH", size)
        assert results() == want, size


@st.composite
def _small_algebras(draw):
    size = draw(st.sampled_from((2, 3)))
    arities = draw(st.lists(st.integers(0, 3 if size == 2 else 2),
                            min_size=1, max_size=2))
    ops = tuple((f"f{i}", ar) for i, ar in enumerate(arities))
    tables = {name: draw(st.lists(st.integers(0, size - 1),
                                  min_size=size ** ar, max_size=size ** ar))
              for name, ar in ops}
    return FiniteAlgebra(f"hyp{size}", size, Signature(ops), tables)


# every algebra-level family, ED and AG with side conditions, a symbolic
# count on both sides, and a declared variable that no side uses
_ORACLE_IDENTITIES = [
    *(get_entry(family).identity() for family in ALGEBRA_FAMILIES),
    parse_identity("adm R S; pow(R, k) & S <= alt(S, R, k)"),
    parse_identity("cong a b; adm R; a & R <= pow(a & R, k)")]


@settings(max_examples=60, deadline=None)
@given(a=_small_algebras(), ident=st.sampled_from(_ORACLE_IDENTITIES),
       k=st.integers(0, 2))
def test_batch_sizes_agree_with_the_oracle_on_random_algebras(a, ident, k):
    # batches of 1, 7 and 26 cut blocks whose split variable covers part of
    # its axis; the oracle walks every assignment in Python
    spaces = [len(enumerate_relations(a, kind)) for _, kind in
              ident.var_kinds]
    assume(math.prod(spaces) <= 4096)
    holds, env, checked = _oracle_check(a, ident, k)
    scanned = has_symbolic(ident.rhs) and not has_symbolic(ident.lhs)
    least = (next(m for m in range(k + 1) if _oracle_check(a, ident, m)[0])
             if holds and scanned else None)
    for size in (1, 7, 26, checks.BATCH):
        with mock.patch.object(checks, "BATCH", size):
            got = check_concrete(a, ident, k=k)
        assert (got.holds, got.counterexample, got.envs_checked,
                got.least_k) == (holds, env, checked, least), size


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), max_size=4),
       batch=st.integers(1, 300))
def test_boxes_cover_the_product_in_order(sizes, batch):
    # each block is a box of at most BATCH environments, and the blocks'
    # environments, flattened in turn, are the product order
    grid = np.arange(math.prod(sizes)).reshape(sizes)
    seen = []
    with mock.patch.object(checks, "BATCH", batch):
        for box in checks._boxes(sizes):
            block = grid[box].reshape(-1)
            assert block.size <= batch
            seen.extend(block.tolist())
    assert seen == list(range(grid.size))


def test_a_variable_no_side_uses_multiplies_the_assignments(chain3):
    # b is declared and never used: each of its 4 congruences repeats
    # every (a, R), 4 * 4 * 25 assignments in all
    ident = parse_identity("cong a b; adm R; a & R <= pow(a & R, k)")
    for size in (1, 7, 26, checks.BATCH):
        with mock.patch.object(checks, "BATCH", size):
            held = check_concrete(chain3, ident, k=1)
            failed = check_concrete(chain3, ident, k=0)
        assert (held.holds, held.envs_checked, held.least_k) == \
            (True, 400, 1), size
        assert (failed.holds, failed.envs_checked) == (False, 105), size
        assert (False, failed.counterexample, 105) == \
            _oracle_check(chain3, ident, 0), size


def _counting(monkeypatch):
    """Wrap the scalar calculus the concrete checker calls; each call
    appends its operation and arguments to the list returned."""
    seen = []
    for name in ("compose", "meet", "union", "generate"):
        def wrapper(*args, _name=name, _fn=getattr(checks, name)):
            if _name == "generate":
                args = (args[0], tuple(args[1]), args[2])
                seen.append((_name, args[1:]))
            else:
                seen.append((_name, tuple(r.rows for r in args)))
            return _fn(*args)
        monkeypatch.setattr(checks, name, wrapper)
    return seen


@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=200),
       narrow=st.booleans())
def test_distinct_is_np_unique(x, narrow):
    x = np.array(x, dtype=np.int64)
    if narrow:
        x %= 7
    assert np.array_equal(checks._distinct(x), np.unique(x))


def test_each_distinct_argument_is_computed_once(chain3, monkeypatch):
    seen = _counting(monkeypatch)
    agai = get_entry("AGAI").identity()
    for run, want in (
            (lambda: spectrum(chain3, "AGAI"), Bound(1, 1)),
            (lambda: check_concrete(chain3, agai, k=4).least_k, 1),
            (lambda: check_concrete(chain3, agai, k=0).holds, False)):
        seen.clear()
        assert run() == want
        assert len(set(seen)) == len(seen)
        counts = collections.Counter(name for name, _ in seen)
        assert counts == {"compose": 625, "union": 625, "generate": 25,
                          "meet": 100 if want != False else 50}, counts


def test_result_tables_grow_with_the_results_computed(monkeypatch):
    # the 6-element chain, a member of V(lattice2)
    n = 6
    chain6 = FiniteAlgebra("chain6", n, Signature((("meet", 2),
                                                   ("join", 2))),
                           {"meet": [min(x, y) for x in range(n)
                                     for y in range(n)],
                            "join": [max(x, y) for x in range(n)
                                     for y in range(n)]})
    made = []

    class Recorded(checks._Calculus):
        def __init__(self, a):
            super().__init__(a)
            made.append(self)

    monkeypatch.setattr(checks, "_Calculus", Recorded)
    res = check_concrete(chain6, get_entry("DAY").identity(m=5), k=64)
    assert res.holds and res.least_k == 5
    (calc,) = made
    # an alternation is composed out in the composition table, so no
    # table is kept per count
    assert set(calc._tables) <= {"o", "&", "|", "<=", "conv", *KIND_LEVEL}
    tables = calc._tables.values()
    cells = sum(t.res.size for t in tables)
    computed = sum(int(np.count_nonzero(t.res >= 0)) for t in tables)
    # 14,336 cells hold 2,476 results, where the 234 ids would index
    # 54,756 cells per operation
    assert cells <= 8 * computed
    assert cells < len(calc.rels) ** 2


def test_alternations_of_large_counts(chain3):
    # an alternation is composed out one factor at a time and stops at its
    # fixed point, so a count of 10**9 is answered at once; every
    # alternation here is fixed well before 5000 factors
    adm = enumerate_relations(chain3, ADMISSIBLE)
    ref = functools.cache(rel_alt)
    for form, args in (("alt(R, S, {})", lambda r, s: (r, s)),
                       ("alt(S, R, {})", lambda r, s: (s, r)),
                       ("pow(R, {})", lambda r, s: (r, r))):
        ident = parse_identity(f"adm R S; {form.format('k')} <= "
                               f"{form.format(2)}")
        for m in (2, 3, 4000, 5000, 5001, 10 ** 9):
            def want(r, s, m=min(m, 5001)):
                return ref(*args(r, s), m)

            for r, s in ((adm[1], adm[2]), (adm[5], adm[-3]),
                         (adm[7], adm[7])):
                assert eval_expr(chain3, substitute_k(ident.lhs, m),
                                 {"R": r, "S": s}) == want(r, s), (form, m)
            # a batch of all 625 pairs, against the first pair in product
            # order whose alternation passes that of two factors
            expected = (True, None, len(adm) ** 2)
            for n, (r, s) in enumerate(itertools.product(adm, adm), 1):
                if not want(r, s) <= want(r, s, 2):
                    expected = (False, {"R": r, "S": s}, n)
                    break
            res = check_concrete(chain3, ident, k=m)
            assert (res.holds, res.counterexample, res.envs_checked) == \
                expected, (form, m)


@settings(max_examples=40, deadline=None)
@given(a=_small_algebras(), data=st.data())
def test_a_batch_of_alternations_stops_at_its_fixed_point(a, data):
    # the batch stops once two steps in a row change no environment's id,
    # so an environment fixed early waits for the others.  A relation on at
    # most 3 elements has at most 9 pairs, and an alternation not yet fixed
    # gains one every two factors, so 40 factors are past every fixed point.
    # The batch is a box, R on one axis and S on the other, so the first
    # composition broadcasts and the fixed point compares broadcast ids
    adm = enumerate_relations(a, ADMISSIBLE)
    rs, ss = (data.draw(st.lists(st.sampled_from(adm), min_size=1,
                                 max_size=3)) for _ in "RS")
    pairs = list(itertools.product(rs, ss))

    def fixed_at(r, s):
        m = 1
        while not rel_alt(r, s, m) == rel_alt(r, s, m + 1) == \
                rel_alt(r, s, m + 2):
            m += 1
        return m

    assume(len({fixed_at(r, s) for r, s in pairs}) > 1)
    calc = checks._Calculus(a)
    batch = checks._Batch(
        calc, {"R": np.array([calc.intern(r) for r in rs]).reshape(-1, 1),
               "S": np.array([calc.intern(s) for s in ss]).reshape(1, -1)},
        (len(rs), len(ss)))
    for m in (*range(41), 10 ** 9):
        got = batch.flat(batch.eval(AltE(VarE("R"), VarE("S"), m)))
        for (r, s), i in zip(pairs, got.tolist(), strict=True):
            want = rel_alt(r, s, min(m, 40)) if m else BinRel.identity(a.size)
            assert calc.rels[i] == want, m


def test_guard_message_of_a_huge_count(z2):
    # str() refuses an int of more than 4,300 digits; the count is shown
    # as a power instead
    reason = ("at least 2 * 2**20003 variable assignments exceed the cap "
              "2000000")
    assert spectrum(z2, "AGI", params={"m": 20000}) == Bound(0, None, reason)


def test_identity_without_variables_is_one_empty_environment(chain3):
    # no DSL statement lacks variables, so the identity is built past the
    # declaration check; its single empty environment is evaluated and
    # meets the undeclared variable
    ident = object.__new__(Identity)
    for field, value in (("name", "bare"), ("var_kinds", ()),
                         ("lhs", VarE("x")), ("rhs", VarE("x")),
                         ("side_conditions", ())):
        object.__setattr__(ident, field, value)
    with pytest.raises(CheckError, match="unbound variable x"):
        check_concrete(chain3, ident)
    # an empty environment evaluates what needs no variable
    assert eval_expr(chain3, AltE(VarE("x"), VarE("y"), 0), {}) == \
        BinRel.identity(3)
    # sides that need no variable are one assignment, at any batch
    for rhs, k, least in ((AltE(VarE("x"), VarE("y"), 0), None, None),
                          (AltE(VarE("x"), VarE("y"), K), 3, 0)):
        object.__setattr__(ident, "lhs", AltE(VarE("x"), VarE("y"), 0))
        object.__setattr__(ident, "rhs", rhs)
        for size in (1, checks.BATCH):
            with mock.patch.object(checks, "BATCH", size):
                assert check_concrete(chain3, ident, k=k) == \
                    ConcreteResult(True, None, 1, least)


def test_chain3_agai_beyond_the_oracle(chain3):
    res = check_concrete(chain3, get_entry("AGAI").identity(), k=4)
    assert (res.holds, res.counterexample, res.envs_checked,
            res.least_k) == (True, None, 62_500, 1)


def test_chain3_ag_counterexample_in_a_late_batch(chain3):
    res = check_concrete(chain3, get_entry("AG").identity(), k=0)
    assert not res.holds and res.envs_checked == 170_277
    assert res.envs_checked > checks.BATCH
    assert {name: rel.to_bitstrings()
            for name, rel in res.counterexample.items()} == {
        "a": ["100", "011", "011"], "t1": ["100", "010", "001"],
        "t2": ["100", "011", "001"], "R": ["100", "011", "001"],
        "S": ["100", "010", "001"]}


def _concrete_scans(cap):
    """Each algebra-level family's ``check_concrete`` at ``cap`` on the
    unary identity operation and the max semilattice on 3 and 4 elements,
    or the guard's refusal, and the seconds they took."""
    algebras = [a for n in (3, 4) for a in (
        FiniteAlgebra(f"s{n}", n, Signature((("f", 1),)),
                      {"f": list(range(n))}),
        FiniteAlgebra(f"sl{n}", n, Signature((("j", 2),)),
                      {"j": [max(x, y) for x in range(n) for y in range(n)]}))]
    cells = []
    start = time.perf_counter()
    for a in algebras:
        for family in ALGEBRA_FAMILIES:
            try:
                res = check_concrete(a, get_entry(family).identity(), k=cap)
            except GuardExceeded as exc:
                cells.append((a.name, family, str(exc)))
                continue
            shown = res.counterexample and sorted(
                (name, rel.to_bitstrings())
                for name, rel in res.counterexample.items())
            cells.append((a.name, family, res.holds, shown, res.envs_checked,
                          res.least_k))
    return cells, time.perf_counter() - start


# digests of the cells' repr, recorded with the scan that stepped every
# failing environment up to the cap; from cap 5 on every cell is the same
_SCAN_DIGESTS = {
    0: "02c4a5e0a51581846046239e7443092a59d55669a9712eb96c87513d93b824f7",
    1: "a010b071765247b53cc9d5045169eeb95d4043126e92a978a2ffe4ff75ddeb41",
    5: "3ebb23ad36c89e9960a98a8d95c31c08129e56e7a2b8d44c8baacd36d79bea98",
    64: "3ebb23ad36c89e9960a98a8d95c31c08129e56e7a2b8d44c8baacd36d79bea98",
    1000: "3ebb23ad36c89e9960a98a8d95c31c08129e56e7a2b8d44c8baacd36d79bea98"}


def test_concrete_scans_stop_where_no_alternation_moves():
    # 26 of the 48 cells fail at every cap from 1 on: their failing
    # environments' alternations reach their fixed point within a few
    # steps, so a cap of 1000 costs what a cap of 64 does
    seconds = {}
    for cap, want in _SCAN_DIGESTS.items():
        cells, seconds[cap] = _concrete_scans(cap)
        assert hashlib.sha256(repr(cells).encode()).hexdigest() == want, cap
        if cap >= 1:
            assert sum(holds is False for _, _, holds, *_ in cells) == 26
    # best of two, on a shared host
    for cap in (64, 1000):
        seconds[cap] = min(seconds[cap], _concrete_scans(cap)[1])
    assert seconds[1000] <= 1.5 * seconds[64]


def test_concrete_matches_oracle_on_a_five_element_algebra():
    # the cycle's admissible relations are the unions of its shifted
    # diagonals {(x, x + d)}, one for each set of shifts d = 1..4, and its
    # tolerances those closed under d -> 5 - d
    cycle5 = FiniteAlgebra("cycle5", 5, Signature((("f", 1),)),
                           {"f": [1, 2, 3, 4, 0]})
    shifts = [s for size in range(5)
              for s in itertools.combinations(range(1, 5), size)]
    unions = {s: BinRel.from_pairs(5, [(x, (x + d) % 5) for d in s
                                       for x in range(5)]) for s in shifts}
    assert {r.rows for r in enumerate_relations(cycle5, ADMISSIBLE)} == \
        {r.rows for r in unions.values()}
    assert {r.rows for r in enumerate_relations(cycle5, TOLERANCE)} == \
        {r.rows for s, r in unions.items()
         if all(5 - d in s for d in s)}
    for family in ALGEBRA_FAMILIES:
        # AG has 131,072 environments, and AGI meets the guard
        if family in ("AG", "AGI"):
            continue
        ident = get_entry(family).identity()
        held = []
        for k in (0, 1, 2):
            got = check_concrete(cycle5, ident, k=k)
            holds, env, checked = _oracle_check(cycle5, ident, k)
            assert (got.holds, got.counterexample, got.envs_checked) == \
                (holds, env, checked), (family, k)
            held.append(holds)
        want = held.index(True) if held[-1] else None
        assert got.least_k == want, family


def test_least_k_is_the_spectrum(z2, chain3):
    res = check_concrete(chain3, get_entry("RRMOD").identity(), k=64)
    assert res.holds and res.least_k == spectrum(chain3, "RRMOD").value == 3
    # fails at k = 2, so nothing is scanned to report
    res = check_concrete(chain3, get_entry("RRMOD").identity(), k=2)
    assert not res.holds and res.least_k is None
    # no symbolic count, no scan
    res = check_concrete(z2, parse_identity("adm R; R <= R"))
    assert res.holds and res.least_k is None


def test_five_element_spectra_are_decided():
    m5 = parse_algebra(m5_text())
    for family, value in (("RMOD", 2), ("TOLC", 1), ("ED", 3), ("EDDD", 2),
                          ("NTE", 3)):
        assert spectrum(m5, family) == Bound(value, value), family
    # a counterexample at the cap refutes every k up to it
    assert spectrum(m5, "RMOD", cap=1) == Bound(2)


def test_the_guard_stops_the_relation_listing():
    # m5 has 16 congruences and 1,764 admissible relations, and a constant
    # unary operation on five elements makes all 2**20 reflexive relations
    # admissible; each listing stops once the product passes the cap
    m5 = parse_algebra(m5_text())
    const5 = FiniteAlgebra("const5", 5, Signature((("f", 1),)),
                           {"f": [0] * 5})
    for a, family, reason in (
            (m5, "AGA", "at least 2005056 variable assignments exceed the "
                        "cap 2000000"),
            (const5, "RMOD", "at least 2000024 variable assignments exceed "
                             "the cap 2000000")):
        start = time.perf_counter()
        assert spectrum(a, family) == Bound(0, None, reason)
        assert time.perf_counter() - start < 5, family
    assert len(enumerate_relations(m5, ADMISSIBLE)) == 1764


def test_the_guard_stops_the_congruence_listing():
    # the unary identity operation on nine elements leaves every one of the
    # 21,147 equivalence relations a congruence; ED's three congruence
    # variables are refused once 126 of them are listed
    s9 = FiniteAlgebra("s9", 9, Signature((("f", 1),)),
                       {"f": list(range(9))})
    start = time.perf_counter()
    assert spectrum(s9, "ED") == Bound(0, None, (
        "at least 2000376 variable assignments exceed the cap 2000000"))
    assert time.perf_counter() - start < 5
    listed = enumerate_relations(s9, CONGRUENCE, 126)
    assert len(set(listed)) == 126
    assert listed == sorted(listed, key=lambda r: r.rows)
    assert all(r.is_symmetric() and r.is_transitive() for r in listed)
    # a limit the lattice fits in gives the whole sorted lattice
    m5 = parse_algebra(m5_text())
    assert enumerate_relations(m5, CONGRUENCE, 16) == all_congruences(m5)
    assert len(enumerate_relations(m5, CONGRUENCE, 5)) == 5
    # past twelve elements the lattice guard refuses before any listing
    s13 = FiniteAlgebra("s13", 13, Signature((("f", 1),)),
                        {"f": list(range(13))})
    with pytest.raises(GuardExceeded, match="size 13 exceeds cap 12"):
        enumerate_relations(s13, CONGRUENCE, 1)


def test_negative_k_is_rejected(z2, lattice2, pw_context):
    day = get_entry("DAY").identity()
    with pytest.raises(DslError, match="nonnegative"):
        substitute_k(day.rhs, -1)
    for a in (z2, lattice2):
        with pytest.raises(DslError, match="nonnegative"):
            pw_check(pw_context(a), day, k=-1)
        with pytest.raises(DslError, match="nonnegative"):
            check_concrete(a, day, k=-1)
    with pytest.raises(DslError, match="nonnegative"):
        check_concrete(z2, get_entry("RMOD").identity(), k=-1)


def test_negative_spectrum_cap_is_rejected(z2):
    for family in ("DAY", "RMOD"):
        with pytest.raises(CheckError, match="nonnegative"):
            spectrum(z2, family, cap=-3)


# ---------------------------------------------------------------------------
# Variety-level spectra read off one walk, against a pw_check per k

VARIETY_SCAN_FAMILIES = sorted(name for name, e in CATALOG.items()
                               if e.level == VARIETY and e.scan is not None)


def test_variety_scan_families_end_in_a_k_alternation(z2):
    assert VARIETY_SCAN_FAMILIES == sorted([
        "DAY", "DAY_REV", "DSTAR", "TSCHANTZ", "TSCHANTZ_REV", "TSTAR",
        "TSTARSTAR", "Q2_BASE"])
    for name in VARIETY_SCAN_FAMILIES:
        rhs = get_entry(name).identity().rhs
        *prefix, tail = rhs.items if isinstance(rhs, ComposeE) else (rhs,)
        assert isinstance(tail, (AltE, PowE)) and tail.count == K
        assert not any(has_symbolic(x) for x in prefix)
    # every other shape is refused before any free algebra is built
    ctx = PWContext(z2, cap_entries=1)
    for bad in ("cong a b; a <= alt(a, b, k) o b",      # k not trailing
                "cong a b; a <= alt(a, b, 2)",          # no k at all
                "cong a b; a <= pow(a, k) o alt(a, b, k)",
                "cong a b; a <= alt(a & pow(b, k), b, k)",
                "cong a b; a <= a & alt(a, b, k)"):
        with pytest.raises(PWGrammarError):
            walk_scan(ctx, parse_identity(bad), 4)


def _numbered_verdicts(ctx, ident, cfg, perm):
    """The inclusion at k = 0..4 with ``cfg``'s node u numbered perm[u]."""
    g = cfg.target + 1
    f = ctx.free(g)
    seeds = dict(cfg.seeds)
    parts = {v: ctx.partition(g, [(perm[u], perm[w])
                                  for u, w in seeds.get(v, ())])
             for v, _ in ident.var_kinds}
    frontier = np.zeros(f.n_elements, dtype=bool)
    frontier[f.generators[perm[0]]] = True
    target = f.generators[perm[cfg.target]]
    return [bool(checks._reach(push_converse(substitute_k(ident.rhs, k),
                                             ident.kinds()),
                               frontier, parts)[target])
            for k in range(5)]


def _small_random_algebras(count):
    """The first ``count`` draws from a fixed seed whose F(4) has more
    than 8 elements and fits 200,000 vector entries, each with a context
    under that cap."""
    rng = random.Random(5)
    while count:
        a = random_algebra(rng, size=rng.choice([2, 3]), max_arity=2)
        ctx = PWContext(a, cap_entries=200_000)
        try:
            if ctx.free(4).n_elements <= 8:
                continue
        except CapExceeded:
            continue
        count -= 1
        yield a, ctx


def test_verdicts_do_not_depend_on_generator_numbering(corpus, pw_context):
    # pw_analyze numbers the source 0 and the target last; every other
    # numbering of the configuration's nodes gives the same verdicts
    cases = [(corpus[name], pw_context(corpus[name]))
             for name in ("one", "z2", "lattice2", "semilattice2")]
    cases += _small_random_algebras(3)
    for a, ctx in cases:
        for family in VARIETY_SCAN_FAMILIES:
            ident = get_entry(family).identity()
            cfg = pw_analyze(ident)
            want = [pw_check(ctx, ident, k=k) for k in range(5)]
            for perm in itertools.permutations(range(cfg.target + 1)):
                assert _numbered_verdicts(ctx, ident, cfg, perm) == want, \
                    (a.name, family, perm)


def _pw_scan(ctx, ident, cap):
    """(bound, evidence) by one pw_check at each k = 0..cap."""
    for k in range(cap + 1):
        if pw_check(ctx, ident, k=k):
            return Bound(k, k), None
    return Bound(cap + 1), {"checked_up_to": cap}


# larger parameters where the free algebra stays small
_MORE_PARAMS = {"DAY": {"m": 4}, "DAY_REV": {"m": 5}, "DSTAR": {"l": 2},
                "TSCHANTZ": {"m": 3}, "TSCHANTZ_REV": {"m": 4},
                "TSTAR": {"m": 4}, "TSTARSTAR": {"m": 4},
                "Q2_BASE": {"r": 2}}


@pytest.mark.parametrize("name", ["one", "z2", "lattice2", "chain3",
                                  "semilattice2"])
def test_variety_spectrum_matches_pw_scan(corpus, pw_context, name):
    # F(4) fits the default caps on all five; the larger parameters need
    # up to F(6), which only the small free algebras afford
    a = corpus[name]
    ctx = pw_context(a)
    for family in VARIETY_SCAN_FAMILIES:
        options = [{}]
        if name in ("one", "z2", "semilattice2"):
            options.append(_MORE_PARAMS[family])
        for params in options:
            ident = get_entry(family).identity(**params)
            for cap in (0, 1, 2, 6):
                res = spectrum(a, family, cap=cap, params=params, ctx=ctx)
                assert (res, res.evidence) == \
                    _pw_scan(ctx, ident, cap), (name, family, params, cap)


def test_spectrum_stops_at_a_fixed_point(semilattice2, lattice2, pw_context):
    # semilattice2 is not congruence modular: DAY(3)'s walk stalls short of
    # the target, and the cap is never reached
    ident = get_entry("DAY").identity()
    ctx = pw_context(semilattice2)
    res = spectrum(semilattice2, "DAY", ctx=ctx)
    assert (res, res.evidence) == _pw_scan(ctx, ident, 64)
    walk, _, _ = walk_scan(ctx, ident, 64)
    assert walk.stalled and walk.reached is None and len(walk.layers) < 64
    # a cap below the value: not stalled, stopped at the cap
    ctx = pw_context(lattice2)
    walk, _, _ = walk_scan(ctx, ident, 2)
    assert not walk.stalled and walk.reached is None
    assert len(walk.layers) == 3


def test_context_skips_builds_above_a_failed_one(lattice2):
    # F(5) fails first, then F(4); F(6) is skipped, naming the first failure
    ctx = PWContext(lattice2, cap_entries=1000)
    for g in (5, 4):
        with pytest.raises(CapExceeded) as first:
            ctx.free(g)
        assert "skipped" not in str(first.value)
    with pytest.raises(CapExceeded) as skipped:
        ctx.free(6)
    assert str(skipped.value) == ("free algebra on 6 generators skipped: the "
                                  "build on 5 generators already exceeded "
                                  "caps")
    assert skipped.value.elements_reached == 0
    assert ctx.free(3).n_elements == 18
