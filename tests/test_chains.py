import pytest

from modbench.chains import (ALVIN, DAY, GUMM, JONSSON, ChainError,
                             TermChain, as_defective, extend_chain,
                             search_day, search_gumm, search_jonsson,
                             verify_chain)
from modbench.checks import CheckError, PWContext, pw_check
from modbench.catalog import get_entry
from modbench.free import App, CapExceeded, Var

PLUS3 = App("plus", (Var(1), App("plus", (Var(2), Var(3)))))      # y+z+w
MALTSEV = App("plus", (Var(0), App("plus", (Var(1), Var(2)))))    # x+y+z
MAJ = App("join", (App("join", (
    App("meet", (Var(0), Var(1))),
    App("meet", (Var(1), Var(2))))),
    App("meet", (Var(0), Var(2)))))


def test_verify_day_z2(z2):
    chain = TermChain(DAY, (Var(0), PLUS3, Var(3)))
    assert verify_chain(z2, chain).valid


def test_verify_day_violation(z2):
    chain = TermChain(DAY, (Var(0), Var(0), Var(3)))
    verdict = verify_chain(z2, chain)
    assert not verdict.valid
    labels = [v.equation for v in verdict.violations]
    assert any("d1" in s for s in labels)
    # counter-assignments are reported
    assert all(len(v.assignment) == 4 for v in verdict.violations)


def test_verify_gumm_z2(z2):
    chain = TermChain(GUMM, (MALTSEV, Var(2)))
    assert verify_chain(z2, chain).valid


def test_verify_jonsson_majority(lattice2):
    chain = TermChain(JONSSON, (Var(0), MAJ, Var(2)))
    assert verify_chain(lattice2, chain).valid


def test_verify_alvin_pixley(pixley3):
    chain = TermChain(ALVIN, (Var(0), App("t", (Var(0), Var(1), Var(2))),
                              Var(2)))
    assert verify_chain(pixley3, chain).valid


def test_structural_constraints():
    with pytest.raises(ChainError):
        TermChain(DAY, (Var(1), PLUS3, Var(3)))      # must start with x
    with pytest.raises(ChainError):
        TermChain(DAY, (Var(0), PLUS3, Var(2)))      # must end with w
    with pytest.raises(ChainError):
        TermChain(DAY, (Var(0),))
    with pytest.raises(ChainError):
        TermChain(GUMM, (Var(2),))                   # n = -1: too short
    with pytest.raises(ChainError):
        TermChain(GUMM, (App("f", (Var(3),)), Var(2)))  # var out of range


def test_search_day_values(corpus, pw_context):
    expected = {"one": 1, "z2": 2, "lattice2": 3, "chain3": 3}
    for name, k in expected.items():
        a = corpus[name]
        res = search_day(a, ctx=pw_context(a))
        assert res.found and res.value == k
        assert verify_chain(a, res.chain).valid


def test_search_day_minimality_direct(lattice2, pw_context):
    # direct relational refutation of k-1 in the free algebra
    ctx = pw_context(lattice2)
    day = get_entry("DAY")
    res = search_day(lattice2, ctx=ctx)
    assert not pw_check(ctx, day.identity(m=3), k=res.value - 1)
    assert pw_check(ctx, day.identity(m=3), k=res.value)


def test_search_day_not_modular(semilattice2):
    res = search_day(semilattice2)
    assert not res.found
    assert res.proven_absent


def test_search_gumm_values(corpus, pw_context):
    expected = {"one": 0, "z2": 0, "lattice2": 1, "chain3": 1, "pixley3": 0}
    for name, n in expected.items():
        a = corpus[name]
        res = search_gumm(a, ctx=pw_context(a))
        assert res.found and res.value == n


def test_search_gumm_maltsev_case(z2, pw_context):
    res = search_gumm(z2, ctx=pw_context(z2))
    chain = res.chain
    assert chain.param == 0 and len(chain.terms) == 2
    assert verify_chain(z2, chain).valid


def test_search_jonsson(corpus, pw_context):
    lat = corpus["lattice2"]
    res = search_jonsson(lat, ctx=pw_context(lat))
    assert res.value == 1  # majority makes distributive lattices 2-distributive
    z2 = corpus["z2"]
    res = search_jonsson(z2, ctx=pw_context(z2))
    assert not res.found and res.proven_absent


def test_search_alvin_pixley(pixley3, pw_context):
    res = search_jonsson(pixley3, alvin=True, ctx=pw_context(pixley3))
    assert res.found and res.value == 1
    assert res.chain.scheme == ALVIN


def test_chains_from_searches_verify(corpus, pw_context):
    # pixley3 is excluded from the Day search: its F(4) exceeds default caps
    for name in ("one", "z2", "lattice2", "chain3", "pixley3"):
        a = corpus[name]
        ctx = pw_context(a)
        searches = [search_gumm(a, ctx=ctx),
                    search_jonsson(a, ctx=ctx),
                    search_jonsson(a, alvin=True, ctx=ctx)]
        if name != "pixley3":
            searches.append(search_day(a, ctx=ctx))
        for res in searches:
            if res.found:
                assert verify_chain(a, res.chain).valid


def test_extend_chain(z2, lattice2):
    day = TermChain(DAY, (Var(0), PLUS3, Var(3)))
    ext = extend_chain(day)
    assert ext.param == 3 and verify_chain(z2, ext).valid
    gumm = TermChain(GUMM, (MALTSEV, Var(2)))
    assert verify_chain(z2, extend_chain(gumm)).valid
    jon = TermChain(JONSSON, (Var(0), MAJ, Var(2)))
    assert verify_chain(lattice2, extend_chain(jon)).valid


def test_defective_weaker_than_gumm(lattice2, pw_context):
    res = search_gumm(lattice2, ctx=pw_context(lattice2))
    dd = as_defective(extend_chain(res.chain))
    assert verify_chain(lattice2, dd).valid


def test_day_gumm_count_relations(corpus, pw_context):
    # k <= 2n+2 and n+2 <= k^2-k+1 for every modular corpus algebra
    for name in ("z2", "lattice2", "chain3"):
        a = corpus[name]
        ctx = pw_context(a)
        k = search_day(a, ctx=ctx).value
        n = search_gumm(a, ctx=ctx).value
        assert k <= 2 * n + 2
        assert n + 2 <= k * k - k + 1


# The terms each search extracts, as `modbench terms --json` prints them.
# The generator numbering of the search configurations and the
# smallest-index backtrack fix them; pixley3's F(4) exceeds the default
# caps, so it has no Day search.
EXTRACTED_TERMS = {
    ("one", DAY): ["x0", "x3"],
    ("one", GUMM): ["x0", "x2"],
    ("one", JONSSON): ["x0", "x2"],
    ("one", ALVIN): ["x0", "x2"],
    ("z2", DAY): ["x0", "(plus (plus x2 x1) x3)", "x3"],
    ("z2", GUMM): ["(plus (plus x1 x0) x2)", "x2"],
    ("z2", JONSSON): None,
    ("z2", ALVIN): None,
    ("lattice2", DAY): ["x0", "(meet (meet (join x3 x0) (join x1 x0)) "
                              "(join x3 x1))",
                        "(meet (meet (join x3 x0) (join x2 x0)) "
                        "(join x3 x2))", "x3"],
    ("lattice2", GUMM): ["x0", "(meet (meet (join x2 x0) (join x1 x0)) "
                               "(join x2 x1))", "x2"],
    ("lattice2", JONSSON): ["x0", "(meet (meet (join x2 x0) (join x1 x0)) "
                                  "(join x2 x1))", "x2"],
    ("lattice2", ALVIN): ["x0", "x0", "(meet (meet (join x2 x0) (join x1 x0)) "
                                      "(join x2 x1))", "x2"],
    ("pixley3", GUMM): ["(t x0 x1 x2)", "x2"],
    ("pixley3", JONSSON): ["x0", "(t x0 (t x0 x1 x2) x2)", "x2"],
    ("pixley3", ALVIN): ["x0", "(t x0 x1 x2)", "x2"],
}
# chain3 generates the same variety as lattice2 and gets the same terms
EXTRACTED_TERMS.update({("chain3", scheme): terms for (name, scheme), terms
                        in EXTRACTED_TERMS.items() if name == "lattice2"})


def _search(a, scheme, ctx, limit=64):
    if scheme == DAY:
        return search_day(a, k_max=limit, ctx=ctx)
    if scheme == GUMM:
        return search_gumm(a, n_max=limit, ctx=ctx)
    return search_jonsson(a, n_max=limit, alvin=scheme == ALVIN, ctx=ctx)


@pytest.mark.parametrize("name", ["one", "z2", "lattice2", "chain3",
                                  "pixley3"])
def test_extracted_terms_are_pinned(corpus, pw_context, name):
    a = corpus[name]
    for (alg, scheme), terms in EXTRACTED_TERMS.items():
        if alg == name:
            res = _search(a, scheme, pw_context(a))
            assert (res.chain.describe() if res.found else None) == terms, \
                (name, scheme)


def test_negative_scan_limit_is_rejected(z2):
    for scheme in (DAY, GUMM, JONSSON, ALVIN):
        with pytest.raises(ChainError, match="nonnegative"):
            _search(z2, scheme, None, -1)


def test_scan_limit_is_inclusive(lattice2, pw_context):
    # lattice2 has Day k = 3, Gumm n = 1, Jonsson n = 1 and ALVIN n = 2: a
    # limit equal to the value finds it, one below does not
    ctx = pw_context(lattice2)
    for scheme, value in ((DAY, 3), (GUMM, 1), (JONSSON, 1), (ALVIN, 2)):
        res = _search(lattice2, scheme, ctx, value)
        assert res.found and res.value == value, scheme
        res = _search(lattice2, scheme, ctx, value - 1)
        assert not res.found and not res.proven_absent, scheme


def test_context_for_another_algebra_is_refused(z2, lattice2):
    with pytest.raises(CheckError, match="'lattice2', not for 'z2'"):
        search_day(z2, ctx=PWContext(lattice2))


def test_caps_beside_a_context_are_refused(lattice2):
    # a context keeps its own caps, so caps given beside one are an error
    # rather than silently ignored
    for search in (search_day, search_gumm, search_jonsson):
        for caps in ({"cap_entries": 10}, {"work_budget": 10}):
            with pytest.raises(CheckError, match="beside a context"):
                search(lattice2, ctx=PWContext(lattice2), **caps)
    # without a context the cap refuses, and a cap left out takes its
    # default
    with pytest.raises(CapExceeded, match="exceeds cap 10"):
        search_day(lattice2, cap_entries=10)
    assert search_day(lattice2, work_budget=None).value == 3
