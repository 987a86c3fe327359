import pytest

from modbench.chains import (DAY, JONSSON, ChainError, TermChain,
                             as_defective, extend_chain, search_day,
                             search_gumm, search_jonsson, verify_chain)
from modbench.free import App, Var
from modbench.relations import ADMISSIBLE, BinRel, generate
from modbench.witness import (AG, AGA, AGAI, DEFECTIVE, WitnessError,
                              day_witness_chain, find_nte_decomposition,
                              gumm_witness_chain, jonsson_to_day,
                              pad_to_even)

MAJ = App("join", (App("join", (
    App("meet", (Var(0), Var(1))),
    App("meet", (Var(1), Var(2))))),
    App("meet", (Var(0), Var(2)))))


def test_day_witness_endpoints_and_steps(z2):
    chain = search_day(z2).chain
    full = BinRel.full(2)
    b, c = find_nte_decomposition(z2, full, full, full, 0, 1)
    w = day_witness_chain(z2, chain, 0, b, c, 1, full, full, full)
    assert w.elements[0] == 0 and w.elements[-1] == 1
    assert len(w.elements) == chain.param + 1
    assert w.validate()


def test_day_witness_degenerate(z2):
    chain = search_day(z2).chain
    ident = BinRel.identity(2)
    w = day_witness_chain(z2, chain, 0, 0, 0, 0, ident, ident, ident)
    assert all(e == 0 for e in w.elements)


def test_day_witness_precondition(z2):
    chain = search_day(z2).chain
    ident = BinRel.identity(2)
    with pytest.raises(WitnessError):
        day_witness_chain(z2, chain, 0, 0, 0, 1, ident, ident, ident)


def test_day_witness_rejects_invalid_chain(z2):
    bad = TermChain(DAY, (Var(0), Var(0), Var(3)))
    full = BinRel.full(2)
    with pytest.raises(WitnessError):
        day_witness_chain(z2, bad, 0, 0, 0, 1, full, full, full)


def test_gumm_witness_aga_z2(z2):
    chain = search_gumm(z2).chain
    r = generate(z2, [(0, 1)], ADMISSIBLE)
    s = generate(z2, [(1, 0)], ADMISSIBLE)
    w = gumm_witness_chain(z2, chain, AGA, alpha=BinRel.full(2),
                           r=r, s=s, a_el=0, b_el=1, c_el=0)
    assert w.elements[0] == 0 and w.elements[-1] == 0
    assert len(w.step_labels) == 1 + 2 * chain.param


def test_gumm_witness_aga_lattice(lattice2):
    chain = search_gumm(lattice2).chain
    assert chain.param == 1
    r = generate(lattice2, [(0, 1)], ADMISSIBLE)
    s = generate(lattice2, [(1, 0)], ADMISSIBLE)
    w = gumm_witness_chain(lattice2, chain, AGA, alpha=BinRel.full(2),
                           r=r, s=s, a_el=0, b_el=1, c_el=0)
    assert len(w.step_labels) == 3  # 1 + 2n steps, as in the identity
    assert w.validate()


def test_gumm_witness_ag_collapses_for_congruence(chain3):
    from modbench.relations import CONGRUENCE
    chain = search_gumm(chain3).chain
    beta = generate(chain3, [(0, 1)], CONGRUENCE)
    w = gumm_witness_chain(
        chain3, chain, AG, alpha=BinRel.full(3), r=beta, s=beta,
        ts=[beta, beta], ladder=[0, 1, 0], b_el=1)
    assert w.validate()
    assert len(w.step_labels) == 1 + 2 * chain.param


def test_gumm_witness_agai(lattice2):
    chain = search_gumm(lattice2).chain
    r = generate(lattice2, [(0, 1)], ADMISSIBLE)
    s = generate(lattice2, [(1, 0)], ADMISSIBLE)
    t = generate(lattice2, [(1, 0)], ADMISSIBLE)
    w = gumm_witness_chain(lattice2, chain, AGAI, alpha=BinRel.full(2),
                           r=r, s=s, t=t, a2_el=1, a_el=0, b_el=1, c_el=0)
    assert w.elements[0] == 1 and w.elements[-1] == 0
    assert w.validate()


def test_gumm_witness_backward_ladder(lattice2):
    # the blocks j_2, j_4, ... step back through the converses, so they
    # need n >= 2
    chain = search_gumm(lattice2).chain
    r = generate(lattice2, [(0, 1)], ADMISSIBLE)
    s = generate(lattice2, [(1, 0)], ADMISSIBLE)
    for n in (2, 3):
        chain = extend_chain(chain)
        assert chain.param == n
        aga = gumm_witness_chain(lattice2, chain, AGA, alpha=BinRel.full(2),
                                 r=r, s=s, a_el=0, b_el=1, c_el=0)
        assert len(aga.step_labels) == 1 + 2 * n and aga.validate()
        ag = gumm_witness_chain(lattice2, chain, AG, alpha=BinRel.full(2),
                                r=r, s=s, ts=[r, s, s], ladder=[0, 1, 0, 0],
                                b_el=1)
        assert len(ag.step_labels) == 1 + 3 * n and ag.validate()


def test_gumm_witness_defective_parity(lattice2):
    chain = search_gumm(lattice2).chain  # n = 1, odd
    r = generate(lattice2, [(0, 1)], ADMISSIBLE)
    s = generate(lattice2, [(1, 0)], ADMISSIBLE)
    with pytest.raises(WitnessError):
        gumm_witness_chain(lattice2, as_defective(chain), DEFECTIVE,
                           alpha=BinRel.full(2), r=r, s=s,
                           a_el=0, b_el=1, c_el=0)
    padded = as_defective(extend_chain(chain))
    w = gumm_witness_chain(lattice2, padded, DEFECTIVE,
                           alpha=BinRel.full(2), r=r, s=s,
                           a_el=0, b_el=1, c_el=0)
    # one closure step at each end, n-1 alternation blocks between
    assert len(w.step_labels) == 1 + 2 * (padded.param - 1) + 1
    assert w.validate()


def test_jonsson_to_day_sizes(lattice2):
    jon = pad_to_even(lattice2, search_jonsson(lattice2).chain)
    assert jon.param == 2
    day = jonsson_to_day(lattice2, jon)
    assert day.param == 4 and len(day.terms) == 5
    assert verify_chain(lattice2, day).valid


def test_jonsson_to_day_degenerate_projections(one):
    jon = TermChain(JONSSON, (Var(0), Var(2), Var(2), Var(2)))
    assert verify_chain(one, jon).valid
    day = jonsson_to_day(one, jon)
    assert verify_chain(one, day).valid


def test_jonsson_to_day_rejects_odd(lattice2):
    jon = search_jonsson(lattice2).chain
    with pytest.raises(ChainError):
        jonsson_to_day(lattice2, jon)


def test_jonsson_to_day_rejects_unverified(z2, lattice2):
    # a majority chain padded the wrong way fails re-verification
    bad = TermChain(JONSSON, (Var(0), MAJ, MAJ, Var(2)))
    with pytest.raises(ChainError):
        jonsson_to_day(lattice2, bad)


def test_gumm_witness_agi(lattice2):
    from modbench.witness import AGI
    chain = search_gumm(lattice2).chain
    r = generate(lattice2, [(0, 1)], ADMISSIBLE)
    s = generate(lattice2, [(1, 0)], ADMISSIBLE)
    t = generate(lattice2, [(1, 0)], ADMISSIBLE)
    beta = generate(lattice2, [(0, 1)], ADMISSIBLE)
    w = gumm_witness_chain(
        lattice2, chain, AGI, alpha=BinRel.full(2), r=r, s=s, t=t,
        a2_el=1, ts=[beta, s], ladder=[0, 1, 0], b_el=1)
    assert w.elements[0] == 1 and w.elements[-1] == 0
    assert w.validate()


def test_kind_hint_verified():
    from modbench.relations import RelationError, TOLERANCE
    with pytest.raises(RelationError):
        BinRel.from_pairs(2, [(0, 1)], TOLERANCE)
