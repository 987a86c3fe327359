"""Acceptance gate: every criterion at its stated tolerance.

All value checks are exact (discrete mathematics, tolerance = equality);
runtime limits are wall-clock seconds.  One PASS/FAIL line is printed per
criterion.  Criteria 6 and 8 share the corpus report computation; its
runtime is charged to criterion 6.
"""

import random
import time
from contextlib import contextmanager

from modbench.catalog import CATALOG, get_entry
from modbench.chains import (search_day, search_gumm, search_jonsson,
                             verify_chain)
from modbench.checks import (PWContext, enumerate_relations, pw_check,
                             spectrum)
from modbench.dsl import identity_str, parse_identity
from modbench.free import CapExceeded
from modbench.relations import (ADMISSIBLE, CONGRUENCE, TOLERANCE, BinRel,
                                all_congruences, generate, is_compatible)
from modbench.relations import compose as rel_compose
from modbench.relations import meet as rel_meet
from modbench.report import consistency_report
from modbench.witness import (AGA, DEFECTIVE, day_witness_chain,
                              find_nte_decomposition, gumm_witness_chain,
                              jonsson_to_day, pad_to_even)

from conftest import jonsson_friendly_algebra, load_corpus, random_algebra

SPEC_CORPUS = ("one", "z2", "lattice2", "chain3", "semilattice2")

_SHARED: dict = {}


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} FAIL: {description} "
              f"({time.monotonic() - start:.1f}s)")
        raise
    print(f"CRITERION {number} PASS: {description} "
          f"({time.monotonic() - start:.1f}s)")


def test_criterion_1_permutable_baseline():
    with criterion(1, "z2 baseline: 3 Day terms, 2 Gumm terms, "
                      "DAY spectrum constantly 2"):
        start = time.monotonic()
        z2 = load_corpus("z2")
        ctx = PWContext(z2)
        day = search_day(z2, ctx=ctx)
        assert day.found and day.value == 2
        assert len(day.chain.terms) == 3
        gumm = search_gumm(z2, ctx=ctx)
        assert gumm.found and gumm.value == 0
        assert len(gumm.chain.terms) == 2
        for m in range(3, 8):
            assert spectrum(z2, "DAY", params={"m": m}, ctx=ctx).value == 2
        assert time.monotonic() - start < 5.0


def test_criterion_2_lattice_baseline():
    with criterion(2, "lattice2 baseline: Day k = 3, DAY(3) = 3, "
                      "DAY(4) = 4"):
        start = time.monotonic()
        lat = load_corpus("lattice2")
        ctx = PWContext(lat)
        f4 = ctx.free(4)
        assert f4.n_elements == 166
        day = search_day(lat, ctx=ctx)
        assert day.found and day.value == 3
        day_ident = get_entry("DAY").identity(m=3)
        assert not pw_check(ctx, day_ident, k=2)  # minimality in F(4)
        assert spectrum(lat, "DAY", params={"m": 3}, ctx=ctx).value == 3
        assert ctx.free(5).n_elements == 7579
        assert spectrum(lat, "DAY", params={"m": 4}, ctx=ctx).value == 4
        _SHARED["lattice2_ctx"] = ctx
        assert time.monotonic() - start < 120.0


def test_criterion_3_gumm_tschantz():
    with criterion(3, "lattice2: Gumm n = 1 and TSCHANTZ(2) = 1"):
        start = time.monotonic()
        lat = load_corpus("lattice2")
        ctx = _SHARED.get("lattice2_ctx") or PWContext(lat)
        gumm = search_gumm(lat, ctx=ctx)
        assert gumm.found and gumm.value == 1
        assert spectrum(lat, "TSCHANTZ", params={"m": 2}, ctx=ctx).value == 1
        assert time.monotonic() - start < 30.0


def _witness_suite_algebras(rng):
    algebras = [load_corpus(n) for n in
                ("z2", "lattice2", "chain3", "pixley3")]
    for i in range(12):
        algebras.append(jonsson_friendly_algebra(rng, i))
    return [a for a in algebras if a.size <= 3]


def _day_witness_inputs(a, rng, budget):
    """Valid (chain, a, b, c, d, alpha, gamma, R) tuples, up to budget."""
    try:
        day = search_day(a, k_max=16, cap_entries=300_000,
                         work_budget=100_000_000)
    except CapExceeded:
        return
    if not day.found:
        return
    congs = all_congruences(a)
    adms = enumerate_relations(a, ADMISSIBLE)
    rng.shuffle(adms := list(adms))
    produced = 0
    for alpha in congs:
        for gamma in congs:
            for r in adms[:6]:
                delta = rel_compose(r, r.converse())
                lhs = rel_meet(alpha, rel_compose(
                    rel_compose(delta, rel_meet(alpha, gamma)), delta))
                for a_el in range(a.size):
                    for d_el in range(a.size):
                        if not lhs.has(a_el, d_el):
                            continue
                        dec = find_nte_decomposition(a, alpha, gamma, r,
                                                     a_el, d_el)
                        if dec is None:
                            continue
                        yield (day.chain, a_el, dec[0], dec[1], d_el,
                               alpha, gamma, r)
                        produced += 1
                        if produced >= budget:
                            return


def _gumm_witness_inputs(a, rng, budget):
    try:
        gumm = search_gumm(a, n_max=16, cap_entries=300_000,
                           work_budget=100_000_000)
    except CapExceeded:
        return
    if not gumm.found:
        return
    congs = all_congruences(a)
    adms = list(enumerate_relations(a, ADMISSIBLE))
    rng.shuffle(adms)
    produced = 0
    for alpha in congs:
        for r in adms[:5]:
            for s in adms[:5]:
                rs = rel_compose(r, s)
                for a_el, c_el in rel_meet(alpha, rs).pairs():
                    b_el = next(b for b in range(a.size)
                                if r.has(a_el, b) and s.has(b, c_el))
                    yield (gumm.chain, a_el, b_el, c_el, alpha, r, s)
                    produced += 1
                    if produced >= budget:
                        return


def test_criterion_4_construction_round_trips():
    with criterion(4, "jonsson_to_day and witness-chain constructions "
                      "validate on randomized inputs"):
        rng = random.Random(20240)
        # -- jonsson_to_day over a randomized suite of small algebras ------
        suite = []
        for i in range(25):
            suite.append(random_algebra(rng, size=rng.choice([2, 3]),
                                        name=f"r{i}"))
        for i in range(25):
            suite.append(jonsson_friendly_algebra(rng, i))
        assert len(suite) >= 50
        transforms = 0
        for a in suite:
            try:
                res = search_jonsson(a, n_max=10, cap_entries=300_000,
                                     work_budget=100_000_000)
            except CapExceeded:
                continue
            if not res.found:
                continue
            padded = pad_to_even(a, res.chain)
            day = jonsson_to_day(a, padded)
            assert verify_chain(a, day).valid, a.name
            transforms += 1
        assert transforms >= 10  # the suite is built to contain CD algebras

        # -- witness chains on >= 100 randomized valid inputs --------------
        validated = 0
        for a in _witness_suite_algebras(rng):
            for args in _day_witness_inputs(a, rng, budget=8):
                chain, a_el, b_el, c_el, d_el, alpha, gamma, r = args
                w = day_witness_chain(a, chain, a_el, b_el, c_el, d_el,
                                      alpha, gamma, r)
                assert w.validate()
                validated += 1
            for args in _gumm_witness_inputs(a, rng, budget=8):
                chain, a_el, b_el, c_el, alpha, r, s = args
                w = gumm_witness_chain(a, chain, AGA, alpha=alpha, r=r, s=s,
                                       a_el=a_el, b_el=b_el, c_el=c_el)
                assert w.validate()
                validated += 1
                padded = pad_to_even(a, chain)
                from modbench.chains import as_defective
                wd = gumm_witness_chain(a, as_defective(padded), DEFECTIVE,
                                        alpha=alpha, r=r, s=s,
                                        a_el=a_el, b_el=b_el, c_el=c_el)
                assert wd.validate()
                validated += 1
        assert validated >= 100, validated


def _minimal_containing(a, seed, kind):
    acc = BinRel.full(a.size)
    n = a.size
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    admissible = []
    for mask in range(1 << len(offdiag)):
        pairs = [offdiag[t] for t in range(len(offdiag)) if (mask >> t) & 1]
        r = BinRel.from_pairs(n, pairs)
        if is_compatible(a, r, ADMISSIBLE):
            admissible.append(r)
    for r in admissible:
        if kind == TOLERANCE and not r.is_symmetric():
            continue
        if kind == CONGRUENCE and not (r.is_symmetric()
                                       and r.is_transitive()):
            continue
        if all(r.has(x, y) for x, y in seed):
            acc = rel_meet(acc, r)
    return acc


def _congruences_by_partition_filter(a):
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
        pairs = [(x, y) for block in part for x in block for y in block]
        r = BinRel.from_pairs(a.size, pairs)
        if is_compatible(a, r, CONGRUENCE):
            out.add(r)
    return out


def test_criterion_5_oracle_equivalence():
    with criterion(5, "generate and all_congruences match brute force on "
                      ">= 100 random algebras"):
        rng = random.Random(501)
        checked = 0
        mismatches = 0
        for i in range(100):
            size = rng.choice([2, 2, 3, 3, 3, 4][: 6 if i % 5 == 0 else 5])
            max_arity = 2 if size == 4 else 3
            a = random_algebra(rng, size=size, max_arity=max_arity,
                               name=f"o{i}")
            for _ in range(2):
                seed = [(rng.randrange(size), rng.randrange(size))
                        for _ in range(rng.choice([1, 2]))]
                for kind in (ADMISSIBLE, TOLERANCE, CONGRUENCE):
                    got = generate(a, seed, kind)
                    want = _minimal_containing(a, seed, kind)
                    if got != want:
                        mismatches += 1
            if set(all_congruences(a)) != _congruences_by_partition_filter(a):
                mismatches += 1
            checked += 1
        assert checked >= 100
        assert mismatches == 0


def test_criterion_6_bound_consistency():
    with criterion(6, "consistency_report passes on the whole bundled "
                      "corpus"):
        start = time.monotonic()
        reports = {}
        for name in SPEC_CORPUS:
            reports[name] = consistency_report(load_corpus(name))
        _SHARED["reports"] = reports
        for name, rep in reports.items():
            assert rep["ok"], (name, rep)
            bad = [row for row in rep.get("bounds", [])
                   if row["status"] == "fail"]
            assert not bad, (name, bad)
        exercised = {row["name"]
                     for rep in reports.values()
                     for row in rep.get("bounds", [])}
        assert {"THM", "THM2", "SMALL_I", "SMALL_II", "AGTCOR2", "QKMOD_I",
                "QKMOD_II", "QKMOD2", "COMB", "NUMD", "NUMDD", "DST", "LTT",
                "BBB"} <= exercised
        # every listed bound must be decided (not just unchecked) somewhere
        decided = {row["name"]
                   for rep in reports.values()
                   for row in rep.get("bounds", [])
                   if row["status"] == "pass"}
        assert {"THM", "THM2", "SMALL_I", "SMALL_II", "AGTCOR2", "QKMOD_I",
                "QKMOD_II", "QKMOD2", "COMB", "NUMD", "NUMDD", "DST", "LTT",
                "BBB"} <= decided
        assert time.monotonic() - start < 300.0


def test_criterion_7_catalog_integrity():
    with criterion(7, "catalog round-trips; DSTAR(1) = DAY(3); "
                      "DAY vs DAY_REV gaps"):
        for name in sorted(CATALOG):
            ident = get_entry(name).identity()
            printed = identity_str(ident)
            reparsed = parse_identity(printed)
            assert identity_str(reparsed) == printed, name
            assert (reparsed.lhs, reparsed.rhs) == (ident.lhs, ident.rhs)

        day = get_entry("DAY")
        dstar = get_entry("DSTAR")
        for name in SPEC_CORPUS:
            a = load_corpus(name)
            ctx = PWContext(a)
            for k in range(7):
                assert pw_check(ctx, dstar.identity(l=1), k=k) == \
                    pw_check(ctx, day.identity(m=3), k=k), (name, k)

        reports = _SHARED.get("reports") or {
            name: consistency_report(load_corpus(name))
            for name in SPEC_CORPUS}
        for name, rep in reports.items():
            if not rep.get("modular"):
                continue
            spectra = {(row["family"], row["m"]): row["value"]
                       for row in rep["spectra"]}
            for m in range(3, 8):
                d, dr = spectra[("DAY", m)], spectra[("DAY_REV", m)]
                if isinstance(d, int) and isinstance(dr, int):
                    assert abs(d - dr) <= 1, (name, m)
                    if m % 2 == 1:
                        # at even lengths the two notions coincide
                        assert d + d % 2 == dr + dr % 2, (name, m)
                        if d % 2 == 0:
                            assert d == dr, (name, m)


def test_criterion_8_monotonicity():
    with criterion(8, "DAY spectrum nondecreasing, steps of at most one "
                      "after odd lengths"):
        reports = _SHARED.get("reports") or {
            name: consistency_report(load_corpus(name))
            for name in SPEC_CORPUS}
        full_range_seen = False
        for name, rep in reports.items():
            if not rep.get("modular"):
                continue
            spectra = {(row["family"], row["m"]): row["value"]
                       for row in rep["spectra"]}
            vals = {m: spectra[("DAY", m)] for m in range(3, 8)
                    if isinstance(spectra[("DAY", m)], int)}
            ms = sorted(vals)
            for i in range(len(ms) - 1):
                assert vals[ms[i]] <= vals[ms[i + 1]], (name, ms[i])
            for m in ms:
                if m % 2 == 1 and m + 1 in vals:
                    assert vals[m + 1] <= vals[m] + 1, (name, m)
            if set(vals) == {3, 4, 5, 6, 7}:
                full_range_seen = True
        assert full_range_seen  # z2 and the trivial algebra cover 3..7
