"""Inputs, operations and correctness gates of the three benchmark workloads.

Every operation is a call into the public library API, made through the
module attribute that a user's ``modbench`` session would reach, so that
the tracer's call-site wrappers see it.  A workload is a fixed list of
operations; one *pass* runs the list once, in order, in this process.

* ``verify_corpus``     ``consistency_report`` per corpus algebra
* ``concrete_spectra``  ``spectrum`` of every algebra-level catalog family
* ``random_terms``      the four chain searches on seeded small algebras
"""

from __future__ import annotations

import importlib.resources
import json
import random
from dataclasses import dataclass

# Criterion-4 caps, as ``modbench terms A --scheme X --cap-entries 300000
# --work-budget 100000000`` would pass them.
TERMS_CAPS = {"cap_entries": 300_000, "work_budget": 10 ** 8}

# chain3 is left out: one report takes about 46 s on 2 cores, more than a
# whole run's measuring time.  See bench/README.md.
CORPUS = ("one", "z2", "lattice2", "semilattice2", "pixley3")

SPECTRUM_ALGEBRAS = ("z2", "lattice2", "pixley3", "chain3")
# chain3 AG is left out: its k=0 pass alone takes about 30 s.
SPECTRUM_SKIP = {("chain3", "AG")}

RANDOM_ALGEBRAS = 60
SEARCHES = ("day", "gumm", "jonsson", "alvin")

# answers a cap or guard stopped, as they appear in a report
UNDECIDED_VALUES = ("unchecked", "exceeds cap")


@dataclass
class Op:
    """One timed call: ``run()`` returns the outcome to check."""

    key: str
    run: object


def load_corpus(mb, name):
    res = importlib.resources.files("modbench") / "data" / f"{name}.alg"
    return mb.parse_algebra(res.read_text())


# ---------------------------------------------------------------------------
# Seeded small algebras


def _random_table_algebra(mb, rng, idx):
    size = rng.choice([2, 3])
    ops, tables = [], {}
    for i in range(rng.choice([1, 1, 2])):
        arity = rng.choice([1, 2, 3])
        ops.append((f"f{i}", arity))
        tables[f"f{i}"] = [rng.randrange(size) for _ in range(size ** arity)]
    return mb.FiniteAlgebra(f"rand{idx}", size, mb.Signature(tuple(ops)),
                            tables)


def _majority_style_algebra(mb, rng, idx):
    """Majority, median or discriminator term plus random extra structure."""
    kind = (idx // 2) % 3
    if kind == 0:
        size = 2
        ops = [("m", 3)]
        tables = {"m": [sorted(t)[1] for t in _tuples(2, 3)]}
    elif kind == 1:
        size = 3
        ops = [("m", 3)]
        tables = {"m": [sorted(t)[1] for t in _tuples(3, 3)]}
    else:
        size = rng.choice([2, 3])
        ops = [("f", 3)]
        tables = {"f": [z if x == y else x for x, y, z in _tuples(size, 3)]}
    if rng.random() < 0.7:
        arity = rng.choice([1, 2]) if size == 2 else 1
        ops.append(("g", arity))
        tables["g"] = [rng.randrange(size) for _ in range(size ** arity)]
    return mb.FiniteAlgebra(f"cd{idx}", size, mb.Signature(tuple(ops)),
                            tables)


def _tuples(size, arity):
    out = [()]
    for _ in range(arity):
        out = [t + (v,) for t in out for v in range(size)]
    return out


def random_algebras(mb, seed):
    """Even slots get random op tables, odd slots majority-style algebras."""
    rng = random.Random(seed)
    return [(_random_table_algebra if i % 2 == 0 else _majority_style_algebra)
            (mb, rng, i) for i in range(RANDOM_ALGEBRAS)]


def relabel(mb, a, perm):
    """The isomorphic copy of ``a`` whose element x is renamed perm[x]."""
    inverse = [0] * a.size
    for x, y in enumerate(perm):
        inverse[y] = x
    tables = {}
    for name, arity in a.signature.ops:
        old = a.tables[name]
        table = []
        for t in _tuples(a.size, arity):
            flat = 0
            for v in t:
                flat = flat * a.size + inverse[v]
            table.append(perm[int(old[flat])])
        tables[name] = table
    return mb.FiniteAlgebra(a.name, a.size, a.signature, tables)


# The population is fixed; ``--seed`` draws an isomorphic copy of every
# algebra and the visiting order.  Free-algebra sizes, refusals and minimal
# chain lengths are invariant under isomorphism, so the reference outcomes
# hold for every seed, while the tables the program sees differ.  Element 0
# keeps its name: the closure skips table entries equal to 0, so renaming it
# would change the work of a pass with the seed.  (Fresh populations differ
# by 2x in cost, 28-59 s a pass.)
POPULATION_SEED = 4


def random_terms_inputs(mb, seed):
    rng = random.Random(seed)
    base = random_algebras(mb, POPULATION_SEED)
    copies = [relabel(mb, a, [0] + rng.sample(range(1, a.size), a.size - 1))
              for a in base]
    order = list(range(len(base)))
    rng.shuffle(order)
    return [(i, copies[i]) for i in order]


# ---------------------------------------------------------------------------
# Operations.  Each returns an Outcome; library lookups go through the module
# attribute at call time, so a tracer wrapper installed there sees the call.


@dataclass
class Outcome:
    value: object            # hashable, compared across passes and runs
    undecided: int = 0       # answers stopped by a cap or guard
    chains: tuple = ()       # term chains to re-verify from outside
    algebra: object = None   # the algebra the chains are over
    detail: object = None    # the full report, or the error raised


def _report_undecided(rep):
    if rep.get("modular") is None:
        return 1
    return (sum(s["value"] in UNDECIDED_VALUES for s in rep["spectra"])
            + sum(b["status"] == "unchecked" for b in rep["bounds"]))


def verify_corpus_ops(mb):
    report = mb.report
    ops = []
    for name in CORPUS:
        a = load_corpus(mb, name)

        def run(a=a):
            rep = report.consistency_report(a)
            return Outcome(_canonical(rep), _report_undecided(rep),
                           detail=rep)
        ops.append(Op(name, run))
    return ops


def concrete_spectra_ops(mb):
    checks, catalog = mb.checks, mb.catalog
    families = [name for name, e in catalog.CATALOG.items()
                if e.level == catalog.ALGEBRA and e.scan is not None]
    ops = []
    for alg in SPECTRUM_ALGEBRAS:
        a = load_corpus(mb, alg)
        for fam in families:
            if (alg, fam) in SPECTRUM_SKIP:
                continue

            def run(a=a, fam=fam):
                try:
                    res = checks.spectrum(a, fam)
                except mb.relations.GuardExceeded:
                    return Outcome("guard", 1)
                if res.value is None:
                    return Outcome("exceeds cap", 1)
                return Outcome(res.value)
            ops.append(Op(f"{alg}:{fam}", run))
    return ops


def random_terms_ops(mb, seed):
    chains, witness = mb.chains, mb.witness
    ops = []
    for idx, a in random_terms_inputs(mb, seed):
        for scheme in SEARCHES:
            def run(a=a, scheme=scheme):
                try:
                    if scheme == "day":
                        res = chains.search_day(a, **TERMS_CAPS)
                    elif scheme == "gumm":
                        res = chains.search_gumm(a, **TERMS_CAPS)
                    else:
                        res = chains.search_jonsson(
                            a, alvin=scheme == "alvin", **TERMS_CAPS)
                except mb.CapExceeded:
                    return Outcome("capped", 1)
                if not res.found:
                    if res.proven_absent:
                        return Outcome("absent")
                    return Outcome("scan limit", 1)
                if scheme != "jonsson":
                    return Outcome(("found", res.value), 0, (res.chain,), a)
                padded = witness.pad_to_even(a, res.chain)
                day = witness.jonsson_to_day(a, padded)
                return Outcome(("found", res.value, day.param), 0,
                               (res.chain, padded, day), a)
            ops.append(Op(f"{idx}:{scheme}", run))
    return ops


def make_ops(mb, workload, seed):
    if workload == "verify_corpus":
        return verify_corpus_ops(mb)
    if workload == "concrete_spectra":
        return concrete_spectra_ops(mb)
    return random_terms_ops(mb, seed)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# Correctness gate.  The behaviour contract: a decided reference answer must
# match exactly; an undecided one may become decided, but then every bound
# and crosscheck of its report must pass.  Every chain returned is
# re-verified with the library's own checker, unwrapped.


def check_outcome(workload, key, out, reference, verify_chain):
    errors = []
    if out.value == "error":
        return [f"{key}: raised {out.detail}"]
    for chain in out.chains:
        if not verify_chain(out.algebra, chain).valid:
            errors.append(f"{key}: returned {chain.scheme} chain fails "
                          f"verify_chain")
    ref = reference[workload].get(key)
    if ref is None:
        return errors + [f"{key}: no reference answer"]
    if workload == "verify_corpus":
        errors += [f"{key}: {e}" for e in report_errors(ref, out.detail)]
    elif workload == "concrete_spectra":
        if ref != "guard" and out.value != ref:
            errors.append(f"{key}: spectrum {out.value!r}, reference {ref!r}")
    else:
        value = list(out.value) if isinstance(out.value, tuple) else out.value
        if ref not in ("capped", "scan limit") and value != ref:
            errors.append(f"{key}: outcome {value!r}, reference {ref!r}")
    return errors


def report_errors(ref, new):
    errors = []
    if not new.get("ok"):
        errors.append("report not ok")
    errors += [f"bound {b['name']} {b['params']} fails"
               for b in new.get("bounds", []) if b["status"] == "fail"]
    errors += [f"crosscheck {c['name']} fails"
               for c in new.get("crosschecks", []) if c["status"] == "fail"]
    if ref.get("modular") is None:
        return errors        # nothing decided to hold it to
    for field in ("algebra", "size", "modular", "dayK", "gummN", "jonssonN",
                  "dayTerms", "gummTerms"):
        if new.get(field) != ref.get(field):
            errors.append(f"{field} {new.get(field)!r}, reference "
                          f"{ref.get(field)!r}")
    cells = {(s["family"], s["m"]): s["value"] for s in new["spectra"]}
    for s in ref["spectra"]:
        cell = (s["family"], s["m"])
        if cell not in cells:
            errors.append(f"spectrum {cell} missing")
        elif s["value"] not in UNDECIDED_VALUES and cells[cell] != s["value"]:
            errors.append(f"spectrum {cell} = {cells[cell]!r}, reference "
                          f"{s['value']!r}")
    rows = {(b["name"], _canonical(b["params"])): b for b in new["bounds"]}
    for b in ref["bounds"]:
        row = rows.get((b["name"], _canonical(b["params"])))
        if row is None:
            errors.append(f"bound {b['name']} {b['params']} missing")
        elif b["status"] != "unchecked" and any(
                row[f] != b[f] for f in ("claimed", "measured", "status")):
            errors.append(f"bound {b['name']} {b['params']}: "
                          f"{row['measured']!r}/{row['status']}, reference "
                          f"{b['measured']!r}/{b['status']}")
    names = {c["name"] for c in new["crosschecks"]}
    errors += [f"crosscheck {c['name']} missing" for c in ref["crosschecks"]
               if c["name"] not in names]
    return errors
