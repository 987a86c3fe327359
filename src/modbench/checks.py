"""Deciding identity inclusions.

Two routes:

* ``check_concrete`` quantifies the variables over actual relations of one
  algebra (all congruences; enumerated admissible relations and tolerances)
  and evaluates both sides with the bitset calculus.  For relation
  variables this is algebra-level evidence, not a variety-wide verdict.

* ``pw_check`` decides congruence-variable inclusions for the whole
  generated variety: one free generator per node of the left-hand chain
  structure, congruences generated from the labeled edges, and a single
  membership test of the distinguished pair against the right-hand side.

Congruences on the free algebra are kept as partition label arrays; the
right-hand side is evaluated by saturation walks, splitting per class when
a composite meets a congruence inside an intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import itertools
import math
from operator import itemgetter

import numpy as np

from .algebras import FiniteAlgebra
from .catalog import ALGEBRA, CatalogError, get_entry
from .dsl import (AltE, ComposeE, ConvE, GenE, Identity, K, MeetE, PowE,
                  VarE, _check_count, expr_str, expr_vars, has_symbolic,
                  push_converse, substitute_k)
from .dsl import compose as compose_expr, meet as meet_expr
from .free import (CapExceeded, FreeAlgebra, build_free, meet_labels,
                   saturate, DEFAULT_CAP_ENTRIES, DEFAULT_WORK_BUDGET)
from .relations import (CONGRUENCE, BinRel, GuardExceeded, RelationError,
                        all_congruences, alt, compose, generate,
                        is_compatible, meet)


class CheckError(ValueError):
    pass


class PWGrammarError(CheckError):
    """Left-hand side not in the generic-reduction grammar."""


# ---------------------------------------------------------------------------
# Concrete evaluation

# A table entry costs about 100 bytes besides its value, and the environment
# guard lets a node range over up to 2M keys; past this many a node keeps
# one slot instead.
_TABLE_KEYS = 4096


class _Evaluator:
    """Evaluates expressions over environments drawn from fixed spaces.

    ``spaces`` lists ``(name, relations)`` per variable; an environment is
    a tuple of indices into them, and a compiled node maps (environment,
    count) to a relation, where the count replaces the symbolic ``k``.
    Each distinct subexpression compiles to one node that keeps its last
    value in a single slot, keyed on the indices of the variables it uses
    (and on the count when it contains ``k``), so stepping through
    environments in product order recomputes only what the changed
    variables reach.  A k-free node whose variables are not a prefix of
    that order sees its keys come back, and keeps every value in a table
    when there are at most ``_TABLE_KEYS`` keys.  ``generate`` is
    memoised on (kind, seed rows).
    """

    def __init__(self, a: FiniteAlgebra, spaces):
        self.a = a
        self.spaces = spaces
        self.pos = {name: i for i, (name, _) in enumerate(spaces)}
        self._nodes: dict = {}
        self._generated: dict = {}

    def compile(self, e):
        node = self._nodes.get(e)
        if node is None:
            node = self._nodes[e] = self._build(e)
        return node

    def _build(self, e):
        if isinstance(e, VarE):
            if e.name not in self.pos:
                def unbound(c, k):
                    raise CheckError(f"unbound variable {e.name}")
                return unbound
            p = self.pos[e.name]
            space = self.spaces[p][1]
            return lambda c, k: space[c[p]]
        if isinstance(e, (ComposeE, MeetE)):
            items = [self.compile(it) for it in e.items]
            op = compose if isinstance(e, ComposeE) else meet

            def fold(c, k):
                out = items[0](c, k)
                for it in items[1:]:
                    out = op(out, it(c, k))
                return out
            return self._cached(e, fold)
        if isinstance(e, ConvE):
            item = self.compile(e.item)
            return self._cached(e, lambda c, k: item(c, k).converse())
        if isinstance(e, GenE):
            return self._cached(e, self._gen(e))
        if isinstance(e, (AltE, PowE)):
            return self._alternation(e)
        raise CheckError(f"not an expression: {e!r}")

    def _variables(self, e) -> list[int]:
        return sorted(self.pos[v] for v in expr_vars(e) if v in self.pos)

    @staticmethod
    def _key(ps: list[int], with_k: bool):
        """Cache key: the indices of the variables at ``ps``, and the count."""
        pick = itemgetter(*ps) if ps else (lambda c: ())
        if with_k:
            return lambda c, k: (pick(c), k)
        return lambda c, k: pick(c)

    def _cached(self, e, compute):
        with_k = has_symbolic(e)
        ps = self._variables(e)
        key_of = self._key(ps, with_k)
        keys = math.prod(len(self.spaces[p][1]) for p in ps)
        # in product order the values of a node over a prefix of the
        # variables never come back, so one slot holds all it can reuse
        if not with_k and ps != list(range(len(ps))) and keys <= _TABLE_KEYS:
            table = {}

            def tabled(c, k):
                key = key_of(c, k)
                value = table.get(key)
                if value is None:
                    value = table[key] = compute(c, k)
                return value
            return tabled
        slot = [None, None]               # key, value

        def node(c, k):
            key = key_of(c, k)
            if key != slot[0]:
                slot[1] = compute(c, k)
                slot[0] = key
            return slot[1]
        return node

    def _gen(self, e: GenE):
        a, kind, memo = self.a, e.kind, self._generated
        items = [self.compile(it) for it in e.items]

        def compute(c, k):
            rows = [0] * a.size
            for it in items:
                for i, r in enumerate(it(c, k).rows):
                    rows[i] |= r
            key = (kind, tuple(rows))
            rel = memo.get(key)
            if rel is None:
                seeds = BinRel(a.size, rows).pairs()
                rel = memo[key] = generate(a, seeds, kind)
            return rel
        return compute

    def _alternation(self, e):
        factors = [self.compile(f) for f in _factors(e)]
        first, second = factors[0], factors[-1]
        count = e.count
        identity = BinRel.identity(self.a.size)

        def compute(c, k):
            m = k if count == K else count
            if m is None:
                raise CheckError("symbolic count not substituted")
            if m == 0:
                return identity
            return alt(first(c, k), second(c, k), m)
        return self._cached(e, compute)


def eval_expr(a: FiniteAlgebra, e, env: dict[str, BinRel],
              kinds: dict[str, str] | None = None) -> BinRel:
    """Structural evaluation over explicit relations.

    Alternation and power counts must be concrete; a count of 0 yields the
    identity relation.  When ``kinds`` is given, bound relations are
    verified against their declared kinds.
    """
    for name, rel in env.items():
        if rel.n != a.size:
            raise RelationError(f"variable {name}: universe size mismatch")
    if kinds:
        for name, kind in kinds.items():
            if name in env and not is_compatible(a, env[name], kind):
                raise CheckError(
                    f"variable {name} bound to a relation that is not "
                    f"{kind}")
    ev = _Evaluator(a, [(name, [rel]) for name, rel in env.items()])
    return ev.compile(e)((0,) * len(env), None)


_REL_CACHE: dict = {}


def enumerate_relations(a: FiniteAlgebra, kind: str, enum_cap: int = 4,
                        seed_pair_cap: int = 2) -> list[BinRel]:
    """Deterministic family of relations of one kind on ``a``.

    Complete for universes up to ``enum_cap``; larger universes get the
    relations generated from all seed sets of at most ``seed_pair_cap``
    off-diagonal pairs (a sound refutation family, not a complete one).
    """
    key = (a, kind, enum_cap, seed_pair_cap)
    if key in _REL_CACHE:
        return _REL_CACHE[key]
    n = a.size
    out: list[BinRel] = []
    if kind == CONGRUENCE:
        out = all_congruences(a)
    elif n <= enum_cap:
        offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in range(1 << len(offdiag)):
            pairs = [offdiag[t] for t in range(len(offdiag))
                     if (mask >> t) & 1]
            r = BinRel.from_pairs(n, pairs)
            if is_compatible(a, r, kind):
                out.append(r)
    else:
        seen = set()
        offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
        seeds = itertools.chain.from_iterable(
            itertools.combinations(offdiag, size)
            for size in range(seed_pair_cap + 1))
        for seed in seeds:
            r = generate(a, list(seed), kind)
            if r.rows not in seen:
                seen.add(r.rows)
                out.append(r)
        out.sort(key=lambda r: r.rows)
    _REL_CACHE[key] = out
    return out


def complete_enumeration(a: FiniteAlgebra, ident: Identity,
                         enum_cap: int = 4) -> bool:
    return all(kind == CONGRUENCE or a.size <= enum_cap
               for _, kind in ident.var_kinds)


@dataclass(frozen=True)
class ConcreteResult:
    holds: bool
    counterexample: dict | None
    complete: bool           # was the variable enumeration exhaustive?
    envs_checked: int
    least_k: int | None = None   # least k holding everywhere, when scanned


def check_concrete(a: FiniteAlgebra, ident: Identity, k: int | None = None,
                   enum_cap: int = 4, seed_pair_cap: int = 2,
                   max_envs: int = 2_000_000) -> ConcreteResult:
    """Quantify the declared variables over relations of ``a``.

    Environments run in product order over the enumerated relations; the
    first one whose side conditions hold and whose inclusion fails at ``k``
    is the counterexample.  When ``k`` occurs on the right-hand side only,
    each environment is tested from the largest count any earlier one
    needed upwards: relations are reflexive and every operation is
    monotone, so the right-hand side grows with its count, and
    ``least_k`` -- the largest per-environment least count -- is the least
    k at which the inclusion holds throughout.  It is None when the check
    fails or k is not scanned.
    """
    lhs_k, rhs_k = has_symbolic(ident.lhs), has_symbolic(ident.rhs)
    if (lhs_k or rhs_k) and k is None:
        raise CheckError(f"{ident.name} needs a value for k")
    if k is not None:
        _check_count(k)
    spaces = []
    for name, kind in ident.var_kinds:
        spaces.append((name, enumerate_relations(a, kind, enum_cap,
                                                 seed_pair_cap)))
    total = 1
    for _, space in spaces:
        total *= len(space)
    if total > max_envs:
        raise GuardExceeded(
            f"{total} variable assignments exceed the cap {max_envs}")
    ev = _Evaluator(a, spaces)
    conds = [(ev.compile(c.sub), ev.compile(c.sup))
             for c in ident.side_conditions]
    lhs, rhs = ev.compile(ident.lhs), ev.compile(ident.rhs)
    scan = rhs_k and not lhs_k
    least = 0
    checked = 0
    for env in itertools.product(*[range(len(s)) for _, s in spaces]):
        for sub, sup in conds:
            if not sub(env, None) <= sup(env, None):
                break
        else:
            checked += 1
            left = lhs(env, k)
            m = least if scan else k
            while not left <= rhs(env, m):
                if m == k:
                    counterexample = {name: space[i] for (name, space), i
                                      in zip(spaces, env)}
                    return ConcreteResult(
                        False, counterexample,
                        complete_enumeration(a, ident, enum_cap), checked)
                m += 1
            least = m
    return ConcreteResult(True, None,
                          complete_enumeration(a, ident, enum_cap), checked,
                          least if scan else None)


# ---------------------------------------------------------------------------
# The generic (variety-level) reduction


@dataclass(frozen=True)
class PWConfig:
    nodes: int
    seeds: tuple          # ((var, ((u, w), ...)), ...)
    source: int
    target: int


def _factors(alternation):
    """The factors an alternation cycles through; a power has one."""
    if isinstance(alternation, PowE):
        return (alternation.item,)
    return (alternation.first, alternation.second)


def _expand_counts(e):
    """Rewrite concrete alternations/powers on a left-hand side into
    explicit compositions."""
    if isinstance(e, VarE):
        return e
    if isinstance(e, ComposeE):
        return ComposeE(tuple(_expand_counts(i) for i in e.items))
    if isinstance(e, MeetE):
        return meet_expr(*[_expand_counts(i) for i in e.items])
    if isinstance(e, (AltE, PowE)):
        if e.count == K or e.count < 1:
            what = "alternation" if isinstance(e, AltE) else "power"
            raise PWGrammarError(f"left-hand {what} must be concrete and "
                                 f"positive")
        factors = [_expand_counts(f) for f in _factors(e)]
        return compose_expr(*[factors[i % len(factors)]
                              for i in range(e.count)])
    raise PWGrammarError(f"not allowed on a generic left-hand side: "
                         f"{expr_str(e)}")


def pw_analyze(lhs, kinds: dict[str, str]) -> PWConfig:
    """Generic configuration of a left-hand side.

    Grammar: an atom is an intersection of congruence variables with at
    most one parenthesized chain; a chain is a composition of atoms.  Each
    atom spans an edge; its variables collect that edge as a generating
    pair; its chain splits the edge with fresh nodes.
    """
    lhs = _expand_counts(lhs)
    counter = itertools.count()
    seeds: dict[str, list] = {}

    def do_atom(e, u, w):
        vars_, chain = [], None
        items = e.items if isinstance(e, MeetE) else (e,)
        for it in items:
            if isinstance(it, VarE):
                vars_.append(it.name)
            elif isinstance(it, ComposeE):
                if chain is not None:
                    raise PWGrammarError(
                        "an atom may contain at most one chain")
                chain = it
            else:
                raise PWGrammarError(
                    f"not allowed in a generic atom: {expr_str(it)}")
        for v in vars_:
            if kinds.get(v) != CONGRUENCE:
                raise PWGrammarError(
                    f"variable {v} is not a congruence variable")
            seeds.setdefault(v, []).append((u, w))
        if chain is not None:
            prev = u
            for i, factor in enumerate(chain.items):
                nxt = w if i == len(chain.items) - 1 else next(counter)
                do_atom(factor, prev, nxt)
                prev = nxt

    source, target = next(counter), next(counter)
    do_atom(lhs, source, target)
    nodes = 0
    for pairs in seeds.values():
        for u, w in pairs:
            nodes = max(nodes, u + 1, w + 1)
    return PWConfig(nodes, tuple((v, tuple(ps)) for v, ps in seeds.items()),
                    source, target)


class PWContext:
    """Caches free algebras and generated partitions for one algebra."""

    def __init__(self, algebra: FiniteAlgebra,
                 cap_entries: int = DEFAULT_CAP_ENTRIES,
                 work_budget: int = DEFAULT_WORK_BUDGET):
        self.algebra = algebra
        self.cap_entries = cap_entries
        self.work_budget = work_budget
        self._free: dict[int, FreeAlgebra] = {}
        self._failed: set[int] = set()
        self._parts: dict = {}

    def free(self, g: int) -> FreeAlgebra:
        if g in self._free:
            return self._free[g]
        # counts fail in falling order, so the largest one <= g failed first
        skipped = [bad for bad in self._failed if bad <= g]
        if skipped:
            raise CapExceeded(
                f"free algebra on {g} generators skipped: the build on "
                f"{max(skipped)} generators already exceeded caps", 0)
        try:
            self._free[g] = build_free(self.algebra, g,
                                       cap_entries=self.cap_entries,
                                       work_budget=self.work_budget)
        except CapExceeded:
            self._failed.add(g)
            raise
        return self._free[g]

    def partition(self, g: int, pairs) -> np.ndarray:
        key = (g, tuple(sorted(pairs)))
        if key not in self._parts:
            self._parts[key] = self.free(g).gen_pair_congruence(list(pairs))
        return self._parts[key]


def _partition_like(e, parts):
    if isinstance(e, VarE):
        return parts.get(e.name)
    if isinstance(e, MeetE):
        labs = [_partition_like(it, parts) for it in e.items]
        if all(p is not None for p in labs):
            return functools.reduce(meet_labels, labs)
    return None


class Walk:
    """The saturation walk of an alternation or power, and the only code
    that steps one: from ``start`` it steps through ``first``, ``second``,
    ``first``, ... (a power's one item), and ``layers[i]`` is the set
    reached after i steps.  Partition-like factors are resolved to
    ``labels`` once; a composite one, such as ``a & (g o b o g)``, has None
    there and is reached through ``_reach`` at each step."""

    def __init__(self, alternation, start: np.ndarray, parts: dict):
        self._factors = _factors(alternation)
        self._parts = parts
        self.labels = [_partition_like(f, parts) for f in self._factors]
        self.layers = [start]
        self.reached: int | None = None
        self.stalled = False

    def run(self, limit: int, target: int | None = None) -> np.ndarray:
        """Step until ``target`` is reached (``reached`` is then the step
        count), ``limit`` steps are taken, or two steps in a row change
        nothing (a fixed point: ``stalled``).  Returns the last layer."""
        unchanged = 0
        while target is None or not self.layers[-1][target]:
            steps = len(self.layers) - 1
            if steps >= limit or unchanged == 2:
                self.stalled = unchanged == 2
                return self.layers[-1]
            i = steps % len(self._factors)
            lab, prev = self.labels[i], self.layers[-1]
            self.layers.append(
                saturate(lab, prev) if lab is not None
                else _reach(self._factors[i], prev, self._parts))
            unchanged = (unchanged + 1
                         if np.array_equal(self.layers[-1], prev) else 0)
        self.reached = len(self.layers) - 1
        return self.layers[-1]


def _reach(e, frontier: np.ndarray, parts: dict) -> np.ndarray:
    """Elements reachable from the frontier through the expression."""
    p = _partition_like(e, parts)
    if p is not None:
        return saturate(p, frontier)
    if isinstance(e, ComposeE):
        cur = frontier
        for it in e.items:
            cur = _reach(it, cur, parts)
        return cur
    if isinstance(e, (AltE, PowE)):
        if e.count == K:
            raise CheckError("symbolic count not substituted")
        return Walk(e, frontier, parts).run(e.count)
    if isinstance(e, MeetE):
        return _meet_reach(e, frontier, parts)
    raise CheckError(f"cannot evaluate {expr_str(e)} over congruence "
                     f"partitions")


def _meet_reach(e: MeetE, frontier, parts):
    labs, composites = [], []
    for it in e.items:
        p = _partition_like(it, parts)
        if p is not None:
            labs.append(p)
        else:
            composites.append(it)
    combined = functools.reduce(meet_labels, labs) if labs else None
    out = np.zeros_like(frontier)
    if len(composites) == 1 and combined is not None:
        # (u,v) in the meet forces u,v into one class; recurse classwise
        for cid in np.unique(combined[frontier]):
            cls = combined == cid
            out |= cls & _reach(composites[0], frontier & cls, parts)
        return out
    for u in np.nonzero(frontier)[0]:
        single = np.zeros_like(frontier)
        single[u] = True
        acc = np.ones_like(frontier)
        for c in composites:
            acc &= _reach(c, single, parts)
        if combined is not None:
            acc &= combined == combined[u]
        out |= acc
    return out


def _pw_config(ident: Identity) -> PWConfig:
    """The generic configuration of an identity the reduction decides."""
    for name, kind in ident.var_kinds:
        if kind != CONGRUENCE:
            raise PWGrammarError(
                f"{ident.name}: variable {name} is not a congruence; use "
                f"the concrete check")
    if ident.side_conditions:
        raise PWGrammarError(f"{ident.name}: side conditions are not "
                             f"supported by the generic reduction")
    if has_symbolic(ident.lhs):
        raise PWGrammarError("symbolic count on the left-hand side")
    return pw_analyze(ident.lhs, ident.kinds())


def _pw_setup(ctx: PWContext, ident: Identity, cfg: PWConfig):
    """The free algebra on ``cfg``'s nodes, each variable's labels (seed
    pairs are node numbers, which are free-generator positions) and the
    source generator as a frontier."""
    f = ctx.free(cfg.nodes)
    seeds = dict(cfg.seeds)
    parts = {name: ctx.partition(cfg.nodes, seeds.get(name, ()))
             for name, _ in ident.var_kinds}
    frontier = np.zeros(f.n_elements, dtype=bool)
    frontier[f.generators[cfg.source]] = True
    return f, parts, frontier


def pw_check(ctx: PWContext, ident: Identity, k: int | None = None) -> bool:
    """Variety-wide verdict for a congruence-variable inclusion."""
    if k is not None:
        _check_count(k)
    cfg = _pw_config(ident)
    rhs = ident.rhs
    if has_symbolic(rhs):
        if k is None:
            raise CheckError(f"{ident.name} needs a value for k")
        rhs = substitute_k(rhs, k)
    f, parts, frontier = _pw_setup(ctx, ident, cfg)
    reached = _reach(push_converse(rhs, ident.kinds()), frontier, parts)
    return bool(reached[f.generators[cfg.target]])


def walk_scan(ctx: PWContext, ident: Identity, cfg: PWConfig,
              limit: int) -> tuple[Walk, FreeAlgebra, dict]:
    """One walk deciding ``ident`` at every k up to ``limit``.

    The right-hand side must be a k-free prefix followed by an alternation
    or power with count ``k``.  The prefix is reached once from the source
    generator, and the inclusion holds at k exactly when layer k of the
    trailing walk holds the target, so ``Walk.reached`` is the least such
    k.  Returns the walk, the free algebra and the variables' labels.
    """
    rhs = push_converse(ident.rhs, ident.kinds())
    *prefix, tail = rhs.items if isinstance(rhs, ComposeE) else (rhs,)
    if (not isinstance(tail, (AltE, PowE)) or tail.count != K
            or any(has_symbolic(x) for x in (*prefix, *_factors(tail)))):
        raise PWGrammarError(f"{expr_str(rhs)}: k must occur exactly once, "
                             f"as the count of a trailing alternation or "
                             f"power")
    f, parts, frontier = _pw_setup(ctx, ident, cfg)
    for factor in prefix:
        frontier = _reach(factor, frontier, parts)
    walk = Walk(tail, frontier, parts)
    walk.run(limit, f.generators[cfg.target])
    return walk, f, parts


# ---------------------------------------------------------------------------
# Spectra


@dataclass(frozen=True)
class SpectrumResult:
    family: str
    params: tuple            # ((name, value), ...) without the scan param
    value: int | None        # minimal scan value, or None when it exceeds cap
    exceeded: bool
    level: str               # variety | algebra
    evidence: dict | None = None

    @property
    def display(self) -> str:
        return str(self.value) if self.value is not None else "exceeds cap"


def spectrum(a: FiniteAlgebra, family: str, cap: int = 64,
             params: dict | None = None, ctx: PWContext | None = None,
             enum_cap: int = 4, seed_pair_cap: int = 2) -> SpectrumResult:
    """Least scan value making the family's inclusion hold, up to ``cap``.

    The right-hand side only grows with the scan parameter.  Algebra-level
    families take one ``check_concrete`` pass at ``cap``, which finds the
    least value per environment; variety-level families take one
    ``walk_scan``, whose first layer holding the target is the value, and
    monotonicity is asserted one layer further.
    """
    if cap < 0:
        raise CheckError(f"scan cap must be nonnegative: {cap}")
    entry = get_entry(family)
    if entry.scan is None:
        raise CatalogError(f"{family} has no scan parameter; use check")
    params = dict(params or {})
    ident = entry.identity(**params)
    evidence = {"checked_up_to": cap}
    if entry.level == ALGEBRA:
        res = check_concrete(a, ident, k=cap, enum_cap=enum_cap,
                             seed_pair_cap=seed_pair_cap)
        k = res.least_k
        if res.counterexample:
            evidence["counterexample"] = {
                name: rel.to_bitstrings()
                for name, rel in res.counterexample.items()}
    else:
        cfg = _pw_config(ident)
        walk, f, _ = walk_scan(ctx or PWContext(a), ident, cfg, cap)
        k = walk.reached
        if k is not None and k < cap:
            if not walk.run(k + 1)[f.generators[cfg.target]]:
                raise AssertionError(
                    f"{family}: right-hand side not monotone at "
                    f"{k} -> {k + 1}")
    return SpectrumResult(family, tuple(params.items()), k, k is None,
                          entry.level, evidence if k is None else None)
