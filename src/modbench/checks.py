"""Deciding identity inclusions.

Two routes:

* ``check_concrete`` quantifies the variables over actual relations of one
  algebra (all congruences; enumerated admissible relations and tolerances)
  and evaluates both sides with the bitset calculus, in blocks of
  environments that are boxes of the assignment product: each variable's
  interned relation ids lie on an axis of their own, and a subexpression
  is computed over the product of its own variables' axes only.  Each
  operation keeps a table of its results by operand, so a block's results
  are one gather, and the cells the table still lacks are computed together
  on packed bit rows.  A product of more than one block is scanned with
  each variable over the relations that its left-hand occurrences can
  generate.  For relation variables this is algebra-level evidence, not a
  variety-wide verdict.

* ``pw_check`` decides congruence-variable inclusions for the whole
  generated variety: one free generator per node of the left-hand chain
  structure, congruences generated from the labeled edges, and a single
  membership test of the distinguished pair against the right-hand side.

Congruences on the free algebra are kept as partition label arrays; the
right-hand side is evaluated by saturation walks, splitting per class when
a composite meets a congruence inside an intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import itertools
import math

import numpy as np

from .algebras import FiniteAlgebra
from .catalog import ALGEBRA, CatalogError, get_entry, level_of
from .dsl import (AltE, ComposeE, ConvE, GenE, Identity, K, MeetE, PowE,
                  VarE, _check_count, alternation, children, expr_str,
                  expr_vars, has_symbolic, push_converse, substitute_k)
from .dsl import meet as meet_expr
from .free import (CapExceeded, FreeAlgebra, build_free, meet_labels,
                   saturate, DEFAULT_CAP_ENTRIES, DEFAULT_WORK_BUDGET)
from .relations import (CONGRUENCE, KIND_LEVEL, WORD, BinRel, GuardExceeded,
                        RelationError, converse_packed,
                        enumerate_relations, generate, included_packed,
                        is_compatible, pack, pair_ranks, unpack)
# the calculus's own names for the packed kernels, under which it calls
# them
from .relations import compose_packed as compose
from .relations import meet_packed as meet
from .relations import union_packed as union


class CheckError(ValueError):
    pass


class PWGrammarError(CheckError):
    """Left-hand side not in the generic-reduction grammar."""


# ---------------------------------------------------------------------------
# Concrete evaluation

# The most environments in one block.  In one process (best of 2-5, a
# 2-core Xeon), blocks of 4,096 / 8,192 / 16,384 / 32,768 / 65,536 took
# chain3 AGAI 10-17 / 7.9 / 7.3 / 7.7 / 10.3 ms, chain3 AG 0.15-0.18 /
# 0.098 / 0.070 / 0.064 / 0.079 s and the eight chain7 member cells
# 0.55-0.61 / 0.49 / 0.45 / 0.49 / 0.63 s; the traced peak of chain7
# DAY(5) grows with the block: 0.8 / 1.0 / 1.5 / 2.4 / 5.3 MB.
BATCH = 16384


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-d array, by a sort and a neighbour
    compare: numpy 2's ``np.unique`` without ``return_index`` or
    ``return_inverse`` hashes, which is 2-6 times slower on these sizes."""
    x = np.sort(x)
    first = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return x[first]


class _Table:
    """The results of one operation met so far, gathered by operand.

    Each operand side numbers the ids it meets, in the order it meets them:
    ``pos[side]`` maps an id to its position, -1 before then, and
    ``ids[side]`` maps back.  ``res[i, j]`` is the result for the left
    operand at position i and the right one at position j, -1 while not
    computed; both dimensions double as positions are handed out, so every
    position has a cell.  The table grows with the operands met, not with
    the ids interned, and a unary operation, whose one operand is the
    right one, keeps a single row.
    """

    def __init__(self, dtype):
        self.pos = [np.full(16, -1, np.int64), np.full(16, -1, np.int64)]
        self.ids = [np.zeros(0, np.int64), np.zeros(0, np.int64)]
        self.res = np.full((1, 1), -1, dtype)

    def place(self, side: int, x: np.ndarray, n_ids: int) -> np.ndarray:
        """The positions of the ids ``x`` (all below ``n_ids``) on one
        side, handing out new positions in order of id."""
        pos = self.pos[side]
        if pos.size < n_ids:
            grown = np.full(max(n_ids, 2 * pos.size), -1, np.int64)
            grown[:pos.size] = pos
            pos = self.pos[side] = grown
        p = pos.take(x)
        if p.min() < 0:
            new, ids = _distinct(x[p < 0]), self.ids[side]
            pos[new] = np.arange(ids.size, ids.size + new.size)
            self.ids[side] = np.concatenate([ids, new])
            p = pos.take(x)
        return p

    def fit(self) -> None:
        """Double ``res`` until every position handed out has a cell."""
        (rows, cols), (n, m) = self.res.shape, map(len, self.ids)
        if n <= rows and m <= cols:
            return
        while rows < n:
            rows *= 2
        while cols < m:
            cols *= 2
        res = np.full((rows, cols), -1, self.res.dtype)
        res[:self.res.shape[0], :self.res.shape[1]] = self.res
        self.res = res


class _Calculus:
    """The relations of one algebra met during one call, interned as ids,
    and the calculus on arrays of ids.

    Each relation is held as the bytes of its packed rows, keyed to its id.
    Each operation keeps a ``_Table`` of its results.  An operation on a
    batch gathers the operands' positions and then the results in one step
    each.  The cells still missing are computed together: their operands
    are gathered as one uint64 array of shape (cells, |A|, ceil(|A| / 64)),
    one packed-row step (``compose``, ``meet``, ...) runs over all of them,
    and each distinct result is interned once.  ``generate`` runs one
    closure per missing cell.  An alternation is a chain of lifted
    compositions, so it reads and writes the composition table.  Only what
    the call meets is computed, so nothing is tabulated in advance and |A|
    is not bounded; a ``BinRel`` is made only for a relation read through
    ``rel``.
    """

    def __init__(self, a: FiniteAlgebra):
        self.a = a
        # packed rows -> id, and each id's packed rows
        self._ids: dict[bytes, int] = {}
        self._keys: list[bytes] = []
        # operation -> its results
        self._tables: dict = {}
        self.identity = int(self.intern([BinRel.identity(a.size)])[0])

    def intern(self, rels) -> np.ndarray:
        """The ids of a nonempty list of relations."""
        return self._intern(pack(rels, self.a.size))

    def _intern(self, stack: np.ndarray) -> np.ndarray:
        """The ids of a nonempty stack of packed relations."""
        data, width = stack.tobytes(), stack[0].nbytes
        ids, keys, out = self._ids, self._keys, []
        for lo in range(0, len(data), width):
            key = data[lo:lo + width]
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(keys)
                keys.append(key)
            out.append(i)
        return np.array(out, np.int64)

    def rel(self, i: int) -> BinRel:
        """The relation of id ``i``."""
        return unpack(self._keys[i], self.a.size)

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        """The packed rows of the relations ``ids``."""
        n = self.a.size
        data = b"".join(map(self._keys.__getitem__, ids.tolist()))
        return np.frombuffer(data, WORD).reshape(-1, n, -(-n // 64))

    def lift(self, op, x: np.ndarray, y: np.ndarray | None = None):
        """``op`` applied to each environment's ids ``x`` (and ``y``).

        ``op`` is ``"o"``, ``"&"``, ``"|"``, ``"<="`` or ``"conv"``, or a
        relation kind (``generate``).  A unary ``op`` takes ``x`` as its
        right operand.  The results are gathered from ``op``'s table; the
        cells still empty are computed together, then gathered again.
        """
        t, n_ids = self._tables.get(op), len(self._keys)
        if t is None:
            t = self._tables[op] = _Table(np.int8 if op == "<=" else np.int32)
        if y is None:
            if not t.ids[0].size:
                t.ids[0] = np.zeros(1, np.int64)
            left, right = 0, t.place(1, x, n_ids)
        else:
            left, right = t.place(0, x, n_ids), t.place(1, y, n_ids)
        t.fit()
        cells = left * t.res.shape[1] + right
        out = t.res.take(cells)
        if out.min() < 0:
            flat = t.res.reshape(-1)
            todo = _distinct(cells[out < 0])
            i, j = np.divmod(todo, t.res.shape[1])
            flat[todo] = self._compute(op, t.ids[0][i], t.ids[1][j])
            out = flat.take(cells)
        return out > 0 if op == "<=" else out

    def _compute(self, op, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``op`` of each pair of ids ``i[c]`` and ``j[c]``, as ids, or for
        ``"<="`` as whether it holds; a unary ``op`` takes ``j``."""
        if op in KIND_LEVEL:
            return self.intern([generate(self.a, self.rel(c).pairs(), op)
                                for c in j.tolist()])
        s = self._rows(j)
        if op == "conv":
            return self._intern(converse_packed(s))
        r = self._rows(i)
        if op == "<=":
            return included_packed(r, s)
        return self._intern({"o": compose, "&": meet, "|": union}[op](r, s))


class _Batch:
    """A box of environments: each variable's ids on an axis of its own,
    or, after ``take``, every environment's ids in one flat axis.

    ``shape`` is the box's; each variable's array has that many axes,
    each of length 1 or the box's.  ``eval`` gives an expression's ids
    over the product of its own variables' axes only, broadcast against
    the others.  A subexpression met again, in this batch or another, is
    answered from the calculus's tables.
    """

    def __init__(self, calc: _Calculus, cols: dict, shape: tuple):
        self.calc, self.cols, self.shape = calc, cols, shape
        # whether an alternation of the symbolic count has not reached its
        # fixed point in an ``eval`` since this was last cleared
        self.moving = False

    def flat(self, x: np.ndarray) -> np.ndarray:
        """``x`` broadcast to every environment, in product order."""
        return np.broadcast_to(x, self.shape).reshape(-1)

    def take(self, rows: np.ndarray) -> "_Batch":
        """The environments at the flat positions ``rows``, in that
        order."""
        return _Batch(self.calc, {v: self.flat(c)[rows]
                                  for v, c in self.cols.items()},
                      (len(rows),))

    def eval(self, e, count: int | None = None) -> np.ndarray:
        """Ids of ``e`` with ``count`` replacing the symbolic count."""
        calc = self.calc
        if isinstance(e, VarE):
            if e.name not in self.cols:
                raise CheckError(f"unbound variable {e.name}")
            return self.cols[e.name]
        if isinstance(e, (AltE, PowE)):
            m = count if e.count == K else e.count
            if m is None:
                raise CheckError("symbolic count not substituted")
            if m == 0:
                self.moving |= e.count == K
                return np.full((1,) * len(self.shape), calc.identity,
                               dtype=np.int64)
            # first o second o first o ..., folded left one composition
            # per factor.  Once two steps in a row change no id, every
            # environment's alternation absorbs both factors, so it is
            # fixed at every larger count
            factors = [self.eval(f, count) for f in children(e)]
            out, unchanged = factors[0], 0
            for step in range(1, m):
                prev = out
                out = calc.lift("o", out, factors[step % len(factors)])
                unchanged = (unchanged + 1 if np.array_equal(
                    out, np.broadcast_to(prev, out.shape)) else 0)
                if unchanged == 2:
                    break
            self.moving |= e.count == K and unchanged < 2
            return out
        if isinstance(e, ConvE):
            return calc.lift("conv", self.eval(e.item, count))
        op = {ComposeE: "o", MeetE: "&", GenE: "|"}.get(type(e))
        if op is None:
            raise CheckError(f"not an expression: {e!r}")
        out = self.eval(e.items[0], count)
        for it in e.items[1:]:
            out = calc.lift(op, out, self.eval(it, count))
        if isinstance(e, GenE):
            out = calc.lift(e.kind, out)
        return out


def eval_expr(a: FiniteAlgebra, e, env: dict[str, BinRel],
              kinds: dict[str, str] | None = None) -> BinRel:
    """Structural evaluation over explicit relations: a batch of one.

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
    calc = _Calculus(a)
    cols = {name: calc.intern([rel]) for name, rel in env.items()}
    return calc.rel(int(_Batch(calc, cols, (1,)).eval(e)[0]))


# The most variable assignments one concrete check enumerates.
MAX_ENVS = 2_000_000


@dataclass(frozen=True)
class ConcreteResult:
    """One concrete check.  ``envs_checked`` counts the assignments of the
    kinds' lists' product that pass every side condition: all of them when
    it holds, else those up to the counterexample in product order."""

    holds: bool
    counterexample: dict | None
    envs_checked: int
    least_k: int | None = None   # least k holding everywhere, when scanned


def check_concrete(a: FiniteAlgebra, ident: Identity,
                   k: int | None = None) -> ConcreteResult:
    """Quantify the declared variables over all relations of ``a``.

    Each declared kind is enumerated once per call, congruences first, and
    variables of one kind share its list.  A check of more than
    ``MAX_ENVS`` environments is refused (``GuardExceeded``) as soon as the
    relations listed so far prove it.  Environments run in product order
    over them, in blocks of at most ``BATCH`` that are boxes of the product
    (``_boxes``); the first one whose side conditions hold and whose
    inclusion fails at ``k`` is the counterexample.  A block keeps its box
    while every environment of it is still in question; its side
    conditions' survivors, and the environments still failing a step of
    the scan, are taken flat.  When ``k``
    occurs on the right-hand side only, a block is tested from the largest
    count an earlier block needed upwards, each step keeping only the
    environments still failing: relations are reflexive and every
    operation is monotone, so the right-hand side grows with its count,
    and ``least_k`` -- the largest per-environment least count -- is the
    least k at which the inclusion holds throughout.  It is None when the
    check fails or k is not scanned.  Once every alternation of the count
    has reached its fixed point on the environments still failing, their
    right-hand side is the same at every larger count, so they fail at k
    too and the counterexample is found without stepping up to k.

    When the product spans more than one block, each variable is quantified
    over a space of its own (``_pair_spaces``): the relations of its kind
    generated by at most as many off-diagonal pairs as it has occurrences
    on the left-hand side (``_pair_uses``).  A failing assignment shrinks to
    a failing one in the spaces, each variable to a subrelation, and each
    kind's list puts a relation after its subrelations (NextClosure's lectic
    order; congruences by rows).  So the first counterexample of the product
    is in the spaces and is their first, and one scan decides the check.
    """
    if k is not None:
        _check_count(k)
    lhs_k, rhs_k = has_symbolic(ident.lhs), has_symbolic(ident.rhs)
    _check_k(ident, k, lhs_k or rhs_k)
    kinds = [kind for _, kind in ident.var_kinds]
    by_kind, total = {}, 1
    for kind in sorted(set(kinds), key=KIND_LEVEL.get, reverse=True):
        # the most relations of this kind that keep the product in the cap
        count, room = kinds.count(kind), MAX_ENVS // total
        most = round(room ** (1 / count))
        if most ** count > room:
            most -= 1
        by_kind[kind] = enumerate_relations(a, kind, most + 1)
        prior, size = total, len(by_kind[kind])
        total *= size ** count
        if total > MAX_ENVS:
            # str() takes ints of at most 4300 digits by default
            shown = (total if count * math.log10(size) < 4000
                     else f"{size}**{count}" if prior == 1
                     else f"{prior} * {size}**{count}")
            raise GuardExceeded(f"at least {shown} variable assignments "
                                f"exceed the cap {MAX_ENVS}")
    calc = _Calculus(a)
    names = [name for name, _ in ident.var_kinds]
    interned = {kind: calc.intern(rels) for kind, rels in by_kind.items()}
    ids = [interned[kind] for _, kind in ident.var_kinds]
    scan = rhs_k and not lhs_k
    # a product of one block is scanned whole: its spaces would cost more
    # to make than they save
    spaces = _pair_spaces(calc, ident, k, interned) if total > BATCH else ids
    found, least = _scan(calc, ident, names, spaces, k, scan)
    if found is None:
        return ConcreteResult(True, None, _survivors(calc, ident, names, ids),
                              least if scan else None)
    at = [int(np.flatnonzero(full == i)[0]) for full, i in zip(ids, found)]
    return ConcreteResult(False, dict(zip(names, map(calc.rel, found))),
                          _survivors(calc, ident, names, ids, at))


def _pair_uses(ident: Identity, k: int | None) -> dict:
    """How many pairs of each variable one pair of the left-hand side can
    use: its occurrences there, an alternation or power of count m (``k``
    for the symbolic one) counted as its m factors spelled out.  None for
    a variable under a ``gen_*`` there, whose closure may use any number of
    its pairs, or on the sup side of a side condition, which may not
    shrink; 0 for a variable on neither side."""
    uses = dict.fromkeys(ident.kinds(), 0)

    def walk(e, times):
        if not times:
            return
        if isinstance(e, VarE):
            if uses[e.name] is not None:
                uses[e.name] += times
        elif isinstance(e, GenE):
            uses.update(dict.fromkeys(expr_vars(e)))
        elif isinstance(e, (AltE, PowE)):
            m, factors = k if e.count == K else e.count, children(e)
            for i, f in enumerate(factors):
                walk(f, times * len(range(i, m, len(factors))))
        else:
            for f in children(e):
                walk(f, times)

    walk(ident.lhs, 1)
    for c in ident.side_conditions:
        uses.update(dict.fromkeys(expr_vars(c.sup)))
    return uses


def _pair_spaces(calc: _Calculus, ident: Identity, k: int | None,
                 interned: dict) -> list[np.ndarray]:
    """Each variable's ids: those of its kind generated by at most as many
    off-diagonal pairs as ``_pair_uses`` gives it, in the kind's order, or
    all of them where it gives None.

    A failing assignment stays failing when each such variable shrinks to
    the relation that the pairs of it behind one failing pair generate:
    every operation is monotone, so the pair stays on the left, the right
    side can only shrink, and so can a side condition's sub side.
    ``interned`` must hold every relation of each kind, which
    ``pair_ranks`` reads the generated relations from."""
    uses, kinds, n = _pair_uses(ident, k), ident.kinds(), calc.a.size
    ranks = {}
    for kind, space in interned.items():
        counts = [c for name, c in uses.items()
                  if kinds[name] == kind and c is not None]
        if counts:
            # a relation is generated by its own off-diagonal pairs
            ranks[kind] = pair_ranks(calc._rows(space),
                                     min(max(counts), n * (n - 1)))
    return [interned[kind] if uses[name] is None
            else interned[kind][ranks[kind] <= uses[name]]
            for name, kind in ident.var_kinds]


def _batches(calc: _Calculus, names: list, spaces: list):
    """The boxes of the product of ``spaces`` (``_boxes``) as batches, each
    variable's ids of the box on an axis of its own."""
    for box in _boxes([len(space) for space in spaces]):
        parts = [space[cut] for space, cut in zip(spaces, box)]
        yield _Batch(calc, dict(zip(names, np.ix_(*parts))),
                     tuple(map(len, parts)))


def _conditions_hold(batch: _Batch, ident: Identity):
    """Whether every side condition holds, over the batch's axes."""
    ok = True
    for c in ident.side_conditions:
        ok = ok & batch.calc.lift("<=", batch.eval(c.sub),
                                  batch.eval(c.sup))
    return ok


def _scan(calc: _Calculus, ident: Identity, names: list, spaces: list,
          k: int | None, scan: bool) -> tuple[list | None, int]:
    """``check_concrete``'s scan of the product of ``spaces``, in product
    order: the ids of the first counterexample, or None, and the largest
    per-environment least count met."""
    least = 0
    for batch in _batches(calc, names, spaces):
        rows = np.flatnonzero(batch.flat(_conditions_hold(batch, ident)))
        if not rows.size:
            continue
        if rows.size < math.prod(batch.shape):
            batch = batch.take(rows)
        # the batch is tried at m; the environments failing go on to m + 1,
        # or fail at k too once no alternation of the count moves any more
        left, m = batch.eval(ident.lhs, k), least if scan else k
        while True:
            batch.moving = False
            holds = calc.lift("<=", left, batch.eval(ident.rhs, m))
            fails = np.flatnonzero(~batch.flat(holds))
            if not fails.size:
                break
            if m == k or not batch.moving:
                return [int(batch.flat(col)[fails[0]])
                        for col in batch.cols.values()], m
            left = batch.flat(left)[fails]
            batch = batch.take(fails)
            m += 1
        least = m
    return None, least


def _survivors(calc: _Calculus, ident: Identity, names: list,
               spaces: list, last: list | None = None) -> int:
    """How many assignments of the product of ``spaces`` pass every side
    condition, of all or of those up to the positions ``last`` in product
    order: on each axis, those that agree with ``last`` before it and lie
    below it there, and ``last``.  The conditions are tested over their own
    variables' product only; each assignment of it that passes stands for
    every assignment of the other variables."""
    used = set().union(*(expr_vars(c.sub) | expr_vars(c.sup)
                         for c in ident.side_conditions))
    inside = [name in used for name in names]
    own = list(itertools.compress(spaces, inside))
    passed = np.empty([len(space) for space in own], bool)
    for box, batch in zip(_boxes(list(passed.shape)), _batches(
            calc, list(itertools.compress(names, inside)), own)):
        passed[box] = _conditions_hold(batch, ident)
    count, free = 0, math.prod(len(s) for s, o in zip(spaces, inside) if not o)
    for space, o, at in zip(spaces, inside,
                            last or [len(s) - 1 for s in spaces]):
        if o:
            count += int(np.count_nonzero(passed[:at])) * free
            passed = passed[at]
        else:
            free //= len(space)
            count += int(np.count_nonzero(passed)) * at * free
    return count + int(passed)


def _boxes(sizes: list[int]):
    """The blocks of the product of ranges of ``sizes``, in product order
    (the last axis varies fastest), as a slice per axis.  Each block holds
    at most ``BATCH`` environments and is a box: the leading axes fixed,
    one axis cut into a run, the trailing axes whole, so it is a
    contiguous range of the order."""
    split, tail = len(sizes), 1
    while split and tail * sizes[split - 1] <= BATCH:
        split -= 1
        tail *= sizes[split]
    whole = tuple(slice(0, n) for n in sizes[split:])
    if not split:
        yield whole
        return
    # the axis cut into runs is the last of the others
    *lead, n = sizes[:split]
    step = BATCH // tail
    for fixed in itertools.product(*map(range, lead)):
        for lo in range(0, n, step):
            yield (*(slice(d, d + 1) for d in fixed),
                   slice(lo, min(lo + step, n)), *whole)


def _check_k(ident: Identity, k: int | None, symbolic: bool) -> None:
    """``k`` must be given exactly when ``ident`` holds the symbolic
    count."""
    if symbolic and k is None:
        raise CheckError(f"{ident.name} needs a value for k")
    if not symbolic and k is not None:
        raise CheckError(f"{ident.name} has no symbolic count, so k = {k} "
                         f"does not apply")


# ---------------------------------------------------------------------------
# The generic (variety-level) reduction


@dataclass(frozen=True)
class PWConfig:
    """Seed pairs over nodes 0 .. ``target``, which are free-generator
    positions; the source is node 0."""

    seeds: tuple          # ((var, ((u, w), ...)), ...)
    target: int


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
        if e.count < 1:
            what = "alternation" if isinstance(e, AltE) else "power"
            raise PWGrammarError(f"left-hand {what} must be concrete and "
                                 f"positive")
        factors = [_expand_counts(f) for f in children(e)]
        return alternation(factors[0], factors[-1], e.count)
    raise PWGrammarError(f"not allowed on a generic left-hand side: "
                         f"{expr_str(e)}")


def pw_analyze(ident: Identity) -> PWConfig:
    """Generic configuration of an identity the reduction decides.

    Grammar of the left-hand side: an atom is an intersection of
    congruence variables with at most one parenthesized chain; a chain is
    a composition of atoms.  Each atom spans an edge; its variables collect
    that edge as a generating pair; its chain splits the edge with fresh
    nodes.  The source is node 0, chain nodes follow in allocation order
    and the target is numbered last.
    """
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
    lhs = _expand_counts(ident.lhs)
    counter = itertools.count(1)
    seeds: dict[str, list] = {}

    def do_atom(e, u, w):
        # w is None for the target, which is numbered once all are known
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
            seeds.setdefault(v, []).append((u, w))
        if chain is not None:
            prev = u
            for i, factor in enumerate(chain.items):
                nxt = w if i == len(chain.items) - 1 else next(counter)
                do_atom(factor, prev, nxt)
                prev = nxt

    do_atom(lhs, 0, None)
    target = next(counter)
    return PWConfig(tuple((v, tuple((u, target if w is None else w)
                                    for u, w in ps))
                          for v, ps in seeds.items()),
                    target)


class PWContext:
    """Caches free algebras and generated partitions for one algebra.

    A saturation walk reads no element's name or witness, so it takes F(g)
    in any order, and a walk-only build is cheaper; a chain search reads
    witness terms, and asks for the canonical order.  An ordered F(g)
    serves both.  A walk-only one is replaced by the ordered build when that
    is asked for, and the partitions of the old one, which name its
    elements, are dropped."""

    def __init__(self, algebra: FiniteAlgebra,
                 cap_entries: int = DEFAULT_CAP_ENTRIES,
                 work_budget: int = DEFAULT_WORK_BUDGET):
        self.algebra = algebra
        self.cap_entries = cap_entries
        self.work_budget = work_budget
        self._free: dict[int, FreeAlgebra] = {}
        self._failed: set[int] = set()
        self._parts: dict = {}

    def free(self, g: int, ordered: bool = True) -> FreeAlgebra:
        """F(g), in the canonical order unless ``ordered`` is False."""
        held = self._free.get(g)
        if held is not None and (held.ordered or not ordered):
            return held
        # the entries |F(g)|*|A|^g and the closure work grow with g, so a
        # build over the caps on at most g generators rules this one out
        skipped = [bad for bad in self._failed if bad <= g]
        if skipped:
            raise CapExceeded(
                f"free algebra on {g} generators skipped: the build on "
                f"{max(skipped)} generators already exceeded caps", 0)
        try:
            self._free[g] = build_free(self.algebra, g,
                                       cap_entries=self.cap_entries,
                                       work_budget=self.work_budget,
                                       ordered=ordered)
        except CapExceeded:
            self._failed.add(g)
            raise
        if held is not None:
            self._parts = {key: labels for key, labels in self._parts.items()
                           if key[0] != g}
        return self._free[g]

    def partition(self, g: int, pairs) -> np.ndarray:
        """Labels of the congruence that the generator pairs generate on
        the F(g) held, or on a walk-only one built for the call."""
        key = (g, tuple(sorted(pairs)))
        if key not in self._parts:
            self._parts[key] = self.free(g, ordered=False
                                         ).gen_pair_congruence(list(pairs))
        return self._parts[key]


def context_for(a: FiniteAlgebra, ctx: PWContext | None = None,
                cap_entries: int | None = None,
                work_budget: int | None = None) -> PWContext:
    """``ctx`` if it was built for ``a``; without one, a fresh context
    with the caps, a cap left None taking its default.  A context built
    for another algebra, or given beside a cap it would not obey, is an
    error."""
    if ctx is None:
        return PWContext(
            a, DEFAULT_CAP_ENTRIES if cap_entries is None else cap_entries,
            DEFAULT_WORK_BUDGET if work_budget is None else work_budget)
    if cap_entries is not None or work_budget is not None:
        raise CheckError("caps given beside a context, which keeps the "
                         "caps it was built with")
    if ctx.algebra != a:
        raise CheckError(
            f"context built for another algebra with the same name "
            f"{a.name!r}" if ctx.algebra.name == a.name else
            f"context built for {ctx.algebra.name!r}, not for {a.name!r}")
    return ctx


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
        self._factors = children(alternation)
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
        for cid in _distinct(combined[frontier]):
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


def _pw_setup(ctx: PWContext, ident: Identity, cfg: PWConfig,
              ordered: bool = False):
    """What a walk of ``ident`` under ``cfg`` starts from: the free
    algebra on generators 0 .. ``cfg.target``, in the canonical order when
    ``ordered``, each variable's labels, the source generator as a
    frontier, and the target generator."""
    g = cfg.target + 1
    f = ctx.free(g, ordered)
    seeds = dict(cfg.seeds)
    parts = {name: ctx.partition(g, seeds.get(name, ()))
             for name, _ in ident.var_kinds}
    frontier = np.zeros(f.n_elements, dtype=bool)
    frontier[f.generators[0]] = True
    return f, parts, frontier, f.generators[cfg.target]


def pw_check(ctx: PWContext, ident: Identity, k: int | None = None) -> bool:
    """Variety-wide verdict for a congruence-variable inclusion."""
    if k is not None:
        _check_count(k)
    cfg = pw_analyze(ident)
    _check_k(ident, k, has_symbolic(ident.rhs))
    rhs = ident.rhs if k is None else substitute_k(ident.rhs, k)
    rhs = push_converse(rhs, ident.kinds())
    _, parts, frontier, target = _pw_setup(ctx, ident, cfg)
    return bool(_reach(rhs, frontier, parts)[target])


def walk_scan(ctx: PWContext, ident: Identity, limit: int,
              ordered: bool = False) -> tuple[Walk, FreeAlgebra, dict]:
    """One walk deciding ``ident`` at every k up to ``limit``.

    The right-hand side must be a k-free prefix followed by an alternation
    or power with count ``k``.  The prefix is reached once from the source
    generator, and the inclusion holds at k exactly when layer k of the
    trailing walk holds the target, so ``Walk.reached`` is the least such
    k.  Returns the walk, the free algebra and the variables' labels.
    The free algebra is in the canonical order, whose witness terms a chain
    is read from, only when ``ordered``; the walk is the same either way.
    """
    cfg = pw_analyze(ident)
    rhs = push_converse(ident.rhs, ident.kinds())
    *prefix, tail = rhs.items if isinstance(rhs, ComposeE) else (rhs,)
    if (not isinstance(tail, (AltE, PowE)) or tail.count != K
            or any(has_symbolic(x) for x in (*prefix, *children(tail)))):
        raise PWGrammarError(f"{expr_str(rhs)}: k must occur exactly once, "
                             f"as the count of a trailing alternation or "
                             f"power")
    f, parts, frontier, target = _pw_setup(ctx, ident, cfg, ordered)
    for factor in prefix:
        frontier = _reach(factor, frontier, parts)
    walk = Walk(tail, frontier, parts)
    walk.run(limit, target)
    return walk, f, parts


# ---------------------------------------------------------------------------
# Spectra


@dataclass(frozen=True)
class Bound:
    """What is known of one spectrum cell: its value lies in [lo, hi], with
    ``hi`` None when no upper bound is known, and ``lo == hi`` decides it.
    ``reason`` says why the cell is open: the refusal of a cap or guard.
    ``evidence``, which ``==`` ignores, is what a scan missing its cap saw."""

    lo: int
    hi: int | None = None
    reason: str | None = None
    evidence: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.lo < 0 or (self.hi is not None and self.hi < self.lo):
            raise AssertionError(f"not a bound: [{self.lo}, {self.hi}]")

    @property
    def value(self) -> int | None:
        """The decided value, else None."""
        return self.lo if self.lo == self.hi else None


def spectrum(a: FiniteAlgebra, family: str, cap: int = 64,
             params: dict | None = None,
             ctx: PWContext | None = None) -> Bound:
    """Least scan value making the family's inclusion hold, up to ``cap``.

    The right-hand side only grows with the scan parameter.  Algebra-level
    families take one ``check_concrete`` pass at ``cap``, which finds the
    least value per environment; variety-level families take one
    ``walk_scan``, whose first layer holding the target is the value, and
    monotonicity is asserted one layer further.  A scan that misses up to
    ``cap`` gives the ``Bound`` [cap + 1, None] and its evidence; a scan
    that a free-algebra cap or the concrete guard refuses gives [0, None],
    with the refusal as its reason.
    """
    if cap < 0:
        raise CheckError(f"scan cap must be nonnegative: {cap}")
    entry = get_entry(family)
    if entry.scan is None:
        raise CatalogError(f"{family} has no scan parameter; use check")
    ident = entry.identity(**(params or {}))
    evidence = {"checked_up_to": cap}
    try:
        if level_of(ident) == ALGEBRA:
            res = check_concrete(a, ident, k=cap)
            k = res.least_k
            if res.counterexample:
                evidence["counterexample"] = {
                    name: rel.to_bitstrings()
                    for name, rel in res.counterexample.items()}
        else:
            walk, f, _ = walk_scan(context_for(a, ctx), ident, cap)
            k = walk.reached
            if k is not None and k < cap:
                # the target is the last generator
                if not walk.run(k + 1)[f.generators[f.g - 1]]:
                    raise AssertionError(
                        f"{family}: right-hand side not monotone at "
                        f"{k} -> {k + 1}")
    except (CapExceeded, GuardExceeded) as exc:
        return Bound(0, reason=str(exc))
    if k is None:
        return Bound(cap + 1, evidence=evidence)
    return Bound(k, k)
