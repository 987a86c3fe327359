"""Term chain schemes and minimal-chain searches.

Schemes: Day (quaternary d_0..d_k), Gumm (ternary p, j_1..j_{n+1}),
defective Gumm (one absorption equation dropped), Jonsson and ALVIN
(ternary j_0..j_{n+1}, even/odd equation pattern swapped for ALVIN).

A scheme equation holds in the generated variety iff it holds in the
generating algebra, so verification is exhaustive over assignments there.
Each search is the saturation walk (``checks.walk_scan``) of an identity
built from catalog entries -- DAY(3), TSCHANTZ(2), or TSCHANTZ(2)'s
left-hand side with DAY(3)'s or DAY_REV(3)'s right-hand side -- in the
free algebra on the 4 or 3 generators of the configuration
``checks.pw_analyze`` derives; witnesses of path elements become the chain
terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebras import FiniteAlgebra
from .catalog import get_entry
from .checks import PWContext, context_for, walk_scan
from .free import Var, eval_term_vector, term_str, term_vars
# only for bench/tracer.py, which patches these names and needs them here
from .free import build_free, meet_labels, saturate  # noqa: F401

DAY = "day"
GUMM = "gumm"
DEFECTIVE_GUMM = "defective_gumm"
JONSSON = "jonsson"
ALVIN = "alvin"

SCHEMES = (DAY, GUMM, DEFECTIVE_GUMM, JONSSON, ALVIN)


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class TermChain:
    """A scheme-tagged term sequence; endpoint projections are enforced."""

    scheme: str
    terms: tuple

    @property
    def param(self) -> int:
        """k for Day (k + 1 terms), n otherwise (n + 2 terms)."""
        return len(self.terms) - (1 if self.scheme == DAY else 2)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ChainError(f"unknown scheme {self.scheme!r}")
        nvars = 4 if self.scheme == DAY else 3
        for t in self.terms:
            bad = [v for v in term_vars(t) if v >= nvars]
            if bad:
                raise ChainError(f"variable x{bad[0]} out of range in chain")
        # k >= 1 for Day, n >= 0 otherwise
        if len(self.terms) < 2:
            raise ChainError(f"{self.scheme} chain needs at least 2 terms")
        if self.scheme == DAY:
            if self.terms[0] != Var(0) or self.terms[-1] != Var(3):
                raise ChainError("Day chain endpoints must be x and w")
        elif self.terms[-1] != Var(2):
            raise ChainError(f"{self.scheme} chain must end with z")
        elif self.scheme in (JONSSON, ALVIN) and self.terms[0] != Var(0):
            raise ChainError(f"{self.scheme} chain must start with x")

    def describe(self) -> list[str]:
        return [term_str(t) for t in self.terms]


@dataclass(frozen=True)
class Violation:
    equation: str
    assignment: tuple


@dataclass(frozen=True)
class ChainVerdict:
    valid: bool
    violations: tuple


def _equations(chain: TermChain):
    """(label, termA, mapA, termB, mapB) pairs; maps send term vars to grid
    variables of the scheme arity."""
    t = chain.terms
    eqs = []
    if chain.scheme == DAY:
        k = chain.param
        eqs.append(("x = d0(x,y,z,w)", Var(0), (0, 1, 2, 3), t[0], (0, 1, 2, 3)))
        for i in range(k + 1):
            eqs.append((f"x = d{i}(x,y,y,x)", Var(0), (0, 1, 2, 3), t[i], (0, 1, 1, 0)))
        for i in range(k):
            if i % 2 == 0:
                eqs.append((f"d{i}(x,x,w,w) = d{i + 1}(x,x,w,w)",
                            t[i], (0, 0, 3, 3), t[i + 1], (0, 0, 3, 3)))
            else:
                eqs.append((f"d{i}(x,y,y,w) = d{i + 1}(x,y,y,w)",
                            t[i], (0, 1, 1, 3), t[i + 1], (0, 1, 1, 3)))
        eqs.append((f"d{k}(x,y,z,w) = w", t[k], (0, 1, 2, 3), Var(3), (0, 1, 2, 3)))
        return eqs

    n = chain.param
    if chain.scheme in (GUMM, DEFECTIVE_GUMM):
        p, js = t[0], t  # js[i] is j_i for i >= 1
        eqs.append(("x = p(x,z,z)", Var(0), (0, 1, 2), p, (0, 2, 2)))
        eqs.append(("p(x,x,z) = j1(x,x,z)",
                    p, (0, 0, 2), js[1], (0, 0, 2)))
        for i in range(1, n + 2):
            if chain.scheme == DEFECTIVE_GUMM and i == n:
                continue
            eqs.append((f"x = j{i}(x,y,x)", Var(0), (0, 1, 2), js[i], (0, 1, 0)))
        for i in range(1, n + 1):
            if i % 2 == 1:
                eqs.append((f"j{i}(x,z,z) = j{i + 1}(x,z,z)",
                            js[i], (0, 2, 2), js[i + 1], (0, 2, 2)))
            else:
                eqs.append((f"j{i}(x,x,z) = j{i + 1}(x,x,z)",
                            js[i], (0, 0, 2), js[i + 1], (0, 0, 2)))
        eqs.append((f"j{n + 1}(x,y,z) = z", js[n + 1], (0, 1, 2), Var(2), (0, 1, 2)))
        return eqs

    # Jonsson / ALVIN: j_0 .. j_{n+1}; ALVIN swaps the even/odd pattern
    swap = chain.scheme == ALVIN
    eqs.append(("x = j0(x,y,z)", Var(0), (0, 1, 2), t[0], (0, 1, 2)))
    for i in range(n + 2):
        eqs.append((f"x = j{i}(x,y,x)", Var(0), (0, 1, 2), t[i], (0, 1, 0)))
    for i in range(n + 1):
        zz = (i % 2 == 1) != swap  # True: the (x,z,z) equation
        if zz:
            eqs.append((f"j{i}(x,z,z) = j{i + 1}(x,z,z)",
                        t[i], (0, 2, 2), t[i + 1], (0, 2, 2)))
        else:
            eqs.append((f"j{i}(x,x,z) = j{i + 1}(x,x,z)",
                        t[i], (0, 0, 2), t[i + 1], (0, 0, 2)))
    eqs.append((f"j{n + 1}(x,y,z) = z", t[n + 1], (0, 1, 2), Var(2), (0, 1, 2)))
    return eqs


def verify_chain(a: FiniteAlgebra, chain: TermChain) -> ChainVerdict:
    """Check every scheme equation exhaustively over assignments in ``a``."""
    nvars = 4 if chain.scheme == DAY else 3
    violations = []
    for label, ta, ma, tb, mb in _equations(chain):
        va = eval_term_vector(a, ta, nvars, dict(enumerate(ma)))
        vb = eval_term_vector(a, tb, nvars, dict(enumerate(mb)))
        diff = np.nonzero(va != vb)[0]
        if diff.size:
            assignment = np.unravel_index(diff[0], (a.size,) * nvars)
            violations.append(Violation(label, tuple(map(int, assignment))))
    return ChainVerdict(not violations, tuple(violations))


def extend_chain(chain: TermChain) -> TermChain:
    """Lengthen a chain by one by repeating the final projection.

    The new linking equation relates two copies of the same projection, so
    validity is preserved for every scheme.
    """
    return TermChain(chain.scheme, chain.terms + (chain.terms[-1],))


def as_defective(chain: TermChain) -> TermChain:
    if chain.scheme != GUMM:
        raise ChainError("only Gumm chains can be weakened to defective")
    return TermChain(DEFECTIVE_GUMM, chain.terms)


# ---------------------------------------------------------------------------
# Searches


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a minimal-chain search.

    ``proven_absent`` means the saturation walk reached a fixed point short
    of the target, which rules the chain out for every length, not just up
    to the scan limit.
    """

    scheme: str
    chain: TermChain | None
    proven_absent: bool
    free_elements: int

    @property
    def found(self) -> bool:
        return self.chain is not None

    @property
    def value(self) -> int | None:
        return self.chain.param if self.found else None

    def describe(self) -> str:
        if self.found:
            return f"{self.scheme}: minimal parameter {self.value}"
        if self.proven_absent:
            return f"{self.scheme}: no chain exists (fixed point reached)"
        return f"{self.scheme}: none found within scan limit"


def _backtrack(walk, target):
    """Minimal path through the walk's layers, smallest element index at
    each step."""
    path = [target]
    for i in range(len(walk.layers) - 2, -1, -1):
        rel = walk.labels[i % 2]
        cands = np.nonzero(walk.layers[i] & (rel == rel[path[0]]))[0]
        path.insert(0, int(cands[0]))
    return path


def _path_chain(scheme, walk, f):
    """The chain of the walk's path from generator 0 to the target, the
    last generator.  Its end terms are the forced projections even when
    generators collapse; a walk of no steps (a degenerate variety) leaves
    just those two."""
    end = f.g - 1
    terms = [Var(0), Var(end)]
    if walk.reached:
        terms = [f.term_of(e) for e in _backtrack(walk, f.generators[end])]
        terms[0], terms[-1] = Var(0), Var(end)
    return TermChain(scheme, tuple(terms))


def _search(a, scheme, ident, limit, ctx, caps, chain_of):
    """Walk ``ident`` as ``walk_scan`` does and verify the chain
    ``chain_of(walk, f, parts)`` extracts from it.  Without a context, a
    fresh one with ``caps`` is used; a context for another algebra, or a
    context beside a cap, is a ``CheckError``."""
    if limit < 0:
        raise ChainError(f"scan limit must be nonnegative: {limit}")
    ctx = context_for(a, ctx, *caps)
    # a Jonsson or ALVIN walk is one step longer than its chain parameter
    walk, f, parts = walk_scan(ctx, ident,
                               limit + (scheme in (JONSSON, ALVIN)))
    if walk.reached is None:
        return SearchResult(scheme, None, walk.stalled, f.n_elements)
    chain = chain_of(walk, f, parts)
    verdict = verify_chain(a, chain)
    if not verdict.valid:
        raise AssertionError(f"extracted {scheme} chain fails verification: "
                             f"{verdict.violations}")
    return SearchResult(scheme, chain, False, f.n_elements)


def search_day(a: FiniteAlgebra, k_max: int = 64,
               ctx: PWContext | None = None,
               cap_entries: int | None = None,
               work_budget: int | None = None) -> SearchResult:
    """Minimal k with a valid Day(k) chain, from the four-generator walk.

    In F(4) over generators a,b,c,d take alpha = Cg{(a,d),(b,c)},
    beta = Cg{(a,b),(c,d)}, gamma = Cg{(b,c)}; the minimal k is the length
    of the shortest alternating walk a -(alpha&beta)-(alpha&gamma)-...-> d,
    which is DAY(3)'s right-hand side.  ``ctx`` supplies the free algebra
    and partitions, under its own caps, and takes no cap beside it;
    without one, a fresh context with ``cap_entries`` and ``work_budget``
    (None for the default) is used.
    """
    return _search(a, DAY, get_entry("DAY").identity(), k_max, ctx,
                   (cap_entries, work_budget),
                   lambda walk, f, _: _path_chain(DAY, walk, f))


def search_gumm(a: FiniteAlgebra, n_max: int = 64,
                ctx: PWContext | None = None,
                cap_entries: int | None = None,
                work_budget: int | None = None) -> SearchResult:
    """Minimal n with a valid Gumm(n) chain (p, j_1..j_{n+1}).

    In F(3) over x,y,z with alpha = Cg(x,z), beta = Cg(x,y),
    gamma = Cg(y,z): minimal n such that (x,z) lands in
    (alpha & (gamma o beta)) o ((alpha&gamma) o_n (alpha&beta)), which is
    TSCHANTZ(2)'s right-hand side.
    """
    def chain_of(walk, f, parts):
        z = f.g - 1
        path = _backtrack(walk, f.generators[z])
        # p is the first w with x gamma w beta e1, where e1 starts the walk
        pb, pg = parts["b"], parts["g"]
        x = f.generators[0]
        w = int(np.nonzero((pg == pg[x]) & (pb == pb[path[0]]))[0][0])
        terms = [f.term_of(w)] + [f.term_of(e) for e in path]
        terms[-1] = Var(z)  # the path ends at the target
        return TermChain(GUMM, tuple(terms))
    return _search(a, GUMM, get_entry("TSCHANTZ").identity(), n_max, ctx,
                   (cap_entries, work_budget), chain_of)


def search_jonsson(a: FiniteAlgebra, n_max: int = 64, alvin: bool = False,
                   ctx: PWContext | None = None,
                   cap_entries: int | None = None,
                   work_budget: int | None = None) -> SearchResult:
    """Minimal n with a Jonsson(n) (or ALVIN) chain j_0..j_{n+1}.

    TSCHANTZ(2)'s left-hand side, as in the Gumm search, but the walk
    stays inside the alternation of alpha&beta and alpha&gamma, DAY(3)'s
    right-hand side; ALVIN starts with alpha&gamma, DAY_REV(3)'s.  The
    walk length is n+1.
    """
    scheme = ALVIN if alvin else JONSSON
    ident = replace(get_entry("DAY_REV" if alvin else "DAY").identity(),
                    lhs=get_entry("TSCHANTZ").identity().lhs)
    return _search(a, scheme, ident, n_max, ctx, (cap_entries, work_budget),
                   lambda walk, f, _: _path_chain(scheme, walk, f))
