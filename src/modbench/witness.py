"""Witness chains: explicit element sequences certifying memberships.

The constructors take the decompositions the proofs quantify over (the
middle elements b, c, the R/S split, the b_0..b_m ladder) and emit the
element chain together with a relational label per step; every returned
chain revalidates its own step memberships.  Also here: the syntactic
Jonsson-to-Day term transform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import FiniteAlgebra
from .chains import (DAY, DEFECTIVE_GUMM, GUMM, JONSSON, ChainError,
                     TermChain, extend_chain, verify_chain)
from .checks import eval_expr
from .dsl import ConvE, GenE, VarE, compose, expr_str, meet
from .free import Var, eval_term, subst_vars
from .relations import ADMISSIBLE, BinRel
from .relations import compose as rel_compose
from .relations import meet as rel_meet

AGA = "AGA"
AG = "AG"
AGAI = "AGAI"
AGI = "AGI"
DEFECTIVE = "DEFECTIVE"

_A, _G, _R, _S, _T = VarE("a"), VarE("g"), VarE("R"), VarE("S"), VarE("T")


class WitnessError(ValueError):
    pass


@dataclass(frozen=True)
class WitnessChain:
    """Elements with one relational step label between each adjacent pair."""

    algebra: FiniteAlgebra
    elements: tuple
    step_labels: tuple       # relational expressions over env names
    env: tuple               # ((name, BinRel), ...)

    def __post_init__(self):
        if len(self.step_labels) != len(self.elements) - 1:
            raise WitnessError("needs exactly one label per adjacent pair")

    def validate(self) -> bool:
        env = dict(self.env)
        for (x, y), label in zip(zip(self.elements, self.elements[1:]),
                                 self.step_labels):
            rel = eval_expr(self.algebra, label, env)
            if not rel.has(x, y):
                return False
        return True

    def describe(self) -> list[str]:
        out = []
        for i, label in enumerate(self.step_labels):
            out.append(f"{self.elements[i]} -[{expr_str(label)}]- "
                       f"{self.elements[i + 1]}")
        return out


def _checked(chain: WitnessChain, endpoints) -> WitnessChain:
    if (chain.elements[0], chain.elements[-1]) != endpoints:
        raise WitnessError("chain endpoints do not match the input pair")
    if not chain.validate():
        raise WitnessError("constructed chain fails step validation")
    return chain


def find_nte_decomposition(a: FiniteAlgebra, alpha: BinRel, gamma: BinRel,
                           r: BinRel, a_el: int, d_el: int):
    """Some (b, c) with a_el Delta b (alpha&gamma) c Delta d_el, if any,
    where Delta = R o conv(R)."""
    delta = rel_compose(r, r.converse())
    ag = rel_meet(alpha, gamma)
    for b in range(a.size):
        if not delta.has(a_el, b):
            continue
        for c in range(a.size):
            if ag.has(b, c) and delta.has(c, d_el):
                return (b, c)
    return None


def day_witness_chain(a: FiniteAlgebra, day_chain: TermChain,
                      a_el: int, b_el: int, c_el: int, d_el: int,
                      alpha: BinRel, gamma: BinRel, r: BinRel) -> WitnessChain:
    """Chain from a_el to d_el with steps alternating alpha&Delta (even)
    and alpha&gamma (odd), Delta = R o conv(R), along d_i(a,b,c,d)."""
    if day_chain.scheme != DAY:
        raise WitnessError("day_witness_chain needs a Day chain")
    verdict = verify_chain(a, day_chain)
    if not verdict.valid:
        raise WitnessError(f"invalid Day chain: {verdict.violations[0]}")
    delta = rel_compose(r, r.converse())
    if not (delta.has(a_el, b_el) and alpha.has(b_el, c_el)
            and gamma.has(b_el, c_el) and delta.has(c_el, d_el)
            and alpha.has(a_el, d_el)):
        raise WitnessError(
            "precondition fails: need a Delta b (alpha&gamma) c Delta d "
            "and a alpha d")
    args = (a_el, b_el, c_el, d_el)
    elements = tuple(eval_term(a, t, args) for t in day_chain.terms)
    delta_expr = compose(_R, ConvE(_R))
    labels = tuple(meet(_A, delta_expr) if i % 2 == 0 else meet(_A, _G)
                   for i in range(len(elements) - 1))
    chain = WitnessChain(a, elements, labels,
                         (("a", alpha), ("g", gamma), ("R", r)))
    return _checked(chain, (a_el, d_el))


def gumm_witness_chain(a: FiniteAlgebra, chain: TermChain, variant: str,
                       **inputs) -> WitnessChain:
    """Witness chains for the Gumm-term membership inclusions.

    Variants and their inputs (elements are universe indices, relations are
    BinRel):

    * AGA: alpha, r, s, a_el, b_el, c_el with a R b S c and a alpha c.
    * AG: alpha, ts (list), r, s, ladder (b_0..b_m), b_el.
    * AGAI: AGA plus t (admissible) and a2_el with a2 (alpha&T) a.
    * AGI: AG plus t and a2_el.
    * DEFECTIVE: as AGA, needs the chain's n even and >= 2.
    """
    if variant not in (AGA, AG, AGAI, AGI, DEFECTIVE):
        raise WitnessError(f"unknown variant {variant!r}")
    want_defective = variant == DEFECTIVE
    if chain.scheme not in (GUMM, DEFECTIVE_GUMM):
        raise WitnessError("needs a Gumm or defective Gumm chain")
    verdict = verify_chain(a, chain)
    if not verdict.valid:
        raise WitnessError(f"invalid chain: {verdict.violations[0]}")
    n = chain.param
    if want_defective and (n < 2 or n % 2):
        raise WitnessError("the defective construction needs n even, n >= 2")

    alpha = inputs["alpha"]
    r, s = inputs["r"], inputs["s"]
    if variant in (AG, AGI):
        ts = list(inputs["ts"])
        ladder = list(inputs["ladder"])
        if len(ladder) != len(ts) + 1:
            raise WitnessError("ladder must have one more element than ts")
        a_el, c_el = ladder[0], ladder[-1]
        b_el = inputs["b_el"]
        t_exprs = [VarE(f"t{i}") for i in range(1, len(ts) + 1)]
        env = [("a", alpha), ("R", r), ("S", s)]
        env += [(f"t{i + 1}", ts[i]) for i in range(len(ts))]
        for i, t in enumerate(ts):
            if not t.has(ladder[i], ladder[i + 1]):
                raise WitnessError(
                    f"precondition fails: ladder step {i} not in t{i + 1}")
    else:
        a_el, b_el, c_el = inputs["a_el"], inputs["b_el"], inputs["c_el"]
        ts, ladder = [r, s], [a_el, b_el, c_el]
        t_exprs = [_R, _S]
        env = [("a", alpha), ("R", r), ("S", s)]
    if not (r.has(a_el, b_el) and s.has(b_el, c_el)):
        raise WitnessError("precondition fails: need a R b S c")
    if not alpha.has(a_el, c_el):
        raise WitnessError("precondition fails: need a alpha c")

    first_items: tuple
    if variant in (AGAI, AGI):
        t_rel = inputs["t"]
        a2_el = inputs["a2_el"]
        if not (t_rel.has(a2_el, a_el) and alpha.has(a2_el, a_el)):
            raise WitnessError("precondition fails: need a' (alpha&T) a")
        env.append(("T", t_rel))
        first_items = (_T, ConvE(_R), _S)
        start_el = a2_el
    else:
        first_items = (ConvE(_R), _S)
        start_el = a_el

    p = chain.terms[0]
    elements = [start_el, eval_term(a, p, (a_el, a_el, c_el))]
    labels = [meet(_A, GenE(ADMISSIBLE, first_items))]

    last_block = n - 1 if want_defective else n
    for i in range(1, last_block + 1):
        ji = chain.terms[i]
        if i % 2 == 1:  # forward ladder through alpha&t1, ..., alpha&tm
            for step in range(len(ts)):
                elements.append(eval_term(
                    a, ji, (a_el, ladder[step + 1], c_el)))
                labels.append(meet(_A, t_exprs[step]))
        else:  # backward ladder through the converses
            for step in range(len(ts) - 1, -1, -1):
                elements.append(eval_term(a, ji, (a_el, ladder[step], c_el)))
                labels.append(meet(_A, ConvE(t_exprs[step])))
    if want_defective:
        elements.append(c_el)
        labels.append(meet(_A, GenE(ADMISSIBLE, (_R, ConvE(_S)))))
    if elements[-1] != c_el:
        raise WitnessError("chain did not close at the right endpoint")
    chain_out = WitnessChain(a, tuple(elements), tuple(labels), tuple(env))
    return _checked(chain_out, (start_el, c_el))


# ---------------------------------------------------------------------------
# Jonsson terms to Day terms


def pad_to_even(a: FiniteAlgebra, chain: TermChain) -> TermChain:
    """Repeat the final projection until the parameter is even and at
    least 2; revalidates."""
    out = chain
    while out.param % 2 or out.param < 2:
        out = extend_chain(out)
    if out is not chain:
        verdict = verify_chain(a, out)
        if not verdict.valid:
            raise ChainError(f"padding broke the chain: "
                             f"{verdict.violations[0]}")
    return out


def jonsson_to_day(a: FiniteAlgebra, chain: TermChain) -> TermChain:
    """Day terms d_0..d_{2n} from Jonsson terms j_0..j_{n+1}, n even.

    The pattern walks j_{2i}(x,y,w), j_{2i+1}(x,y,w), j_{2i+1}(x,z,w),
    j_{2i+2}(x,z,w), except that the penultimate term is j_n(y,z,w).
    """
    if chain.scheme != JONSSON:
        raise ChainError("jonsson_to_day needs a Jonsson chain")
    n = chain.param
    if n % 2 or n < 2:
        raise ChainError("jonsson_to_day needs n even, n >= 2")
    verdict = verify_chain(a, chain)
    if not verdict.valid:
        raise ChainError(f"unverified input chain: {verdict.violations[0]}")
    xyw = {0: 0, 1: 1, 2: 3}
    xzw = {0: 0, 1: 2, 2: 3}
    yzw = {0: 1, 1: 2, 2: 3}
    js = chain.terms
    terms = []
    for idx in range(2 * n - 1):
        block, pos = divmod(idx, 4)
        j_index = 2 * block + (0 if pos == 0 else 1 if pos in (1, 2) else 2)
        pattern = xyw if pos in (0, 1) else xzw
        terms.append(subst_vars(js[j_index], pattern))
    terms.append(subst_vars(js[n], yzw))
    terms.append(Var(3))
    out = TermChain(DAY, 2 * n, tuple(terms))
    verdict = verify_chain(a, out)
    if not verdict.valid:
        raise ChainError(
            f"transformed chain fails verification: {verdict.violations[0]}")
    return out
