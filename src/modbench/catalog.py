"""The built-in catalog of congruence/relation identity families.

Each entry builds an :class:`~modbench.dsl.Identity`, possibly with the
symbolic count ``k`` left in the right-hand side (those families support
spectrum scans).  An identity's level follows from its variable kinds
(``level_of``): ``variety`` when it quantifies only congruence variables
and is decided variety-wide by the generic free-algebra reduction,
``algebra`` when it involves admissible or tolerance variables and is
decided by enumeration on one algebra.

Variable conventions: a, b, g are congruences; R, S, T, t1.. are
admissible relations; D, P are tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bounds import bound
from .dsl import (AltE, Contains, ConvE, GenE, Identity, K, PowE, VarE,
                  alternation, children, compose, meet, rebuild,
                  substitute_k)
from .relations import ADMISSIBLE, CONGRUENCE, TOLERANCE

A, B, G = VarE("a"), VarE("b"), VarE("g")
R, S, T = VarE("R"), VarE("S"), VarE("T")
D, P = VarE("D"), VarE("P")

VARIETY = "variety"
ALGEBRA = "algebra"


class CatalogError(ValueError):
    pass


def level_of(ident: Identity) -> str:
    """``VARIETY`` when every variable is a congruence, else ``ALGEBRA``."""
    if all(kind == CONGRUENCE for _, kind in ident.var_kinds):
        return VARIETY
    return ALGEBRA


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple          # ((name, default), ...)
    scan: str | None       # display name of the symbolic parameter, if any
    build: object          # callable(**params) -> Identity

    @property
    def level(self) -> str:
        return level_of(self.identity())

    def identity(self, **params) -> Identity:
        merged = dict(self.params)
        for key, value in params.items():
            if key not in merged:
                raise CatalogError(
                    f"{self.name} takes no parameter {key!r}")
            merged[key] = value
        return self.build(**merged)


def _cong(*names):
    return tuple((n, CONGRUENCE) for n in names)


def _adm(*names):
    return tuple((n, ADMISSIBLE) for n in names)


def _tol(*names):
    return tuple((n, TOLERANCE) for n in names)


def _require(cond, msg):
    if not cond:
        raise CatalogError(msg)


# -- modularity shapes -------------------------------------------------------


def _day(m):
    _require(m >= 3, "DAY needs m >= 3")
    lhs = meet(A, alternation(B, meet(A, G), m))
    return Identity("DAY", _cong("a", "b", "g"), lhs,
                    AltE(meet(A, B), meet(A, G), K))


def _day_rev(m):
    _require(m >= 3, "DAY_REV needs m >= 3")
    lhs = meet(A, alternation(B, meet(A, G), m))
    return Identity("DAY_REV", _cong("a", "b", "g"), lhs,
                    AltE(meet(A, G), meet(A, B), K))


def _swap_bg(e):
    if isinstance(e, VarE):
        return {"b": G, "g": B}.get(e.name, e)
    return rebuild(e, map(_swap_bg, children(e)))


def _dstar(l):
    # nested modularity with l bracket levels
    _require(l >= 1, "DSTAR needs l >= 1")
    cur = meet(A, compose(B, meet(A, G), B))
    for _ in range(l - 1):
        cur = meet(A, compose(B, _swap_bg(cur), B))
    return Identity("DSTAR", _cong("a", "b", "g"), cur,
                    AltE(meet(A, B), meet(A, G), K))


def _tschantz(m):
    _require(m >= 2, "TSCHANTZ needs m >= 2")
    lhs = meet(A, alternation(B, G, m))
    rhs = compose(meet(A, compose(G, B)), AltE(meet(A, G), meet(A, B), K))
    return Identity("TSCHANTZ", _cong("a", "b", "g"), lhs, rhs)


def _tschantz_rev(m):
    _require(m >= 3, "TSCHANTZ_REV needs m >= 3")
    lhs = meet(A, alternation(B, G, m))
    rhs = compose(meet(A, compose(B, G)), AltE(meet(A, B), meet(A, G), K))
    return Identity("TSCHANTZ_REV", _cong("a", "b", "g"), lhs, rhs)


def _tstar(m):
    _require(m >= 3, "TSTAR needs m >= 3")
    lhs = meet(A, alternation(B, G, m))
    rhs = compose(meet(A, compose(G, B, G)), AltE(meet(A, B), meet(A, G), K))
    return Identity("TSTAR", _cong("a", "b", "g"), lhs, rhs)


def _tstarstar(m):
    _require(m >= 3, "TSTARSTAR needs m >= 3")
    lhs = meet(A, alternation(B, G, m))
    rhs = PowE(meet(A, compose(G, B, G)), K)
    return Identity("TSTARSTAR", _cong("a", "b", "g"), lhs, rhs)


def _ttriple(m, h, k):
    # a boolean query: h and k are not minimized jointly
    _require(m >= 3, "TTRIPLE needs m >= 3")
    _require(h >= 0 and k >= 0, "TTRIPLE needs h, k >= 0")
    lhs = meet(A, alternation(B, G, m))
    rhs = compose(AltE(meet(A, B), meet(A, G), h),
                  meet(A, compose(G, B)),
                  AltE(meet(A, G), meet(A, B), k))
    return Identity("TTRIPLE", _cong("a", "b", "g"), lhs, rhs)


# -- relation-variable shapes ------------------------------------------------


def _tr_rel(m):
    _require(m >= 2, "TR_REL needs m >= 2")
    lhs = meet(A, alternation(R, S, m))
    rhs = compose(meet(A, compose(S, R)), AltE(meet(A, S), meet(A, R), K))
    return Identity("TR_REL", _cong("a") + _adm("R", "S"), lhs, rhs)


def _tr_rel_rev(m):
    _require(m >= 3, "TR_REL_REV needs m >= 3")
    lhs = meet(A, alternation(R, S, m))
    rhs = compose(meet(A, compose(R, S)), AltE(meet(A, R), meet(A, S), K))
    return Identity("TR_REL_REV", _cong("a") + _adm("R", "S"), lhs, rhs)


def _rmod(m):
    _require(m >= 2, "RMOD needs m >= 2")
    lhs = meet(A, PowE(R, m))
    return Identity("RMOD", _cong("a") + _adm("R"), lhs,
                    PowE(meet(A, R), K))


def _rrmod(m):
    _require(m >= 3, "RRMOD needs m >= 3")
    lhs = meet(A, alternation(R, meet(A, S), m))
    return Identity("RRMOD", _cong("a") + _adm("R", "S"), lhs,
                    AltE(meet(A, R), meet(A, S), K))


def _tolc(h, m):
    _require(h >= 1 and m >= 1, "TOLC needs h, m >= 1")
    lhs = meet(PowE(D, h), PowE(P, m))
    return Identity("TOLC", _tol("D", "P"), lhs, PowE(meet(D, P), K))


# -- tolerance consequences of Day terms -------------------------------------


def _ed():
    # holds at the Day alternation length when it is even
    lhs = meet(A, compose(D, meet(A, G), B))
    rhs = AltE(compose(meet(A, D), meet(A, D)), meet(A, G), K)
    return Identity("ED", _cong("a", "b", "g") + _tol("D"), lhs, rhs,
                    side_conditions=(Contains(D, B),))


def _eddd():
    # holds at one less than the Day alternation length
    lhs = meet(A, compose(D, meet(A, G), D))
    rhs = compose(meet(A, D),
                  AltE(meet(A, G), compose(meet(A, D), meet(A, D)), K))
    return Identity("EDDD", _cong("a", "g") + _tol("D"), lhs, rhs)


def _nte():
    # the representable tolerance is inlined as R o conv(R)
    delta = compose(R, ConvE(R))
    lhs = meet(A, compose(delta, meet(A, G), delta))
    rhs = AltE(meet(A, delta), meet(A, G), K)
    return Identity("NTE", _cong("a", "g") + _adm("R"), lhs, rhs)


# -- Gumm-term consequences ---------------------------------------------------


def _aga_rhs(first_gen_items, ts):
    fwd = compose(*[meet(A, t) for t in ts])
    bwd = compose(*[meet(A, ConvE(t)) for t in reversed(ts)])
    return compose(meet(A, GenE(ADMISSIBLE, first_gen_items)),
                   AltE(fwd, bwd, K))


def _aga():
    # the scan parameter is the Gumm alternation count
    lhs = meet(A, compose(R, S))
    return Identity("AGA", _cong("a") + _adm("R", "S"), lhs,
                    _aga_rhs((ConvE(R), S), (R, S)))


def _ag(m):
    _require(m >= 2, "AG needs m >= 2")
    ts = [VarE(f"t{i}") for i in range(1, m + 1)]
    lhs = meet(A, compose(*ts))
    rhs = _aga_rhs((ConvE(R), S), ts)
    names = _cong("a") + tuple((t.name, ADMISSIBLE) for t in ts) + _adm("R", "S")
    return Identity("AG", names, lhs, rhs,
                    side_conditions=(Contains(compose(R, S), compose(*ts)),))


def _agai():
    lhs = compose(meet(A, T), meet(A, compose(R, S)))
    return Identity("AGAI", _cong("a") + _adm("T", "R", "S"), lhs,
                    _aga_rhs((T, ConvE(R), S), (R, S)))


def _agi(m):
    _require(m >= 2, "AGI needs m >= 2")
    ts = [VarE(f"t{i}") for i in range(1, m + 1)]
    lhs = compose(meet(A, T), meet(A, compose(*ts)))
    rhs = _aga_rhs((T, ConvE(R), S), ts)
    names = (_cong("a") + tuple((t.name, ADMISSIBLE) for t in ts)
             + _adm("T", "R", "S"))
    return Identity("AGI", names, lhs, rhs,
                    side_conditions=(Contains(compose(R, S), compose(*ts)),))


def _instance(name, ident, count=K):
    """``ident`` renamed to ``name``, with ``count`` for its symbolic k."""
    return replace(ident, name=name, rhs=substitute_k(ident.rhs, count))


def _bbb(n):
    _require(n >= 1, "BBB needs n >= 1")
    return _instance("BBB", _ttriple(5, 4 * n - 1, 2 * n))


def _q2_base(r):
    _require(r >= 1, "Q2_BASE needs r >= 1")
    return _instance("Q2_BASE", _tschantz(2 * r + 1))


def _q2_a(r, s, n):
    _require(r >= 1 and s >= 1 and n >= 0, "Q2_A needs r, s >= 1, n >= 0")
    return _instance("Q2_A", _tschantz(4 * r + 1), s + 4 * r * n)


def _q2_b(r, s, n, q):
    _require(r >= 1 and s >= 1 and n >= 0 and q >= 1,
             "Q2_B needs r, s, q >= 1 and n >= 0")
    # AGTCOR2's right-hand length counts the head factor a & (g o b) too
    b = bound("AGTCOR2", r=r, s=s, n=n, q=q)
    return _instance("Q2_B", _tschantz(b.lhs), b.rhs - 1)


def _agt_4hb(h, n):
    _require(h >= 0 and n >= 0, "AGT_4HB needs h, n >= 0")
    m = 4 * h + 2
    lhs = meet(A, alternation(B, G, m + 1))
    rhs = compose(meet(A, alternation(G, B, 2 * h + 2)),
                  AltE(meet(A, G), meet(A, B), m * n))
    return Identity("AGT_4HB", _cong("a", "b", "g"), lhs, rhs)


def _agt_4hbconv(h, n):
    _require(h >= 0 and n >= 0, "AGT_4HBCONV needs h, n >= 0")
    m = 4 * h + 2
    lhs = meet(A, alternation(B, G, m + 1))
    rhs = compose(AltE(meet(A, B), meet(A, G), m * n),
                  meet(A, alternation(B, G, 2 * h + 2)))
    return Identity("AGT_4HBCONV", _cong("a", "b", "g"), lhs, rhs)


def _agt_4h(h, n):
    _require(h >= 1 and n >= 0, "AGT_4H needs h >= 1, n >= 0")
    m = 4 * h
    lhs = meet(A, alternation(B, G, m + 1))
    rhs = compose(meet(A, alternation(B, G, 2 * h + 1)),
                  AltE(meet(A, G), meet(A, B), m * n))
    return Identity("AGT_4H", _cong("a", "b", "g"), lhs, rhs)


def _qdist(q, n):
    _require(q >= 1 and n >= 0, "QDIST needs q >= 1, n >= 0")
    return _instance("QDIST", _tschantz(2 ** q + 1), (2 ** (q + 1) - 2) * n)


def _qdistconv(q, n):
    _require(q >= 1 and n >= 0, "QDISTCONV needs q >= 1, n >= 0")
    lhs = meet(A, alternation(B, G, 2 ** q + 1))
    rhs = compose(AltE(meet(A, B), meet(A, G), (2 ** (q + 1) - 2) * n),
                  meet(A, compose(B, G)))
    return Identity("QDISTCONV", _cong("a", "b", "g"), lhs, rhs)


def _qmod2(h, t, n):
    _require(h >= 1 and n >= 0, "QMOD2 needs h >= 1, n >= 0")
    _require(t >= 2 and t % 2 == 0, "QMOD2 needs t even, t >= 2")
    return _instance("QMOD2", _day(4 * h + 3), t + (4 * h + 2) * n)


def _qmod3(h, t, n, p):
    _require(h >= 1 and n >= 0 and p >= 1,
             "QMOD3 needs h, p >= 1 and n >= 0")
    _require(t >= 2 and t % 2 == 0, "QMOD3 needs t even, t >= 2")
    b = bound("QKMOD2", h=h, t=t, n=n, p=p)
    return _instance("QMOD3", _day(b.lhs), b.rhs)


CATALOG: dict[str, CatalogEntry] = {}


def _register(name, params, scan, build):
    CATALOG[name] = CatalogEntry(name, params, scan, build)


_register("DAY", (("m", 3),), "k", _day)
_register("DAY_REV", (("m", 3),), "k", _day_rev)
_register("DSTAR", (("l", 1),), "k", _dstar)
_register("TSCHANTZ", (("m", 2),), "k", _tschantz)
_register("TSCHANTZ_REV", (("m", 3),), "k", _tschantz_rev)
_register("TSTAR", (("m", 3),), "k", _tstar)
_register("TSTARSTAR", (("m", 3),), "k", _tstarstar)
_register("TTRIPLE", (("m", 3), ("h", 1), ("k", 1)), None, _ttriple)
_register("TR_REL", (("m", 2),), "k", _tr_rel)
_register("TR_REL_REV", (("m", 3),), "k", _tr_rel_rev)
_register("RMOD", (("m", 2),), "k", _rmod)
_register("RRMOD", (("m", 3),), "k", _rrmod)
_register("TOLC", (("h", 1), ("m", 1)), "ell", _tolc)
_register("ED", (), "k", _ed)
_register("EDDD", (), "k", _eddd)
_register("NTE", (), "k", _nte)
_register("AGA", (), "n", _aga)
_register("AG", (("m", 2),), "n", _ag)
_register("AGAI", (), "n", _agai)
_register("AGI", (("m", 2),), "n", _agi)
_register("BBB", (("n", 1),), None, _bbb)
_register("Q2_BASE", (("r", 1),), "s", _q2_base)
_register("Q2_A", (("r", 1), ("s", 2), ("n", 1)), None, _q2_a)
_register("Q2_B", (("r", 1), ("s", 2), ("n", 1), ("q", 1)), None, _q2_b)
_register("AGT_4HB", (("h", 0), ("n", 1)), None, _agt_4hb)
_register("AGT_4HBCONV", (("h", 0), ("n", 1)), None, _agt_4hbconv)
_register("AGT_4H", (("h", 1), ("n", 1)), None, _agt_4h)
_register("QDIST", (("q", 1), ("n", 1)), None, _qdist)
_register("QDISTCONV", (("q", 1), ("n", 1)), None, _qdistconv)
_register("QMOD2", (("h", 1), ("t", 2), ("n", 1)), None, _qmod2)
_register("QMOD3", (("h", 1), ("t", 2), ("n", 1), ("p", 1)), None, _qmod3)


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise CatalogError(f"unknown identity {name!r}; known: "
                           f"{', '.join(sorted(CATALOG))}") from None
