"""Catalog entries built as instances of other entries equal the same
identities written out term by term."""

import itertools

import pytest

from modbench.catalog import CatalogError, get_entry
from modbench.dsl import AltE, Identity, VarE, alternation, compose, meet
from modbench.relations import CONGRUENCE

A, B, G = VarE("a"), VarE("b"), VarE("g")
ABG = (("a", CONGRUENCE), ("b", CONGRUENCE), ("g", CONGRUENCE))


def _require(cond, msg):
    if not cond:
        raise CatalogError(msg)


# the seven identities written out term by term: the reference for the
# catalog, which builds them as instances of TTRIPLE, TSCHANTZ and DAY


def _bbb(n):
    _require(n >= 1, "BBB needs n >= 1")
    lhs = meet(A, compose(B, G, B, G, B))
    rhs = compose(AltE(meet(A, B), meet(A, G), 4 * n - 1),
                  meet(A, compose(G, B)),
                  AltE(meet(A, G), meet(A, B), 2 * n))
    return Identity("BBB", ABG, lhs, rhs)


def _q2_base(r):
    _require(r >= 1, "Q2_BASE needs r >= 1")
    lhs = meet(A, alternation(B, G, 2 * r + 1))
    rhs = compose(meet(A, compose(G, B)), AltE(meet(A, G), meet(A, B), "k"))
    return Identity("Q2_BASE", ABG, lhs, rhs)


def _q2_a(r, s, n):
    _require(r >= 1 and s >= 1 and n >= 0, "Q2_A needs r, s >= 1, n >= 0")
    lhs = meet(A, alternation(B, G, 4 * r + 1))
    rhs = compose(meet(A, compose(G, B)),
                  AltE(meet(A, G), meet(A, B), s + 4 * r * n))
    return Identity("Q2_A", ABG, lhs, rhs)


def _q2_b(r, s, n, q):
    _require(r >= 1 and s >= 1 and n >= 0 and q >= 1,
             "Q2_B needs r, s, q >= 1 and n >= 0")
    lhs = meet(A, alternation(B, G, 2 ** q * r + 1))
    rhs = compose(meet(A, compose(G, B)),
                  AltE(meet(A, G), meet(A, B),
                       s + (2 ** (q + 1) - 4) * r * n))
    return Identity("Q2_B", ABG, lhs, rhs)


def _qdist(q, n):
    _require(q >= 1 and n >= 0, "QDIST needs q >= 1, n >= 0")
    lhs = meet(A, alternation(B, G, 2 ** q + 1))
    rhs = compose(meet(A, compose(G, B)),
                  AltE(meet(A, G), meet(A, B), (2 ** (q + 1) - 2) * n))
    return Identity("QDIST", ABG, lhs, rhs)


def _qmod2(h, t, n):
    _require(h >= 1 and n >= 0, "QMOD2 needs h >= 1, n >= 0")
    _require(t >= 2 and t % 2 == 0, "QMOD2 needs t even, t >= 2")
    lhs = meet(A, alternation(B, meet(A, G), 4 * h + 3))
    rhs = AltE(meet(A, B), meet(A, G), t + (4 * h + 2) * n)
    return Identity("QMOD2", ABG, lhs, rhs)


def _qmod3(h, t, n, p):
    _require(h >= 1 and n >= 0 and p >= 1,
             "QMOD3 needs h, p >= 1 and n >= 0")
    _require(t >= 2 and t % 2 == 0, "QMOD3 needs t even, t >= 2")
    z = 2 ** p * (h + 1) - 1
    tp = t + (2 ** (p + 1) - 4) * h * n + (2 ** (p + 1) - 2 * p - 2) * n
    lhs = meet(A, alternation(B, meet(A, G), z))
    rhs = AltE(meet(A, B), meet(A, G), tp)
    return Identity("QMOD3", ABG, lhs, rhs)


WRITTEN_OUT = {"BBB": _bbb, "Q2_BASE": _q2_base, "Q2_A": _q2_a,
               "Q2_B": _q2_b, "QDIST": _qdist, "QMOD2": _qmod2,
               "QMOD3": _qmod3}


def _outcome(build, params):
    try:
        return build(**params)
    except CatalogError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(WRITTEN_OUT))
def test_instances_equal_their_written_out_forms(name):
    entry = get_entry(name)
    names = [p for p, _ in entry.params]
    built = 0
    for values in itertools.product(range(-1, 6), repeat=len(names)):
        params = dict(zip(names, values))
        want = _outcome(WRITTEN_OUT[name], params)
        assert _outcome(entry.identity, params) == want, params
        built += isinstance(want, Identity)
    assert built   # the grid reaches past every parameter check
