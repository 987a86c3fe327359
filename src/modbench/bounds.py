"""Bound formulas: the arithmetic content of the term-count theorems.

Each entry turns term-count hypotheses (Day alternation length k, usually
rounded to an even 2r; Gumm alternation count n) into a claim about a
spectrum family: "the value at left length lhs is at most rhs".  A few
entries are plain identity claims or term-count bounds instead.
"""

from __future__ import annotations

from dataclasses import dataclass


class BoundError(ValueError):
    pass


SPECTRUM = "spectrum"
IDENTITY = "identity"
TERMS = "terms"
LENGTHS = "lengths"


@dataclass(frozen=True)
class BoundValue:
    name: str
    params: tuple           # ((name, value), ...)
    rhs: int                # claimed upper bound / claimed length
    kind: str = SPECTRUM
    family: str | None = None       # spectrum family the claim targets
    lhs: int | None = None          # left length (family parameter)
    identity: tuple | None = None   # (catalog name, params) for IDENTITY kind
    premise: str = ""

    def as_pair(self) -> tuple:
        return (self.lhs, self.rhs)


def _req(cond: bool, msg: str):
    if not cond:
        raise BoundError(msg)


def _thm(r, q):
    _req(r >= 1 and q >= 1, "THM needs r, q >= 1")
    return dict(family="DAY", lhs=2 ** (q + 1) - 1, rhs=2 * r ** q,
                premise="(3,2r)-modularity")


def _thm2(h, r, i):
    _req(h > 1 and r > 1 and i >= 0, "THM2 needs h, r > 1 and i >= 0")
    return dict(family="DAY", lhs=2 * h ** (2 ** i) - 1, rhs=2 * r ** (2 ** i),
                premise="(2h-1,2r)-modularity")


def _small_i(m):
    _req(m >= 3, "SMALL_I needs m >= 3")
    return dict(family="DAY", lhs=m, rhs=m, premise="3-modularity")


def _small_ii(q):
    _req(q >= 2, "SMALL_II needs q >= 2")
    return dict(family="DAY", lhs=2 ** q - 1, rhs=2 ** q,
                premise="4-modularity")


def _qkmod_i(q, n):
    _req(q >= 1 and n >= 0, "QKMOD_I needs q >= 1, n >= 0")
    return dict(family="DAY", lhs=2 ** q + 1, rhs=(2 ** (q + 1) - 2) * n + 2,
                premise="n+2 Gumm terms")


def _qkmod_ii(q, n):
    _req(q >= 2 and n >= 0, "QKMOD_II needs q >= 2, n >= 0")
    return dict(family="DAY", lhs=2 ** q - 1,
                rhs=(2 ** (q + 1) - 2 * q - 2) * n + 2,
                premise="n+2 Gumm terms")


def _qkmod2(h, t, n, p):
    _req(h >= 1 and p >= 1 and n >= 0, "QKMOD2 needs h, p >= 1 and n >= 0")
    _req(t >= 2 and t % 2 == 0, "QKMOD2 needs t even")
    z = 2 ** p * (h + 1) - 1
    tp = t + (2 ** (p + 1) - 4) * h * n + (2 ** (p + 1) - 2 * p - 2) * n
    return dict(family="DAY", lhs=z, rhs=tp,
                premise="(2h+1,t)-modularity and n+2 Gumm terms")


def _comb(r, n, p, q):
    _req(r >= 1 and p >= 1 and q >= 1 and n >= 0,
         "COMB needs r, p, q >= 1 and n >= 0")
    z = 2 ** p * 2 ** q - 1
    w = 2 * r ** q + (2 ** q * 2 ** (p + 1) - 2 ** (q + 2) - 2 * p + 2) * n
    return dict(family="DAY", lhs=z, rhs=w,
                premise="2r+1 Day terms and n+2 Gumm terms")


def _numd(n):
    _req(n >= 0, "NUMD needs n >= 0")
    return dict(family="DAY", lhs=3, rhs=2 * n + 2,
                premise="n+2 Gumm terms")


def _numdd(n):
    _req(n >= 2 and n % 2 == 0, "NUMDD needs n even, n >= 2")
    return dict(family="DAY_REV", lhs=3, rhs=2 * n + 1,
                premise="n+2 defective Gumm terms, n even")


def _dst(l, r):
    _req(l >= 1 and r >= 1, "DST needs l, r >= 1")
    return dict(family="DSTAR", lhs=l, rhs=2 * r ** l,
                premise="(3,2r)-modularity")


def _ltt(k):
    _req(k >= 2, "LTT needs k >= 2")
    return dict(kind=TERMS, rhs=k * k - k + 1,
                premise="k+1 Day terms bound the Gumm term count")


def _bbb(n):
    _req(n >= 1, "BBB needs n >= 1")
    return dict(family="DAY", lhs=5, rhs=6 * n + 1,
                premise="n+2 Gumm terms")


def _agtcor2(r, s, n, q):
    _req(r >= 1 and s >= 1 and q >= 1 and n >= 0,
         "AGTCOR2 needs r, s, q >= 1 and n >= 0")
    return dict(kind=IDENTITY,
                lhs=2 ** q * r + 1, rhs=1 + s + (2 ** (q + 1) - 4) * r * n,
                identity=("Q2_B", {"r": r, "s": s, "n": n, "q": q}),
                premise="identity (2) with parameters r, s plus n+2 Gumm "
                        "terms")


def _dm(n):
    _req(n >= 2 and n % 2 == 0, "DM needs n even, n >= 2")
    return dict(family="DAY", lhs=3, rhs=2 * n,
                premise="n+1-distributivity, n even")


def _ed_len(k):
    _req(k >= 1, "ED_LEN needs k >= 1")
    # right side alternates a two-factor block with a single factor
    return dict(kind=LENGTHS, lhs=3, rhs=2 * ((k + 1) // 2) + k // 2,
                premise="Day terms")


def _eddd_len(k):
    _req(k >= 2, "EDDD_LEN needs k >= 2")
    # one factor saved up front, then k-1 alternating (single, double) blocks
    m = k - 1
    return dict(kind=LENGTHS, lhs=3, rhs=1 + (m + 1) // 2 + 2 * (m // 2),
                premise="Day terms")


_BOUNDS = {
    "THM": (("r", "q"), _thm),
    "THM2": (("h", "r", "i"), _thm2),
    "SMALL_I": (("m",), _small_i),
    "SMALL_II": (("q",), _small_ii),
    "QKMOD_I": (("q", "n"), _qkmod_i),
    "QKMOD_II": (("q", "n"), _qkmod_ii),
    "QKMOD2": (("h", "t", "n", "p"), _qkmod2),
    "COMB": (("r", "n", "p", "q"), _comb),
    "NUMD": (("n",), _numd),
    "NUMDD": (("n",), _numdd),
    "DST": (("l", "r"), _dst),
    "LTT": (("k",), _ltt),
    "BBB": (("n",), _bbb),
    "AGTCOR2": (("r", "s", "n", "q"), _agtcor2),
    "DM": (("n",), _dm),
    "ED_LEN": (("k",), _ed_len),
    "EDDD_LEN": (("k",), _eddd_len),
}


def bound_names() -> list[str]:
    return sorted(_BOUNDS)


def bound(name: str, **params) -> BoundValue:
    """Evaluate one bound formula; raises BoundError on constraint breach."""
    if name not in _BOUNDS:
        raise BoundError(f"unknown bound {name!r}; known: "
                         f"{', '.join(bound_names())}")
    param_names, fn = _BOUNDS[name]
    missing = [p for p in param_names if p not in params]
    extra = [p for p in params if p not in param_names]
    if missing:
        raise BoundError(f"{name} missing parameters: {', '.join(missing)}")
    if extra:
        raise BoundError(f"{name} got unknown parameters: {', '.join(extra)}")
    return BoundValue(name, tuple((p, params[p]) for p in param_names),
                      **fn(**params))
