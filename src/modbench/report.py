"""The consistency report: measured spectra against every claimed bound.

For one algebra this measures the minimal Day and Gumm parameters, the
Day / reversed-Day / nested spectra within caps, then instantiates each
bound formula with the measured term counts and checks the claim.  A bound
whose target value is not computable under the caps is reported as
``unchecked``; a ``fail`` means a theorem was contradicted, which is a
build-stopping bug, not data.
"""

from __future__ import annotations

from .algebras import FiniteAlgebra
from .bounds import IDENTITY, SPECTRUM, TERMS, BoundError, bound
from .catalog import get_entry
from .chains import (as_defective, extend_chain, search_day, search_gumm,
                     search_jonsson, verify_chain)
from .checks import Bound, PWContext, context_for, pw_check, spectrum
from .free import CapExceeded
from .witness import jonsson_to_day, pad_to_even

PASS = "pass"
FAIL = "fail"
UNCHECKED = "unchecked"

DAY_MS = range(3, 8)
DSTAR_LS = range(1, 4)


def _status(measured: Bound, claimed: int) -> str:
    """pass when hi <= claimed, fail when lo > claimed, else unchecked."""
    if measured.hi is not None and measured.hi <= claimed:
        return PASS
    return FAIL if measured.lo > claimed else UNCHECKED


def _shown(measured: Bound):
    """A cell as the report prints it: the decided value, "exceeds cap" for
    a scan that missed up to its cap (a lower bound alone), or "unchecked"."""
    if measured.value is not None:
        return measured.value
    return "exceeds cap" if measured.lo else UNCHECKED


def consistency_report(a: FiniteAlgebra, scan_cap: int = 64,
                       ctx: PWContext | None = None) -> dict:
    """Per-algebra report dictionary; see the module docstring."""
    ctx = context_for(a, ctx)
    report = {"algebra": a.name, "size": a.size, "modular": None,
              "dayK": None, "gummN": None, "spectra": [], "bounds": [],
              "crosschecks": [], "ok": True}

    try:
        day = search_day(a, k_max=scan_cap, ctx=ctx)
    except CapExceeded as exc:
        return {**report, "note": f"free algebra caps: {exc}"}
    if not day.found:
        return {**report, "modular": False if day.proven_absent else None,
                "note": ("not congruence modular (no Day chain exists)"
                         if day.proven_absent else
                         f"no Day chain within scan limit {scan_cap}")}

    gumm = search_gumm(a, n_max=scan_cap, ctx=ctx)
    jonsson = search_jonsson(a, n_max=scan_cap, ctx=ctx)
    day_k = day.value
    gumm_n = gumm.value
    two_r = day_k + (day_k % 2)
    if two_r != day_k:
        # rounding is backed by an actual extended chain
        ext = extend_chain(day.chain)
        if not verify_chain(a, ext).valid:
            raise AssertionError("Day chain extension failed verification")

    report.update({"modular": True, "dayK": day_k, "gummN": gumm_n,
                   "jonssonN": jonsson.value,
                   "dayTerms": day_k + 1, "gummTerms": gumm_n + 2})

    # in this order: PWContext skips a build once a smaller one failed
    cells = [(fam, "m", m) for m in DAY_MS for fam in ("DAY", "DAY_REV")]
    cells += [("DSTAR", "l", l) for l in DSTAR_LS] + [("TSCHANTZ", "m", 2)]
    spectra = {(fam, m): spectrum(a, fam, cap=scan_cap, params={p: m},
                                  ctx=ctx).bound for fam, p, m in cells}
    report["spectra"] = [
        {"family": fam, "m": m, "value": _shown(b), "level": "variety"}
        for (fam, m), b in sorted(spectra.items())]

    # -- bounds ------------------------------------------------------------
    r = two_r // 2
    n = gumm_n
    rows = []

    def add_row(name, params, family, m, claimed, measured: Bound):
        rows.append({"name": name, "params": params, "family": family,
                     "m": m, "claimed": claimed, "measured": _shown(measured),
                     "status": _status(measured, claimed)})

    def add(name, **params):
        try:
            b = bound(name, **params)
        except BoundError:
            return
        if b.kind == SPECTRUM:
            add_row(name, dict(b.params), b.family, b.lhs, b.rhs,
                    spectra.get((b.family, b.lhs), Bound(0)))
        elif b.kind == TERMS:
            add_row(name, dict(b.params), "gumm terms", None, b.rhs,
                    Bound(n + 2, n + 2))
        elif b.kind == IDENTITY:
            ident_name, ident_params = b.identity
            entry = get_entry(ident_name)
            try:
                holds = pw_check(ctx, entry.identity(**ident_params))
                measured = "holds" if holds else "refuted"
                status = PASS if holds else FAIL
            except CapExceeded:
                measured, status = UNCHECKED, UNCHECKED
            rows.append({"name": name, "params": dict(b.params),
                         "family": ident_name, "m": b.lhs, "claimed": "holds",
                         "measured": measured, "status": status})

    for q in (1, 2, 3):
        add("THM", r=r, q=q)
    for i in (0, 1):
        add("THM2", h=2, r=r, i=i)  # silently skipped when r = 1
    if day_k <= 3:
        for m in DAY_MS:
            add("SMALL_I", m=m)
    if day_k <= 4:
        for q in (2, 3):
            add("SMALL_II", q=q)
    for q in (1, 2):
        add("QKMOD_I", q=q, n=n)
    for q in (2, 3):
        add("QKMOD_II", q=q, n=n)
    for p in (1, 2):
        add("QKMOD2", h=1, t=two_r, n=n, p=p)
    for p, q in ((1, 1), (2, 1), (1, 2)):
        add("COMB", r=r, n=n, p=p, q=q)
    add("NUMD", n=n)
    # the reversed bound needs an even defective chain; pad the measured
    # Gumm chain and re-verify before claiming it
    padded_gumm = pad_to_even(a, gumm.chain)
    if verify_chain(a, as_defective(padded_gumm)).valid:
        add("NUMDD", n=padded_gumm.param)
    for l in DSTAR_LS:
        add("DST", l=l, r=r)
    add("LTT", k=day_k)  # skipped for the degenerate k = 1
    add("BBB", n=max(1, n))
    for q in (1, 2):
        add("AGTCOR2", r=1, s=max(1, 2 * n), n=n, q=q)

    if jonsson.found:
        padded = pad_to_even(a, jonsson.chain)
        dm = bound("DM", n=padded.param)
        add_row("DM", {**dict(dm.params),
                       "transformed_day_k": jonsson_to_day(a, padded).param},
                dm.family, dm.lhs, dm.rhs, spectra[dm.family, dm.lhs])

    rows.sort(key=lambda row: (row["name"], sorted(row["params"].items())))
    report["bounds"] = rows

    # -- structural crosschecks ---------------------------------------------
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "status": PASS if ok else FAIL,
                       "detail": detail})

    value = {cell: b.value for cell, b in spectra.items()}
    days = {m: value["DAY", m] for m in DAY_MS
            if value["DAY", m] is not None}
    both = {m: (d, value["DAY_REV", m]) for m, d in days.items()
            if value["DAY_REV", m] is not None}
    check("day_rev_gap", all(abs(d - dr) <= 1 for d, dr in both.values()),
          both)
    check("day_rev_even_roundup_coincide",
          all(d + (d % 2) == dr + (dr % 2)
              for m, (d, dr) in both.items() if m % 2 == 1),
          {m: v for m, v in both.items() if m % 2 == 1})
    ms = sorted(days)
    check("day_nondecreasing",
          all(days[ms[i]] <= days[ms[i + 1]] for i in range(len(ms) - 1)),
          days)
    check("day_step_at_most_one_for_odd_m",
          all(days[m + 1] <= days[m] + 1 for m in ms
              if m % 2 == 1 and m + 1 in days), days)
    if value["DSTAR", 1] is not None and 3 in days:
        check("dstar1_equals_day3", value["DSTAR", 1] == days[3],
              {"dstar1": value["DSTAR", 1], "day3": days[3]})
    tschantz2 = _shown(spectra["TSCHANTZ", 2])
    check("tschantz2_equals_gumm_n", tschantz2 == gumm_n,
          {"tschantz2": tschantz2, "gummN": gumm_n})
    check("day_k_le_2n_plus_2", day_k <= 2 * gumm_n + 2,
          {"dayK": day_k, "gummN": gumm_n})
    if day_k >= 2:
        check("gumm_count_le_ltt", gumm_n + 2 <= day_k * day_k - day_k + 1,
              {"gummTerms": gumm_n + 2, "dayK": day_k})
    report["crosschecks"] = checks

    report["ok"] = (all(row["status"] != FAIL for row in rows)
                    and all(c["status"] != FAIL for c in checks))
    return report
