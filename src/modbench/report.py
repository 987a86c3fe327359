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
from .checks import PWContext, context_for, pw_check, spectrum
from .free import CapExceeded
from .witness import jonsson_to_day, pad_to_even

PASS = "pass"
FAIL = "fail"
UNCHECKED = "unchecked"

UNCHECKED_VALUE = "unchecked"
EXCEEDS_CAP = "exceeds cap"

DAY_MS = range(3, 8)
DSTAR_LS = range(1, 4)


def _measure_spectrum(ctx, a, family, params, cap):
    try:
        res = spectrum(a, family, cap=cap, params=params, ctx=ctx)
    except CapExceeded:
        return UNCHECKED_VALUE
    return res.value if res.value is not None else EXCEEDS_CAP


def _status(measured, claimed, scan_cap):
    if measured == UNCHECKED_VALUE:
        return UNCHECKED
    if measured == EXCEEDS_CAP:
        return FAIL if claimed <= scan_cap else UNCHECKED
    return PASS if measured <= claimed else FAIL


def consistency_report(a: FiniteAlgebra, scan_cap: int = 64,
                       ctx: PWContext | None = None) -> dict:
    """Per-algebra report dictionary; see the module docstring."""
    ctx = context_for(a, ctx)
    report = {"algebra": a.name, "size": a.size}

    try:
        day = search_day(a, k_max=scan_cap, ctx=ctx)
    except CapExceeded as exc:
        report.update({"modular": None, "dayK": None, "gummN": None,
                       "note": f"free algebra caps: {exc}", "spectra": [],
                       "bounds": [], "crosschecks": [], "ok": True})
        return report
    if not day.found:
        report.update({
            "modular": False if day.proven_absent else None,
            "dayK": None, "gummN": None,
            "note": ("not congruence modular (no Day chain exists)"
                     if day.proven_absent else
                     f"no Day chain within scan limit {scan_cap}"),
            "spectra": [], "bounds": [], "crosschecks": [], "ok": True})
        return report

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
                   "jonssonN": jonsson.value if jonsson.found else None,
                   "dayTerms": day_k + 1, "gummTerms": gumm_n + 2})

    spectra = {}
    for m in DAY_MS:
        spectra[("DAY", m)] = _measure_spectrum(ctx, a, "DAY", {"m": m},
                                                scan_cap)
        spectra[("DAY_REV", m)] = _measure_spectrum(ctx, a, "DAY_REV",
                                                    {"m": m}, scan_cap)
    for l in DSTAR_LS:
        spectra[("DSTAR", l)] = _measure_spectrum(ctx, a, "DSTAR", {"l": l},
                                                  scan_cap)
    spectra[("TSCHANTZ", 2)] = _measure_spectrum(ctx, a, "TSCHANTZ",
                                                 {"m": 2}, scan_cap)
    report["spectra"] = [
        {"family": fam, "m": m, "value": val, "level": "variety"}
        for (fam, m), val in sorted(spectra.items())]

    # -- bounds ------------------------------------------------------------
    r = two_r // 2
    n = gumm_n
    rows = []

    def add(name, status=None, **params):
        try:
            b = bound(name, **params)
        except BoundError:
            return
        if b.kind == SPECTRUM:
            measured = spectra.get((b.family, b.lhs), UNCHECKED_VALUE)
            rows.append({"name": name, "params": dict(b.params),
                         "family": b.family, "m": b.lhs, "claimed": b.rhs,
                         "measured": measured,
                         "status": _status(measured, b.rhs, scan_cap)})
        elif b.kind == TERMS:
            measured = n + 2
            rows.append({"name": name, "params": dict(b.params),
                         "family": "gumm terms", "m": None,
                         "claimed": b.rhs, "measured": measured,
                         "status": PASS if measured <= b.rhs else FAIL})
        elif b.kind == IDENTITY:
            ident_name, ident_params = b.identity
            entry = get_entry(ident_name)
            try:
                holds = pw_check(ctx, entry.identity(**ident_params))
                measured = "holds" if holds else "refuted"
                status = PASS if holds else FAIL
            except CapExceeded:
                measured, status = UNCHECKED_VALUE, UNCHECKED
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
        day_from_jonsson = jonsson_to_day(a, padded)
        measured = spectra.get(("DAY", 3), UNCHECKED_VALUE)
        claimed = 2 * padded.param
        rows.append({"name": "DM",
                     "params": {"n": padded.param,
                                "transformed_day_k": day_from_jonsson.param},
                     "family": "DAY", "m": 3, "claimed": claimed,
                     "measured": measured,
                     "status": _status(measured, claimed, scan_cap)})

    rows.sort(key=lambda row: (row["name"], sorted(row["params"].items())))
    report["bounds"] = rows

    # -- structural crosschecks ---------------------------------------------
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "status": PASS if ok else FAIL,
                       "detail": detail})

    day_vals = {m: spectra[("DAY", m)] for m in DAY_MS}
    rev_vals = {m: spectra[("DAY_REV", m)] for m in DAY_MS}
    both = {m: (day_vals[m], rev_vals[m]) for m in day_vals
            if isinstance(day_vals[m], int) and isinstance(rev_vals[m], int)}
    check("day_rev_gap",
          all(abs(d - dr) <= 1 for d, dr in both.values()),
          {m: v for m, v in both.items()})
    check("day_rev_even_roundup_coincide",
          all(d + (d % 2) == dr + (dr % 2)
              for m, (d, dr) in both.items() if m % 2 == 1),
          {m: v for m, v in both.items() if m % 2 == 1})
    ints = {m: v for m, v in day_vals.items() if isinstance(v, int)}
    ms = sorted(ints)
    check("day_nondecreasing",
          all(ints[ms[i]] <= ints[ms[i + 1]] for i in range(len(ms) - 1)),
          ints)
    check("day_step_at_most_one_for_odd_m",
          all(ints[m + 1] <= ints[m] + 1 for m in ms
              if m % 2 == 1 and m + 1 in ints), ints)
    if isinstance(spectra[("DSTAR", 1)], int) and isinstance(
            day_vals[3], int):
        check("dstar1_equals_day3", spectra[("DSTAR", 1)] == day_vals[3],
              {"dstar1": spectra[("DSTAR", 1)], "day3": day_vals[3]})
    check("tschantz2_equals_gumm_n", spectra[("TSCHANTZ", 2)] == gumm_n,
          {"tschantz2": spectra[("TSCHANTZ", 2)], "gummN": gumm_n})
    check("day_k_le_2n_plus_2", day_k <= 2 * gumm_n + 2,
          {"dayK": day_k, "gummN": gumm_n})
    if day_k >= 2:
        check("gumm_count_le_ltt", gumm_n + 2 <= day_k * day_k - day_k + 1,
              {"gummTerms": gumm_n + 2, "dayK": day_k})
    report["crosschecks"] = checks

    report["ok"] = (all(row["status"] != FAIL for row in rows)
                    and all(c["status"] != FAIL for c in checks))
    return report
