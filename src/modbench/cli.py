"""Batch front end.

Subcommands: ``alg info``, ``free``, ``terms``, ``check``, ``spectrum``,
``bounds``, ``verify``.  Exit codes: 0 all checks passed / value computed,
1 identity refuted or bound failed, 2 usage error, 3 cap exceeded.

Inputs name either a file path or a bundled corpus algebra (one, z2,
lattice2, chain3, semilattice2, pixley3).  All computation lives in the
library; this module only parses arguments and formats results.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys

from .algebras import AlgebraError, FiniteAlgebra, parse_algebra
from .bounds import BoundError, bound, bound_names
from .catalog import VARIETY, CATALOG, CatalogError, get_entry, level_of
from .chains import search_day, search_gumm, search_jonsson
from .checks import CheckError, PWContext, check_concrete, pw_check, spectrum
from .dsl import DslError, identity_str, parse_identity
from .free import CapExceeded, build_free, term_str
from .relations import CONGRUENCE, GuardExceeded, enumerate_relations
from .report import consistency_report

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# The most values of a parameter one spectrum command scans; its rows are
# kept until the scan ends.
MAX_SCAN = 10_000
# The most congruences ``alg info`` lists; past it, it says so.  A
# 9-element set with the identity operation has 21,147, which took about
# 40 s to list, and 1,001 take 0.02 s.
MAX_LISTED_CONGRUENCES = 1000


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def load_algebra(source: str) -> FiniteAlgebra:
    if os.path.exists(source):
        with open(source) as handle:
            return parse_algebra(handle.read())
    name = source[:-4] if source.endswith(".alg") else source
    resource = importlib.resources.files("modbench") / "data" / f"{name}.alg"
    if resource.is_file():
        return parse_algebra(resource.read_text())
    raise AlgebraError(f"no such file or bundled algebra: {source}")


def _parse_params(pairs) -> dict:
    """NAME=VALUE items as a dict; a name given twice is a usage error."""
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"parameter {key!r} is given twice")
        try:
            out[key] = int(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} needs an integer, got "
                             f"{value!r}") from None
    return out


def _caps_kwargs(args) -> dict:
    out = {}
    for cap in ("cap_entries", "work_budget"):
        value = getattr(args, cap, None)
        if value is not None:
            if value < 0:
                flag = "--" + cap.replace("_", "-")
                raise ValueError(f"{flag} must be nonnegative: {value}")
            out[cap] = value
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_alg(args) -> int:
    a = load_algebra(args.file)
    info = {"name": a.name, "size": a.size,
            "ops": [{"name": n, "arity": r} for n, r in a.signature.ops]}
    try:
        congs = enumerate_relations(a, CONGRUENCE,
                                    MAX_LISTED_CONGRUENCES + 1)
        if len(congs) > MAX_LISTED_CONGRUENCES:
            raise GuardExceeded(
                f"more than {MAX_LISTED_CONGRUENCES} congruences")
        info["congruences"] = len(congs)
        info["congruenceRows"] = [c.to_bitstrings() for c in congs]
    except GuardExceeded as exc:
        info["congruences"] = f"skipped: {exc}"
    if args.json:
        print(_dump(info))
    else:
        ops = ", ".join(f"{n}/{r}" for n, r in a.signature.ops)
        print(f"algebra {a.name}: size {a.size}, ops {ops}")
        print(f"congruences: {info['congruences']}")
    return EXIT_OK


def cmd_free(args) -> int:
    a = load_algebra(args.file)
    f = build_free(a, args.generators, **_caps_kwargs(args))
    out = {"algebra": a.name, "generators": args.generators,
           "elements": f.n_elements, "tupleCount": f.tuple_count}
    if args.witnesses:
        out["witnesses"] = [term_str(f.term_of(e))
                            for e in range(f.n_elements)]
    if args.json:
        print(_dump(out))
    else:
        print(f"F({a.name}, {args.generators}): {f.n_elements} elements "
              f"over {f.tuple_count} assignments")
        if args.witnesses:
            for e, w in enumerate(out["witnesses"]):
                print(f"  {e}: {w}")
    return EXIT_OK


def cmd_terms(args) -> int:
    a = load_algebra(args.file)
    caps = _caps_kwargs(args)
    if args.scheme == "day":
        res = search_day(a, k_max=args.max, **caps)
    elif args.scheme == "gumm":
        res = search_gumm(a, n_max=args.max, **caps)
    else:
        res = search_jonsson(a, n_max=args.max,
                             alvin=args.scheme == "alvin", **caps)
    out = {"algebra": a.name, "scheme": res.scheme, "found": res.found,
           "value": res.value, "provenAbsent": res.proven_absent,
           "freeElements": res.free_elements}
    if res.found:
        out["terms"] = res.chain.describe()
    if args.json:
        print(_dump(out))
    else:
        print(f"{a.name} {res.scheme}: {res.describe()}")
        if res.found:
            for i, t in enumerate(out["terms"]):
                print(f"  t{i}: {t}")
    return EXIT_OK if res.found or res.proven_absent else EXIT_REFUTED


def cmd_check(args) -> int:
    a = load_algebra(args.file)
    params = _parse_params(args.param)
    if args.idl:
        if params:
            raise ValueError("--param applies to catalog identities only, "
                             "not to --idl")
        with open(args.idl) as handle:
            ident = parse_identity(handle.read().strip())
    else:
        ident = get_entry(args.identity).identity(**params)
    mode = args.mode or ("pw" if level_of(ident) == VARIETY else "concrete")
    out = {"algebra": a.name, "identity": ident.name,
           "statement": identity_str(ident), "mode": mode, "k": args.k}
    if mode == "pw":
        ctx = PWContext(a, **_caps_kwargs(args))
        holds = pw_check(ctx, ident, k=args.k)
        out["holds"] = holds
        out["level"] = "variety"
    else:
        res = check_concrete(a, ident, k=args.k)
        out["holds"] = res.holds
        out["level"] = "algebra"
        out["complete"] = True
        out["envsChecked"] = res.envs_checked
        if res.counterexample is not None:
            out["counterexample"] = {
                name: rel.to_bitstrings()
                for name, rel in sorted(res.counterexample.items())}
    if args.json:
        print(_dump(out))
    else:
        verdict = "holds" if out["holds"] else "refuted"
        scope = ("throughout the generated variety" if mode == "pw"
                 else "on this algebra")
        print(f"{ident.name} on {a.name}: {verdict} {scope}")
        print(f"  {out['statement']}" + (f"  [k={args.k}]"
                                         if args.k is not None else ""))
        if not out["holds"] and "counterexample" in out:
            for name, rows in out["counterexample"].items():
                print(f"  {name}: {' '.join(rows)}")
    return EXIT_OK if out["holds"] else EXIT_REFUTED


def cmd_spectrum(args) -> int:
    a = load_algebra(args.file)
    entry = get_entry(args.family)
    params = _parse_params(args.param)
    ctx = PWContext(a, **_caps_kwargs(args))
    if entry.params:
        primary = entry.params[0][0]
        if primary in params:
            raise ValueError(f"{args.family} scans {primary} over "
                             f"--m-from/--m-to, not --param")
        m_lo = args.m_from if args.m_from is not None else entry.params[0][1]
        m_hi = args.m_to if args.m_to is not None else m_lo
        if m_hi < m_lo:
            raise ValueError(f"--m-to {m_hi} is below --m-from {m_lo}")
        if m_hi - m_lo >= MAX_SCAN:
            raise ValueError(f"--m-from {m_lo} --m-to {m_hi} spans "
                             f"{m_hi - m_lo + 1} values; one spectrum scans "
                             f"at most {MAX_SCAN}")
        ms = range(m_lo, m_hi + 1)
    elif args.m_from is not None or args.m_to is not None:
        raise CatalogError(f"{args.family} has no parameter for "
                           f"--m-from/--m-to")
    else:
        primary, ms = None, [None]

    def run(m):
        p = {**params, primary: m} if primary else params
        res = spectrum(a, args.family, cap=args.cap, params=p, ctx=ctx)
        row = {"family": args.family, "param": primary, "m": m,
               "level": entry.level, "value": res.value}
        if res.reason is not None:
            # one m over the caps leaves the others decided
            return {**row, "exceeded": None, "unchecked": res.reason}
        return {**row, "exceeded": res.value is None,
                **({"evidence": res.evidence} if res.evidence else {})}

    rows = [run(m) for m in ms]
    if args.json:
        print(_dump({"algebra": a.name, "scan": entry.scan,
                     "results": rows}))
    else:
        for row in rows:
            where = f"{args.family}({row['m']})" if primary else args.family
            val = ("exceeds cap" if row["exceeded"] else
                   f"unchecked ({row['unchecked']})" if "unchecked" in row
                   else row["value"])
            print(f"{a.name} {where}: {entry.scan} = {val} [{row['level']}]")
    if any("unchecked" in row for row in rows):
        return EXIT_CAP
    if any(row["value"] is None for row in rows):
        return EXIT_REFUTED
    return EXIT_OK


PARAM_FLAGS = ("r", "n", "p", "q", "h", "t", "s", "i", "k", "m", "l")


def cmd_bounds(args) -> int:
    value = bound(args.name, **_parse_params(args.param))
    out = {"name": value.name, "params": dict(value.params),
           "kind": value.kind, "lhs": value.lhs, "rhs": value.rhs,
           "premise": value.premise}
    if args.json:
        print(_dump(out))
    else:
        pretty = ", ".join(f"{k}={v}" for k, v in value.params)
        if value.lhs is not None:
            print(f"{value.name}({pretty}): left length {value.lhs}, "
                  f"claimed bound {value.rhs}   [{value.premise}]")
        else:
            print(f"{value.name}({pretty}): claimed bound {value.rhs}   "
                  f"[{value.premise}]")
    return EXIT_OK


def cmd_verify(args) -> int:
    caps = _caps_kwargs(args)
    reports = []
    for path in args.files:
        a = load_algebra(path)
        reports.append(consistency_report(a, scan_cap=args.scan_cap,
                                          ctx=PWContext(a, **caps)))
    ok = all(rep["ok"] for rep in reports)
    if args.json:
        print(_dump(reports if len(reports) > 1 else reports[0]))
    else:
        for rep in reports:
            print(f"== {rep['algebra']} (size {rep['size']})")
            if not rep.get("modular"):
                print(f"   {rep.get('note', 'not congruence modular')}")
                continue
            print(f"   Day k = {rep['dayK']} ({rep['dayTerms']} terms), "
                  f"Gumm n = {rep['gummN']} ({rep['gummTerms']} terms)")
            for row in rep["spectra"]:
                print(f"   {row['family']}({row['m']}) = {row['value']}")
            for row in rep["bounds"]:
                pretty = ", ".join(f"{k}={v}"
                                   for k, v in sorted(row["params"].items()))
                print(f"   {row['status'].upper():9s} {row['name']}"
                      f"({pretty}): claimed {row['claimed']}, measured "
                      f"{row['measured']}")
            for c in rep["crosschecks"]:
                print(f"   {c['status'].upper():9s} crosscheck {c['name']}")
    return EXIT_OK if ok else EXIT_REFUTED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modbench",
        description="Congruence-modularity workbench: term chains, "
                    "identity checks, spectra, and bound verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_caps(p):
        p.add_argument("--cap-entries", type=int, default=None,
                       help="free-algebra size cap in vector entries")
        p.add_argument("--work-budget", type=int, default=None,
                       help="free-algebra closure work budget")

    p = sub.add_parser("alg", help="inspect an algebra file")
    p.add_argument("command", choices=["info"])
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_alg)

    p = sub.add_parser("free", help="build a free algebra")
    p.add_argument("file")
    p.add_argument("-g", "--generators", type=int, required=True)
    p.add_argument("--witnesses", action="store_true")
    p.add_argument("--json", action="store_true")
    add_caps(p)
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("terms", help="search minimal term chains")
    p.add_argument("file")
    p.add_argument("--scheme", required=True,
                   choices=["day", "gumm", "jonsson", "alvin"])
    p.add_argument("--max", type=int, default=64)
    p.add_argument("--json", action="store_true")
    add_caps(p)
    p.set_defaults(fn=cmd_terms)

    p = sub.add_parser("check", help="decide one identity")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity", choices=sorted(CATALOG))
    group.add_argument("--idl", help="file with a DSL statement")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mode", choices=["pw", "concrete"], default=None)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--json", action="store_true")
    add_caps(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("spectrum", help="scan a spectrum family")
    p.add_argument("file")
    p.add_argument("--family", required=True, choices=sorted(CATALOG))
    p.add_argument("--m-from", type=int, default=None)
    p.add_argument("--m-to", type=int, default=None)
    p.add_argument("--cap", type=int, default=64)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--json", action="store_true")
    add_caps(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("bounds", help="evaluate a bound formula")
    p.add_argument("--name", required=True, choices=bound_names())
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    for flag in PARAM_FLAGS:
        # --r 2 is --param r=2
        p.add_argument(f"--{flag}", dest="param", action="append",
                       type=lambda v, name=flag: f"{name}={v}",
                       help=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="full consistency report")
    p.add_argument("files", nargs="+")
    p.add_argument("--scan-cap", type=int, default=64)
    p.add_argument("--json", action="store_true")
    add_caps(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (AlgebraError, BoundError, CatalogError, CheckError, DslError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
