"""modbench benchmark: three workloads, timed end to end and per layer.

One run, as the benchmark contract in BENCHMARK.json defines it::

    python3 bench/run.py --workload verify_corpus --seed 0 --seconds 30 --trace 0

runs passes of the workload's fixed operation list in this one process until
``--seconds`` would be exceeded (at least one pass), checks every outcome
against ``bench/reference.json`` and prints, as the last stdout line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace
1`` (one untraced pass first, for ``trace.overhead_s``).  End-to-end times
are in reference seconds: scaled by a calibration kernel timed while the
operations run, so that a run is comparable with one made while the shared
host was faster or slower (see ``bench/calibrate.py``).

Everything, each workload in a fresh interpreter, with a summary table and
the check that traced counts repeat exactly::

    python3 bench/run.py --all

Rewrite the reference outputs from the current code (one pass per
workload, seed 0)::

    python3 bench/run.py --write-reference
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("verify_corpus", "concrete_spectra", "random_terms")
SETUP_PROBES = 11
SETUP_KERNEL_RUNS = 40
# the calibration kernel each workload's passes are scaled by, the one like
# its hot loop; set-up, mostly imports, is scaled by "sets" everywhere (see
# bench/README.md)
KERNEL = {"verify_corpus": "sets", "concrete_spectra": "bitrows",
          "random_terms": "sets"}
SETUP_KERNEL = "sets"
EXIT_BROKEN = 2

sys.path.insert(0, str(BENCH))
import workloads as wl  # noqa: E402  (sits beside this file)
import calibrate  # noqa: E402
from tracer import TraceError, Tracer  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def import_modbench():
    """Import the package from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "modbench" / "__init__.py").is_file():
        raise BenchError(f"no modbench package under {src}")
    sys.path.insert(0, str(src))
    import modbench
    import modbench.catalog, modbench.chains, modbench.checks  # noqa: E401
    import modbench.relations, modbench.report, modbench.witness  # noqa: E401
    if Path(modbench.__file__).resolve().parent != src / "modbench":
        raise BenchError(f"imported modbench from {modbench.__file__}")
    return modbench


def declared_metrics():
    """(end_to_end, per_layer) name -> unit, as BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# Machine block


def machine():
    import numpy
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_before": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# Set-up time: interpreter start to inputs loaded, in fresh interpreters


def setup_probe(workload, seed):
    """Load the inputs, then time the kernel in this process: the host
    speed right after the interval measured, as a scale."""
    mb = import_modbench()
    wl.make_ops(mb, workload, seed)
    loaded = time.monotonic()
    print(loaded, calibrate.burst(SETUP_KERNEL, SETUP_KERNEL_RUNS))


def measure_setup(workload, seed):
    """Median set-up time of the probes, raw and in reference seconds.

    Each probe's time is scaled by the kernel runs it makes right after it.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        loaded, scale = map(float, out.stdout.split()[-2:])
        raw.append(loaded - start)
        scaled.append(raw[-1] * scale)
    return statistics.median(raw), statistics.median(scaled)


# ---------------------------------------------------------------------------
# Passes


def clear_caches(mb):
    """Each pass starts cold: module-level caches empty, garbage gone."""
    cache = getattr(mb.checks, "_REL_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()
    gc.collect()


def run_pass(mb, ops, tracer=None, cal=None):
    """One pass.  With ``cal``, kernel samples are taken while it runs; the
    latencies leave their time out and are also given in reference seconds
    (``scaled``)."""
    clear_caches(mb)
    latency, outcomes, spans = {}, {}, {}
    calibrated = cal is not None
    clock = time.perf_counter
    begin = clock()
    if tracer is not None:
        tracer.install()
    try:
        with cal.sampling() if calibrated else contextlib.nullcontext():
            for op in ops:
                spent = cal.spent if calibrated else 0.0
                start = clock()
                try:
                    outcomes[op.key] = op.run()
                except Exception:  # an undeclared error: a failed operation
                    outcomes[op.key] = wl.Outcome(
                        "error", detail=traceback.format_exc(limit=3))
                end = clock()
                spans[op.key] = (start, end)
                latency[op.key] = end - start - (
                    cal.spent - spent if calibrated else 0.0)
            if calibrated:
                time.sleep(calibrate.PAD_S)  # samples after the last op
    finally:
        if tracer is not None:
            tracer.uninstall()
    scaled = None
    if calibrated:
        scaled = {k: t * cal.scale(*spans[k]) for k, t in latency.items()}
    return {"wall": sum(latency.values()), "elapsed": clock() - begin,
            "latency": latency, "scaled": scaled, "outcomes": outcomes,
            "tracer": tracer}


def run_passes(mb, ops, seconds, trace, cal):
    """Untraced passes, calibrated by ``cal``; with ``trace`` (and no
    ``cal``) one untraced pass, then traced ones."""
    begin = time.perf_counter()

    def fits(passes):
        typical = statistics.median(p["elapsed"] for p in passes)
        return time.perf_counter() - begin + typical <= seconds

    plain = [run_pass(mb, ops, cal=cal)]
    while not trace and fits(plain):
        plain.append(run_pass(mb, ops, cal=cal))
    traced = []
    if trace:
        traced.append(run_pass(mb, ops, Tracer()))
        while fits(traced):
            traced.append(run_pass(mb, ops, Tracer()))
    return plain, traced


def op_tail(passes, times):
    """Mean of the slowest 5 % of operations (at least one), each operation
    at its median over the passes.  Single refused builds vary by 20-30 %
    between runs; a rank statistic such as p95 inherits that."""
    per_op = [statistics.median(p[times][k] for p in passes)
              for k in passes[0][times]]
    return statistics.fmean(sorted(per_op)[-max(1, -(-len(per_op) // 20)):])


def end_to_end(passes, setup_s):
    """End-to-end metrics; the times in reference seconds."""
    walls = [sum(p["scaled"].values()) for p in passes]
    first = passes[0]["outcomes"].values()
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_tail_ms": (op_tail(passes, "scaled") * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
        "undecided": (sum(o.undecided for o in first), "count"),
    }


def per_layer(workload, plain, traced):
    for p in traced:
        p["tracer"].check_entered(workload)
    layers = [p["tracer"].layer_metrics() for p in traced]
    out = {}
    for name, (_, unit) in layers[0].items():
        values = [m[name][0] for m in layers]
        out[name] = (statistics.median(values), unit)
    overhead = (statistics.median(p["wall"] for p in traced)
                - statistics.median(p["wall"] for p in plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out, layers


def self_check(passes, layers):
    """Outcomes, and traced counts, must repeat exactly between passes."""
    problems = []
    first = {k: o.value for k, o in passes[0]["outcomes"].items()}
    for i, p in enumerate(passes[1:], 2):
        if {k: o.value for k, o in p["outcomes"].items()} != first:
            problems.append(f"pass {i} outcomes differ from pass 1")
    for i, m in enumerate(layers[1:], 2):
        for name, (value, unit) in m.items():
            if unit == "count" and value != layers[0][name][0]:
                problems.append(f"traced pass {i}: {name} {value} != "
                                f"{layers[0][name][0]}")
    return problems


def gate(workload, passes, reference, verify_chain):
    failed, errors = 0, []
    for p in passes:
        for key, out in p["outcomes"].items():
            errs = wl.check_outcome(workload, key, out, reference,
                                    verify_chain)
            if errs:
                failed += 1
                errors.extend(errs)
    return failed, errors


def one_run(args):
    mb = import_modbench()
    e2e_units, layer_units = declared_metrics()
    reference = json.loads(REFERENCE.read_text())
    info = machine()
    cal = None if args.trace else calibrate.Calibrator(KERNEL[args.workload])
    if not args.trace:
        raw_setup_s, setup_s = measure_setup(args.workload, args.seed)
    verify_chain = mb.chains.verify_chain     # bound before any wrapping
    ops = wl.make_ops(mb, args.workload, args.seed)
    plain, traced = run_passes(mb, ops, args.seconds, args.trace, cal)
    passes = plain + traced
    failed, errors = gate(args.workload, passes, reference, verify_chain)

    if args.trace:
        metrics, layers = per_layer(args.workload, plain, traced)
        declared = layer_units
    else:
        metrics, layers = end_to_end(plain, setup_s), []
        declared = e2e_units
    if {n: u for n, (_, u) in metrics.items()} != declared:
        raise BenchError("metrics differ from those BENCHMARK.json declares")
    problems = self_check(passes, layers)

    info["loadavg_after"] = list(os.getloadavg())
    info["passes"] = {"untraced": len(plain), "traced": len(traced)}
    if not args.trace:
        # the same figures unscaled, and the host speed they were scaled by
        info["raw"] = {
            "setup_s": raw_setup_s,
            "wall_s": statistics.median(p["wall"] for p in plain),
            "op_tail_ms": op_tail(plain, "latency") * 1e3,
            "kernel_ms": statistics.median(cal.times) * 1e3}
    print("machine " + json.dumps(info, sort_keys=True))
    for line in errors[:20]:
        print("FAILED " + line)
    for line in problems:
        print("BENCHMARK DEFECT " + line)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:17s} {name:26s} {value:>14.6g} {unit}")
    attempted = sum(len(p["outcomes"]) for p in passes)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0


# ---------------------------------------------------------------------------
# Everything in one command


def run_all(args):
    cmd = [sys.executable, str(BENCH / "run.py"), "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    ok = True
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            proc = subprocess.run(cmd + ["--workload", workload, "--trace",
                                         str(trace)],
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise BenchError(f"{workload} --trace {trace} exited "
                                 f"{proc.returncode}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        ok &= all(r["correct"] for r in results)
        first, second = results[1]["metrics"], results[2]["metrics"]
        for name, m in first.items():
            if m["unit"] == "count" and m["value"] != second[name]["value"]:
                ok = False
                print(f"BENCHMARK DEFECT {workload}: {name} is "
                      f"{m['value']} then {second[name]['value']} on the "
                      f"same commit and seed")
    print("all workloads correct, counts repeat" if ok else "FAILURES above")
    return 0 if ok else 1


def write_reference():
    mb = import_modbench()
    verify_chain = mb.chains.verify_chain
    out = {}
    for workload in WORKLOADS:
        p = run_pass(mb, wl.make_ops(mb, workload, 0))
        ref = {}
        for key, o in p["outcomes"].items():
            if o.value == "error":
                raise BenchError(f"{workload} {key}: {o.detail}")
            if any(not verify_chain(o.algebra, c).valid for c in o.chains):
                raise BenchError(f"{workload} {key}: invalid chain")
            if workload == "verify_corpus":
                ref[key] = o.detail
            else:
                ref[key] = o.value
        out[workload] = dict(sorted(ref.items()))
        print(f"{workload}: {len(ref)} outcomes, {p['wall']:.1f} s")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def pin_hash_seed():
    """Re-execute with a fixed string-hash seed.

    Set and dict orders of strings follow the hash seed, and with it some of
    the library's work (a 38 vs 52 ms report for pixley3 in two processes);
    a fixed seed takes that noise out of every run and set-up probe.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.all:
            return run_all(args)
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        return one_run(args)
    except (BenchError, TraceError, OSError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return EXIT_BROKEN


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
