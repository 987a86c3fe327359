"""Call-site tracer for the per-layer metrics.

Library functions are wrapped where they are looked up: ``checks.build_free``
and ``chains.build_free`` are separate bindings of one function, and each is
patched on its own.  Every wrapped call is a span whose parent is the span
open when it started.  Spans are folded on the fly into per-name totals:
calls, seconds, self seconds (duration minus child spans) and the outcome
counters kept by the observers below.

A binding that no longer exists aborts the run (``TraceError``), and so does
a layer the workload is expected to enter but never did, rather than letting
the layer read as a silent zero.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


class TraceError(RuntimeError):
    pass


class SpanStats:
    __slots__ = ("calls", "total", "self", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.counts = Counter()


# (module, attribute path, span name); class attributes are patched on the
# class, so every instance looks up the wrapper.
BINDINGS = (
    ("modbench.report", "consistency_report", "report"),
    ("modbench.report", "spectrum", "spectrum"),
    ("modbench.checks", "spectrum", "spectrum"),
    ("modbench.report", "pw_check", "pw_check"),
    ("modbench.checks", "pw_check", "pw_check"),
    ("modbench.checks", "PWContext.free", "ctx_free"),
    ("modbench.checks", "build_free", "build_free"),
    ("modbench.chains", "build_free", "build_free"),
    ("modbench.free", "FreeAlgebra.gen_pair_congruence", "partition"),
    ("modbench.checks", "saturate", "saturate"),
    ("modbench.chains", "saturate", "saturate"),
    ("modbench.checks", "meet_labels", "meet_labels"),
    ("modbench.chains", "meet_labels", "meet_labels"),
    ("modbench.checks", "check_concrete", "check_concrete"),
    ("modbench.checks", "enumerate_relations", "enumerate_relations"),
    ("modbench.checks", "generate", "generate"),
    ("modbench.checks", "compose", "compose"),
    ("modbench.relations", "compose", "compose"),
    ("modbench.checks", "meet", "meet"),
    ("modbench.report", "search_day", "search"),
    ("modbench.report", "search_gumm", "search"),
    ("modbench.report", "search_jonsson", "search"),
    ("modbench.chains", "search_day", "search"),
    ("modbench.chains", "search_gumm", "search"),
    ("modbench.chains", "search_jonsson", "search"),
    ("modbench.report", "verify_chain", "verify_chain"),
    ("modbench.chains", "verify_chain", "verify_chain"),
    ("modbench.witness", "verify_chain", "verify_chain"),
    ("modbench.report", "pad_to_even", "witness"),
    ("modbench.report", "jonsson_to_day", "witness"),
    ("modbench.witness", "pad_to_even", "witness"),
    ("modbench.witness", "jonsson_to_day", "witness"),
)

# spans each workload must enter at least once per traced pass
EXPECTED = {
    "verify_corpus": ("report", "spectrum", "pw_check", "ctx_free",
                      "build_free", "partition", "saturate", "meet_labels",
                      "search", "verify_chain", "witness"),
    "concrete_spectra": ("spectrum", "check_concrete", "enumerate_relations",
                         "generate", "compose", "meet"),
    "random_terms": ("build_free", "partition", "saturate", "meet_labels",
                     "search", "verify_chain", "witness"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack = [0.0]      # child seconds of each open span; root first
        self._undo = []
        self._cap_exceeded = None

    def install(self):
        missing = []
        targets = []
        for module_name, path, span in BINDINGS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                missing.append(f"{module_name}.{path}")
            else:
                targets.append((owner, attr, fn, span))
        if missing:
            raise TraceError("wrapped names are missing: " + ", ".join(missing))
        self._cap_exceeded = importlib.import_module("modbench.free").CapExceeded
        for owner, attr, fn, span in targets:
            setattr(owner, attr, self._wrap(fn, span))
            self._undo.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def check_entered(self, workload):
        idle = [s for s in EXPECTED[workload]
                if s not in self.stats or not self.stats[s].calls]
        if idle:
            raise TraceError(f"{workload}: traced layers never entered: "
                             + ", ".join(idle) + "; a call site moved")

    def _wrap(self, fn, span):
        st = self.stats.setdefault(span, SpanStats())
        observe = getattr(self, "_observe_" + span, None)
        builds = self.stats.setdefault("build_free", SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            builds_before = builds.calls
            stack.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dur = clock() - start
                child = stack.pop()
                stack[-1] += dur
                st.calls += 1
                st.total += dur
                st.self += dur - child
                if observe is not None:
                    observe(st.counts, result, exc, dur,
                            builds.calls - builds_before)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers: outcome counters per span --------------------------------

    def _observe_build_free(self, c, result, exc, dur, _):
        if exc is None:
            c["ok"] += 1
            c["ok_s"] += dur
            c["elements"] += result.n_elements
            c["coords"] += result.vecs.shape[1]
            c["vec_bytes"] += result.vecs.nbytes
        elif isinstance(exc, self._cap_exceeded):
            c["refused"] += 1
            c["refused_s"] += dur
            c["refused_elements"] += exc.elements_reached

    def _observe_ctx_free(self, c, result, exc, dur, builds):
        if exc is None and builds == 0:
            c["hits"] += 1

    def _observe_check_concrete(self, c, result, exc, dur, _):
        if exc is None:
            c["envs"] += result.envs_checked

    def _observe_enumerate_relations(self, c, result, exc, dur, _):
        if exc is None:
            c["relations"] += len(result)

    def _observe_search(self, c, result, exc, dur, _):
        if exc is not None:
            c["capped"] += isinstance(exc, self._cap_exceeded)
        elif result.found:
            c["found"] += 1
        elif result.proven_absent:
            c["absent"] += 1
        else:
            c["capped"] += 1     # scan limit reached

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Name -> (value, unit); a layer never entered reads 0."""
        def st(name):
            return self.stats.get(name) or SpanStats()

        free = st("build_free").counts
        done_s, refused_s = float(free["ok_s"]), float(free["refused_s"])
        out = {
            "free.build_s": (done_s, "s"),
            "free.builds": (free["ok"], "count"),
            "free.elements": (free["elements"], "count"),
            "free.coords": (free["coords"], "count"),
            "free.vec_bytes": (free["vec_bytes"], "B"),
            "free.refused_s": (refused_s, "s"),
            "free.refusals": (free["refused"], "count"),
            "free.refused_elements": (free["refused_elements"], "count"),
            "free.useful_share": (done_s / (done_s + refused_s)
                                  if done_s + refused_s else 0.0, "ratio"),
            "partition.calls": (st("partition").calls, "count"),
            "partition.s": (st("partition").total, "s"),
            "walk.saturate_calls": (st("saturate").calls, "count"),
            "walk.saturate_s": (st("saturate").total, "s"),
            "walk.meet_calls": (st("meet_labels").calls, "count"),
            "walk.meet_s": (st("meet_labels").total, "s"),
            "checks.pw_checks": (st("pw_check").calls, "count"),
            "checks.pw_self_s": (st("pw_check").self, "s"),
            "checks.ctx_free_calls": (st("ctx_free").calls, "count"),
            "checks.ctx_free_hits": (st("ctx_free").counts["hits"], "count"),
            "concrete.calls": (st("check_concrete").calls, "count"),
            "concrete.envs": (st("check_concrete").counts["envs"], "count"),
            "concrete.self_s": (st("check_concrete").self, "s"),
            "concrete.enumerate_s": (st("enumerate_relations").total, "s"),
            "concrete.relations": (
                st("enumerate_relations").counts["relations"], "count"),
            "relations.generate_calls": (st("generate").calls, "count"),
            "relations.generate_s": (st("generate").total, "s"),
            "relations.compose_calls": (st("compose").calls, "count"),
            "relations.compose_s": (st("compose").total, "s"),
            "relations.meet_calls": (st("meet").calls, "count"),
            "relations.meet_s": (st("meet").total, "s"),
            "chains.searches": (st("search").calls, "count"),
            "chains.search_self_s": (st("search").self, "s"),
            "chains.found": (st("search").counts["found"], "count"),
            "chains.absent": (st("search").counts["absent"], "count"),
            "chains.capped": (st("search").counts["capped"], "count"),
            "chains.verify_chain_calls": (st("verify_chain").calls, "count"),
            "chains.verify_chain_s": (st("verify_chain").total, "s"),
            "witness.calls": (st("witness").calls, "count"),
            "witness.s": (st("witness").total, "s"),
            "report.self_s": (st("report").self, "s"),
        }
        return out
