"""Layer tracing for the traced run: spans recorded around the program's
public entry points, from the benchmark's own code.

Nothing under ``src/`` is changed.  :class:`Tracer` replaces each entry
point of :data:`ENTRY_POINTS` with a wrapper that records a span (layer,
entry point, start, end, parent span, op id) in memory:

* a class method is replaced on its class, so every instance and subclass
  that does not override it goes through the wrapper;
* a module function is replaced at *every* binding of it in a loaded
  ``repro`` module (``from x import f`` makes a second binding that patching
  ``x`` alone would miss, and its calls would silently land in
  ``unattributed_ms``).

A layer's time is **self** time: its spans' durations minus the parts their
child spans cover.  Spans from another thread (the daemon's handler thread)
are roots of their own; their whole duration is taken out of the op span,
which is what leaves ``server.wire_ms`` in the server workload.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

#: (module, class or None, attribute, layer) of every timed entry point
ENTRY_POINTS = [
    ("repro.lang.lexer", "Lexer", "tokenize", "lang.lexer"),
    ("repro.lang.parser", None, "parse_source", "lang.parser"),
    ("repro.lang.parser", None, "parse_tokens", "lang.parser"),
    ("repro.engine.cache", "TreeCache", "get_or_parse", "engine.cache"),
    ("repro.engine.prefilter", None, "scan_token_set", "engine.prefilter"),
    ("repro.engine.prefilter", "TokenIndex", "tokens_of", "engine.prefilter"),
    ("repro.engine.prefilter", "PatchPrefilter", "plan_for",
     "engine.prefilter"),
    ("repro.engine.prefilter", "PatchPrefilter", "scan_query",
     "engine.prefilter"),
    ("repro.engine.prefilter", "PatchPrefilter", "plan_for_text",
     "engine.prefilter"),
    ("repro.engine.pipeline", "PipelinePrefilter", "needs_any_session",
     "engine.prefilter"),
    ("repro.engine.compile", None, "index_for", "engine.compile.index"),
    ("repro.engine.compile", "CompiledRule", "match_all",
     "engine.compile.match"),
    ("repro.engine.transform", "Transformer", "apply_instance",
     "engine.transform"),
    ("repro.engine.edits", "EditSet", "apply", "engine.transform"),
    ("repro.engine.session", "FileSession", "run", "engine.session"),
    ("repro.engine.memo", "TransformMemo", "lookup", "engine.memo"),
    ("repro.engine.memo", "TransformMemo", "store_result", "engine.memo"),
    ("repro.engine.incremental", "IncrementalPipeline", "run",
     "engine.incremental"),
    ("repro.engine.driver", "Driver", "run", "engine.driver"),
    ("repro.engine.pipeline", "PatchPipeline", "run", "engine.pipeline"),
    ("repro.engine.report", "FileResult", "diff", "engine.report"),
    ("repro.server.protocol", None, "result_payload", "server.protocol"),
    ("repro.server.service", "PatchService", "sync_files",
     "server.service.sync"),
    ("repro.server.service", "PatchService", "apply", "server.service"),
    ("repro.server.service", "PatchService", "query", "server.service"),
]

#: time rows: layer -> reported name (``*_ms``, self time per op)
TIME_ROWS = {
    "lang.lexer": "lang.lexer.busy_ms",
    "lang.parser": "lang.parser.self_ms",
    "engine.cache": "engine.cache.self_ms",
    "engine.prefilter": "engine.prefilter.busy_ms",
    "engine.compile.index": "engine.compile.index_ms",
    "engine.compile.match": "engine.compile.match_self_ms",
    "engine.transform": "engine.transform.busy_ms",
    "engine.session": "engine.session.self_ms",
    "engine.memo": "engine.memo.busy_ms",
    "engine.incremental": "engine.incremental.self_ms",
    "engine.driver": "engine.driver.self_ms",
    "engine.pipeline": "engine.pipeline.self_ms",
    "engine.report": "engine.report.diff_ms",
    "server.protocol": "server.protocol.payload_self_ms",
    "server.service.sync": "server.service.sync_ms",
}


def _entry_name(module: str, owner, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{owner}.{attr}" if owner \
        else f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """In-memory span recorder.  ``begin_op``/``end_op`` bracket one op of
    the workload (closed loop: one op in flight at a time), so spans from any
    thread are tagged with the op that caused them."""

    def __init__(self):
        self.spans: list = []  # [id, layer, entry, start, end, parent, op, tid]
        self.ops: list[dict] = []
        self.calls: Counter = Counter()
        self.observed: dict = defaultdict(Counter)  # op id -> counters
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = None
        self._undo: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point.  A module imported later binds the
        wrapper itself, since the defining module's attribute is replaced."""
        for module_name, owner, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            entry = _entry_name(module_name, owner, attr)
            observe = _OBSERVERS.get(entry)
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, layer, entry, observe))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, layer, entry, observe)
            bound = 0
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {entry} to wrap")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, original, layer: str, entry: str, observe):
        tracer = self
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [next(tracer._ids), layer, entry, time.perf_counter_ns(),
                    0, stack[-1][0] if stack else None, tracer._op,
                    threading.get_ident()]
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = time.perf_counter_ns()
                tracer.spans.append(span)
                tracer.calls[entry] += 1
            if observe is not None and span[6] is not None:
                observe(tracer.observed[span[6]], result)
            return result

        return traced

    # -- ops -----------------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.ops.append({"id": len(self.ops), "kind": kind,
                         "start": time.perf_counter_ns(), "wall": 0})
        self._op = self.ops[-1]["id"]

    def end_op(self, wall_s: float) -> None:
        """``wall_s`` is the op's own timed span, which leaves out the cache
        clearing, collection and output checks around it."""
        self.ops[-1]["wall"] = round(wall_s * 1e9)
        self._op = None

    # -- analysis ------------------------------------------------------------

    def op_breakdown(self) -> list[dict]:
        """Per op: wall ms, self ms per layer, counts; the op's own glue
        (wall minus every span of the op, in any thread) is ``op``."""
        children = Counter()
        by_id = {}
        for span in self.spans:
            by_id[span[0]] = span
        for span in self.spans:
            if span[5] is not None:
                children[span[5]] += span[4] - span[3]
        has_parse = set()
        for span in self.spans:
            if span[1] == "lang.parser":
                parent = span[5]
                while parent is not None:
                    has_parse.add(parent)
                    parent = by_id[parent][5]
        rows = []
        per_op_spans = defaultdict(list)
        for span in self.spans:
            if span[6] is not None:
                per_op_spans[span[6]].append(span)
        for op in self.ops:
            wall = op["wall"]
            self_ns = Counter()
            counts = Counter(self.observed.get(op["id"], {}))
            rooted = 0
            for span in per_op_spans.get(op["id"], ()):
                self_ns[span[1]] += span[4] - span[3] - children[span[0]]
                counts["calls." + span[2]] += 1
                if span[5] is None:
                    rooted += span[4] - span[3]
                if span[2] == "cache.TreeCache.get_or_parse" \
                        and span[0] not in has_parse:
                    counts["cache_hits"] += 1
            self_ns["op"] = wall - rooted
            rows.append({"kind": op["kind"], "wall_ms": wall / 1e6,
                         "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
                         "counts": counts})
        return rows

    def write_chrome_trace(self, path) -> None:
        """The spans as Chrome trace JSON (``chrome://tracing``)."""
        events = []
        for op in self.ops:
            events.append({"name": f"op:{op['kind']}", "ph": "X", "pid": 1,
                           "tid": "ops", "ts": op["start"] / 1e3,
                           "dur": op["wall"] / 1e3,
                           "args": {"op": op["id"]}})
        for span in self.spans:
            if span[6] is None:
                continue
            events.append({"name": span[2], "cat": span[1], "ph": "X",
                           "pid": 1, "tid": span[7], "ts": span[3] / 1e3,
                           "dur": (span[4] - span[3]) / 1e3,
                           "args": {"id": span[0], "parent": span[5],
                                    "op": span[6]}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


# -- counts observed from return values (measured where the work happens) ---

def _observe_memo_lookup(counts: Counter, entry) -> None:
    counts["memo_lookups"] += 1
    counts["memo_hits"] += entry is not None


def _observe_incremental(counts: Counter, result) -> None:
    stats = result.incremental
    counts["incremental_files"] += stats.files_total
    counts["incremental_reused"] += stats.files_reused


def _observe_pipeline(counts: Counter, result) -> None:
    stats = result.stats
    counts["prefilter_total"] += stats.files_total * stats.patches
    counts["prefilter_skipped"] += stats.sessions_gated


def _observe_driver(counts: Counter, result) -> None:
    stats = result.stats
    counts["prefilter_total"] += stats.files_total
    counts["prefilter_skipped"] += stats.files_skipped


_OBSERVERS = {
    "memo.TransformMemo.lookup": _observe_memo_lookup,
    "incremental.IncrementalPipeline.run": _observe_incremental,
    "pipeline.PatchPipeline.run": _observe_pipeline,
    "driver.Driver.run": _observe_driver,
}


# -- the rows each workload reports -----------------------------------------

#: where the traced run writes its spans (Chrome trace JSON), relative to
#: the checkout root
TRACE_DIR = ".perfbench_traces"

_BATCH_ENTRIES = [
    "lexer.Lexer.tokenize", "parser.parse_source",
    "cache.TreeCache.get_or_parse", "prefilter.TokenIndex.tokens_of",
    "prefilter.PatchPrefilter.plan_for", "compile.index_for",
    "compile.CompiledRule.match_all", "transform.Transformer.apply_instance",
    "edits.EditSet.apply", "session.FileSession.run", "report.FileResult.diff",
]

#: entry points each workload must reach; one that records zero calls means
#: a binding was missed and its time went to ``unattributed_ms``
EXPECTED_ENTRIES = {
    "cold_cookbook": _BATCH_ENTRIES + [
        "pipeline.PatchPipeline.run", "pipeline.PipelinePrefilter.needs_any_session",
        "prefilter.PatchPrefilter.scan_query"],
    "one_patch": _BATCH_ENTRIES + ["driver.Driver.run"],
    "server_session": _BATCH_ENTRIES + [
        "memo.TransformMemo.lookup", "memo.TransformMemo.store_result",
        "incremental.IncrementalPipeline.run", "protocol.result_payload",
        "service.PatchService.sync_files", "service.PatchService.apply",
        "service.PatchService.query"],
}

#: the rows every workload reports, per cycle of its schedule (a cold pass,
#: 12 single-patch applies, or one server edit + query + switch).  A layer a
#: workload never reaches reads 0 there: the batch workloads run no memo,
#: splice, sync or wire code, and only one_patch goes through the driver.
ROWS = [
    "lang.lexer.calls", "lang.lexer.busy_ms",
    "lang.parser.calls", "lang.parser.self_ms",
    "engine.cache.hit_ratio", "engine.cache.self_ms",
    "engine.prefilter.busy_ms", "engine.prefilter.skip_ratio",
    "engine.compile.index_ms", "engine.compile.match_calls",
    "engine.compile.match_self_ms", "engine.transform.busy_ms",
    "engine.session.runs", "engine.session.self_ms",
    "engine.memo.hit_ratio", "engine.memo.busy_ms",
    "engine.incremental.self_ms", "engine.incremental.reuse_ratio",
    "engine.driver.self_ms", "engine.pipeline.self_ms",
    "engine.report.diff_calls", "engine.report.diff_ms",
    "server.protocol.payload_self_ms", "server.service.sync_ms",
    "server.wire_ms", "unattributed_ms", "cycle_ms", "trace_overhead_ms",
]

#: the server session's op kinds.  Each kind gets the rows of its own ops
#: (means per op, ``op_ms`` in place of ``cycle_ms``), all of them 0 on the
#: batch workloads, which have no such ops; the driver and pipeline rows are
#: left out, since no server op reaches them.
KINDS = ("edit", "query", "switch")
KIND_ROWS = [row if row != "cycle_ms" else "op_ms" for row in ROWS
             if row not in ("engine.driver.self_ms",
                            "engine.pipeline.self_ms")]
ALL_ROWS = ROWS + [f"{kind}.{row}" for kind in KINDS for row in KIND_ROWS]


_CALL_ROWS = {
    "lang.lexer.calls": ("calls.lexer.Lexer.tokenize",),
    "lang.parser.calls": ("calls.parser.parse_source",
                          "calls.parser.parse_tokens"),
    "engine.compile.match_calls": ("calls.compile.CompiledRule.match_all",),
    "engine.session.runs": ("calls.session.FileSession.run",),
    "engine.report.diff_calls": ("calls.report.FileResult.diff",),
}
_RATIO_ROWS = {
    "engine.cache.hit_ratio": ("cache_hits", "calls.cache.TreeCache.get_or_parse"),
    "engine.prefilter.skip_ratio": ("prefilter_skipped", "prefilter_total"),
    "engine.memo.hit_ratio": ("memo_hits", "memo_lookups"),
    "engine.incremental.reuse_ratio": ("incremental_reused",
                                       "incremental_files"),
}
_TIME_LAYERS = {row: layer for layer, row in TIME_ROWS.items()}
_TIME_LAYERS["server.wire_ms"] = "op"


def row_unit(row: str) -> str:
    if row.endswith("_ms"):
        return "ms"
    return "ratio" if row.endswith("_ratio") else "count"


def uncovered(workload: str, calls: Counter) -> list[str]:
    return [entry for entry in EXPECTED_ENTRIES[workload] if not calls[entry]]


def layer_metrics(workload: str, breakdown: list[dict],
                  untraced: dict) -> dict:
    """Every row of :data:`ALL_ROWS`: the unprefixed rows per cycle of the
    traced unit, the server's per-kind rows per op of the kind."""
    wire = workload == "server_session"
    cycles = min(Counter(op["kind"] for op in breakdown).values())
    untraced_ms = 1000.0 * sum(sum(walls) for walls in untraced.values())
    values = _rows(breakdown, untraced_ms, cycles, wire)
    for kind in KINDS:
        ops = [op for op in breakdown if op["kind"] == kind]
        rows = _rows(ops, 1000.0 * sum(untraced.get(kind, ())), len(ops),
                     wire)
        rows["op_ms"] = rows.pop("cycle_ms")
        values.update({f"{kind}.{row}": rows[row] for row in KIND_ROWS})
    return {row: {"value": values[row], "unit": row_unit(row)}
            for row in ALL_ROWS}


def _rows(ops: list[dict], untraced_ms: float, per: int, wire: bool) -> dict:
    """The rows of :data:`ROWS` over ``ops``: counts and times divided by
    ``per``, ratios pooled.  The time rows plus ``unattributed_ms`` add up
    to ``cycle_ms`` exactly.  An op's own glue (wall minus its spans) is
    ``server.wire_ms`` when the ops go through the daemon (``wire``), where
    it is the client and socket round trip; otherwise it stays
    unattributed.  No ops give all zeros."""
    if not ops:
        return dict.fromkeys(ROWS, 0.0)
    counts = Counter()
    self_ms = Counter()
    for op in ops:
        counts.update(op["counts"])
        self_ms.update(op["self_ms"])
    time_layers = dict(_TIME_LAYERS)
    if not wire:
        del time_layers["server.wire_ms"]
    values = {}
    for row in ROWS:
        if row in _CALL_ROWS:
            values[row] = sum(counts[k] for k in _CALL_ROWS[row]) / per
        elif row in _RATIO_ROWS:
            hits, total = _RATIO_ROWS[row]
            values[row] = counts[hits] / counts[total] \
                if counts[total] else 0.0
        elif row in _TIME_LAYERS:
            values[row] = self_ms.get(time_layers.get(row), 0.0) / per
    wall = sum(op["wall_ms"] for op in ops) / per
    values["cycle_ms"] = wall
    values["unattributed_ms"] = wall - sum(
        values[row] for row in time_layers)
    values["trace_overhead_ms"] = wall - untraced_ms / per
    return values
