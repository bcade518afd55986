"""Driver: orchestrate a semantic patch across many files.

The driver is the code-base-level layer on top of
:class:`~repro.engine.session.FileSession`:

* it consults the :class:`~repro.engine.prefilter.PatchPrefilter` so files
  that cannot possibly match any rule are answered without parsing (and
  without even creating a session when no script rule could run either);
* it parses through a content-hash-keyed :class:`~repro.engine.cache.TreeCache`
  so repeated applications over unchanged sources never re-parse;
* it can fan the per-file work out over ``jobs`` worker processes
  (Coccinelle's ``--jobs``), re-assembling results in the input file order so
  the outcome is deterministic regardless of scheduling.

Script-rule semantics
---------------------
``initialize:python`` rules run once before any file and ``finalize:python``
rules run once after all files, exactly as in the serial engine.  With
``jobs > 1`` each worker process runs the initialize rules itself so that
``script:python`` rules see the dictionaries they set up; this is identical
to serial application as long as script rules do not *mutate* state shared
across files (true of every cookbook patch — their scripts only read the
translation tables).  Because a finalize rule may legitimately read state
accumulated by per-file scripts, the driver falls back to serial execution
when a patch contains both kinds of rule, rather than silently changing
their meaning.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..obs import registry as _obs
from ..obs import trace as _trace
from ..options import SpatchOptions
from ..smpl.ast import ScriptRule, SemanticPatchAST
from .cache import DEFAULT_TREE_CACHE, TreeCache
from .prefilter import PatchPrefilter, TokenIndex
from .report import FileResult, PatchResult

# worker-aggregated parse-cache children: run_fork_pool merges worker
# telemetry deltas onto these (origin="workers"), which is what lets a
# jobs>1 run report real cache counters instead of "not aggregated"
_M_WORKER_HITS = _obs.REGISTRY.counter(
    "repro_parse_cache_hits_total", "Parse-cache hits",
    cache="tree", origin="workers")
_M_WORKER_MISSES = _obs.REGISTRY.counter(
    "repro_parse_cache_misses_total", "Parse-cache misses (real parses)",
    cache="tree", origin="workers")
_M_RUNS = _obs.REGISTRY.counter(
    "repro_driver_runs_total", "Driver runs (one patch over one tree)")
_M_FILES = _obs.REGISTRY.counter(
    "repro_driver_files_total", "Files considered", outcome="session")
_M_FILES_SKIPPED = _obs.REGISTRY.counter(
    "repro_driver_files_total", "Files considered", outcome="skipped")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import Engine


@dataclass
class DriverStats:
    """Timing/coverage breakdown of one driver run (``--profile``)."""

    files_total: int = 0
    #: files answered without a session (no rule could run there)
    files_skipped: int = 0
    #: (file, rule) pairs the prefilter gated inside surviving sessions
    rules_gated: int = 0
    prefilter: bool = True
    #: the raw request ("auto" / N), before resolution and fallbacks
    jobs_requested: "int | str" = 1
    jobs_used: int = 1
    scan_seconds: float = 0.0
    apply_seconds: float = 0.0
    total_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: where the cache counters came from: "local" (the parent's cache),
    #: "workers" (aggregated from fork-pool telemetry deltas), or
    #: "unavailable" (parallel run with telemetry disabled)
    cache_scope: str = "local"

    @property
    def skip_rate(self) -> float:
        return self.files_skipped / self.files_total if self.files_total else 0.0

    def as_dict(self) -> dict:
        """JSON-able view (the ``--json``/server ``profile`` section)."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["jobs_requested"] = str(self.jobs_requested)
        payload["skip_rate"] = self.skip_rate
        return payload

    def describe(self) -> str:
        lines = [
            f"files: {self.files_total}  skipped without parsing: "
            f"{self.files_skipped} ({self.skip_rate:.0%})",
            f"rule applications gated by prefilter: {self.rules_gated}",
            f"jobs: {self.jobs_used} (requested {self.jobs_requested})  "
            f"prefilter: {'on' if self.prefilter else 'off'}",
            f"token scan: {self.scan_seconds:.3f}s  apply: "
            f"{self.apply_seconds:.3f}s  total: {self.total_seconds:.3f}s",
            "parse cache: per-worker, not aggregated"
            if self.cache_scope == "unavailable"
            else f"parse cache: {self.cache_hits} hit(s), "
                 f"{self.cache_misses} miss(es)"
                 + (" (aggregated from workers)"
                    if self.cache_scope == "workers" else ""),
        ]
        return "\n".join(lines)


def resolve_jobs(jobs) -> int:
    """Normalise a ``jobs`` argument: ``"auto"``/``0``/``None`` mean one
    worker per CPU."""
    if jobs in (None, 0, "auto"):
        return os.cpu_count() or 1
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
    return count


def has_per_file_scripts(patch: SemanticPatchAST) -> bool:
    """True when the patch has ``script:python`` rules that run per file."""
    return any(isinstance(r, ScriptRule) and r.when == "script"
               for r in patch.rules)


def parallel_preserves_semantics(patch: SemanticPatchAST,
                                 options: SpatchOptions) -> bool:
    """Parallel workers re-run initialize themselves but the parent runs
    finalize; a patch combining per-file scripts with a finalize rule may
    aggregate across files, which only serial application preserves."""
    if not options.python_scripting:
        return True
    script_rules = [r for r in patch.rules if isinstance(r, ScriptRule)]
    has_per_file = any(r.when == "script" for r in script_rules)
    has_finalize = any(r.when == "finalize" for r in script_rules)
    return not (has_per_file and has_finalize)


# ---------------------------------------------------------------------------
# worker-process plumbing (module level so it pickles)
# ---------------------------------------------------------------------------

_WORKER_ENGINE: dict = {}


def patch_payload(patch: SemanticPatchAST):
    """What a worker process needs to rebuild ``patch``: its source text when
    available (cheap to pickle, re-parsed once per worker), the AST otherwise.
    Frontend patches ship their format tag with the text so workers re-parse
    with the matching frontend parser, not the SmPL one."""
    fmt = getattr(patch, "format", None)
    if fmt:
        return ("frontend", (fmt, patch.source_text))
    if patch.source_text:
        return ("text", patch.source_text)
    return ("ast", patch)


def ast_from_payload(payload, options: Optional[SpatchOptions]) -> SemanticPatchAST:
    from ..smpl.parser import parse_semantic_patch

    kind, data = payload
    if kind == "text":
        return parse_semantic_patch(data, options=options)
    if kind == "frontend":
        from ..frontends import parse_patch_text

        fmt, text = data
        return parse_patch_text(text, format=fmt, options=options)
    return data


def _worker_init(payload, options: Optional[SpatchOptions],
                 cache_max_entries: int,
                 compile_flag: Optional[bool] = None) -> None:
    from .engine import Engine

    ast = ast_from_payload(payload, options)
    # caches are per-process (a TreeCache's lock cannot cross exec/pickle),
    # so each worker gets a fresh one honouring the parent cache's bound
    engine = Engine(ast, options=options,
                    tree_cache=TreeCache(max_entries=cache_max_entries),
                    compile=compile_flag)
    if has_per_file_scripts(ast):
        # script rules read the globals initialize rules set up; patches
        # without per-file scripts get their single initialize in the parent
        engine._run_initialize_rules()
    _WORKER_ENGINE["engine"] = engine


def _worker_apply(batch: list[tuple[str, str, Optional[frozenset[str]]]]
                  ) -> list[FileResult]:
    engine: "Engine" = _WORKER_ENGINE["engine"]
    return [engine.session_for(filename, text, allowed_rules=allowed).run()
            for filename, text, allowed in batch]


#: marker tagging a worker batch return that carries a telemetry envelope
_TELEMETRY_TAG = "__repro_telemetry__"


def _telemetry_worker(worker, batch):
    """Run one batch in a forked worker, capturing the registry delta (and
    the span tree, when the parent had tracing active at fork time — the
    contextvar forks with the process) so the parent can aggregate worker
    telemetry instead of losing it with the child."""
    if not _obs.enabled():
        return (_TELEMETRY_TAG, list(worker(batch)), None, None)
    capture = _obs.telemetry_capture()
    spans = None
    if _trace.tracing_active():
        tracer = _trace.start_trace(f"fork-worker[{os.getpid()}]")
        try:
            results = list(worker(batch))
        finally:
            spans = tracer.finish().to_payload()
    else:
        results = list(worker(batch))
    return (_TELEMETRY_TAG, results, capture.delta(), spans)


def run_fork_pool(items: list, jobs: int, initializer, initargs, worker) -> list:
    """Fan ``items`` out over ``jobs`` forked worker processes in batches and
    return the concatenated per-item results (shared by :class:`Driver`,
    :class:`~repro.engine.pipeline.PatchPipeline` and
    :class:`~repro.engine.incremental.IncrementalPipeline`).  A few batches
    per worker so an expensive item does not serialise the tail, while
    keeping per-task pickling overhead low.

    Degenerate inputs never pay fork cost: an empty ``items`` answers
    immediately and a single item (or ``jobs <= 1``) runs in-process — the
    initializer builds the same fresh per-worker state it would in a forked
    child, just in this process.  The established callers already route
    such inputs to their serial paths before reaching here (that is how
    one-file incremental deltas avoid forking), so this is a guarantee for
    new callers, not a hot path.
    """
    from concurrent.futures import ProcessPoolExecutor

    if not items:
        return []
    if len(items) == 1 or jobs <= 1:
        initializer(*initargs)
        return list(worker(items))

    ctx = multiprocessing.get_context("fork")
    batch_size = max(1, math.ceil(len(items) / (jobs * 4)))
    batches = [items[i:i + batch_size]
               for i in range(0, len(items), batch_size)]
    results: list = []
    wrapped = functools.partial(_telemetry_worker, worker)
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                             initializer=initializer,
                             initargs=initargs) as pool:
        for tag, batch_results, delta, spans in pool.map(wrapped, batches):
            assert tag == _TELEMETRY_TAG
            results.extend(batch_results)
            if delta:
                _obs.merge_telemetry(delta, origin="workers")
            if spans:
                _trace.graft_payloads([spans])
    return results


class Driver:
    """Applies one semantic patch to a whole code base."""

    def __init__(self, patch: SemanticPatchAST,
                 options: Optional[SpatchOptions] = None, *,
                 jobs: "int | str" = 1, prefilter: bool = True,
                 engine: "Optional[Engine]" = None,
                 tree_cache: Optional[TreeCache] = None,
                 compile: Optional[bool] = None):
        from .engine import Engine

        self.patch = patch
        self.options = options or patch.options
        self.jobs = resolve_jobs(jobs)
        self.jobs_requested = jobs
        self.prefilter_enabled = prefilter
        self.compile_flag = compile
        self.tree_cache = tree_cache if tree_cache is not None else DEFAULT_TREE_CACHE
        self.engine = engine or Engine(patch, options=self.options,
                                       tree_cache=self.tree_cache,
                                       compile=compile)
        self.prefilter = PatchPrefilter(patch) if prefilter else None
        self.stats = DriverStats()

    # -- public API -----------------------------------------------------------

    def run(self, files: dict[str, str],
            token_index: Optional[TokenIndex] = None) -> PatchResult:
        """Apply the patch to ``{filename: text}``; results keep the input
        file order whatever the prefilter skipped or the workers reordered."""
        started = time.perf_counter()
        stats = self.stats = DriverStats(
            files_total=len(files), prefilter=self.prefilter_enabled,
            jobs_requested=self.jobs_requested)
        telemetry = _obs.enabled()
        if telemetry:
            _M_RUNS.inc()
        worker_hits0 = _M_WORKER_HITS.value
        worker_misses0 = _M_WORKER_MISSES.value
        # count parse-cache traffic on the cache the sessions actually use
        # (an engine handed in by Engine.apply_to_files may have none)
        session_cache = self.engine.tree_cache
        cache_hits0, cache_misses0 = session_cache.stats() \
            if session_cache is not None else (0, 0)

        # ---- plan: which rules survive per file, which files need a session
        session_files: list[tuple[str, str, Optional[frozenset[str]]]] = []
        skipped: dict[str, FileResult] = {}
        scan_started = time.perf_counter()
        n_patch_rules = len(self.patch.patch_rules())
        for name, text in files.items():
            if self.prefilter is None:
                session_files.append((name, text, None))
                continue
            if token_index is not None:
                plan = self.prefilter.plan_for(
                    token_index.tokens_of(name, text))
            else:
                with _obs.phase("prefilter"):
                    plan = self.prefilter.plan_for_text(text)
            if not plan.needs_session:
                skipped[name] = FileResult(filename=name, original_text=text,
                                           text=text)
                stats.files_skipped += 1
                stats.rules_gated += n_patch_rules
            else:
                stats.rules_gated += n_patch_rules - len(plan.allowed_rules)
                session_files.append((name, text, plan.allowed_rules))
        stats.scan_seconds = time.perf_counter() - scan_started

        jobs_used = self._effective_jobs(len(session_files))
        stats.jobs_used = jobs_used

        # ---- initialize rules run exactly once as soon as any file is
        # processed, mirroring the serial engine (which triggers them from
        # the first apply_to_file call, whether or not that file matches).
        # In parallel runs of a script-bearing patch, the *workers* run them
        # instead (their scripts need the initialized globals) and the
        # parent skips, keeping the total at one-per-process.
        if files and (jobs_used == 1 or not self._has_per_file_scripts()):
            self.engine._run_initialize_rules()

        # ---- apply
        apply_started = time.perf_counter()
        if jobs_used > 1:
            results = self._run_parallel(session_files, jobs_used)
        else:
            results = {name: self.engine.session_for(name, text,
                                                     allowed_rules=allowed).run()
                       for name, text, allowed in session_files}
        stats.apply_seconds = time.perf_counter() - apply_started

        # ---- assemble in input order, then finalize
        result = PatchResult()
        for name in files:
            result.files[name] = skipped[name] if name in skipped else results[name]
        self.engine._run_finalize_rules(result)

        if session_cache is not None and jobs_used == 1:
            cache_hits1, cache_misses1 = session_cache.stats()
            stats.cache_hits = cache_hits1 - cache_hits0
            stats.cache_misses = cache_misses1 - cache_misses0
        elif jobs_used > 1:
            if telemetry:
                # worker deltas were merged onto the origin="workers"
                # children by run_fork_pool — report the aggregate
                stats.cache_hits = int(_M_WORKER_HITS.value - worker_hits0)
                stats.cache_misses = int(
                    _M_WORKER_MISSES.value - worker_misses0)
                stats.cache_scope = "workers"
            else:
                stats.cache_scope = "unavailable"
        if telemetry:
            _M_FILES.inc(len(session_files))
            _M_FILES_SKIPPED.inc(len(skipped))
        stats.total_seconds = time.perf_counter() - started
        result.stats = stats
        return result

    # -- parallel execution ---------------------------------------------------

    def _effective_jobs(self, n_files: int) -> int:
        if self.jobs <= 1 or n_files <= 1:
            return 1
        if not self._parallel_preserves_semantics():
            return 1
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1  # spawn would not inherit sys.path in source checkouts
        return min(self.jobs, n_files)

    def _has_per_file_scripts(self) -> bool:
        return has_per_file_scripts(self.patch)

    def _parallel_preserves_semantics(self) -> bool:
        return parallel_preserves_semantics(self.patch, self.options)

    def _payload(self):
        return patch_payload(self.patch)

    def _run_parallel(self, session_files, jobs: int) -> dict[str, FileResult]:
        file_results = run_fork_pool(
            session_files, jobs, _worker_init,
            (self._payload(), self.options, self.tree_cache.max_entries,
             self.compile_flag),
            _worker_apply)
        return {file_result.filename: file_result
                for file_result in file_results}
