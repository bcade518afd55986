"""A thread-safe metrics registry: counters, gauges, and fixed-bucket
monotonic-clock histograms.

Design notes
------------
*Children are cheap, families are the unit of exposition.*  A *family*
is one metric name with one type and help string; a *child* is one
labelled time series inside it.  Engine modules fetch their children
once at import time (``_HITS = REGISTRY.counter(...)``) so the hot path
is a single ``inc()`` — one ``threading.Lock`` acquire and an integer
add — with no dict lookups.

*Collectors bridge the legacy counters.*  Objects that keep their own
counters (``TreeCache``, ``TransformMemo``, ``MatcherStats``, ...)
register a **collector** callback; at snapshot/render time the registry
folds the callback's ``(name, kind, help, labels, value)`` tuples in as
if they were native children.  That makes the registry the single
source of truth for ``/metrics``, the ``stats`` verb, and ``--profile``
without rewriting every battle-tested counter in place.

*Deltas cross fork boundaries.*  ``telemetry_capture()`` snapshots the
native counter/histogram state inside a worker process; the matching
``end()`` returns a JSON-serializable delta (everything that happened
during the batch), which the parent folds back in with
:func:`merge_telemetry` under an ``origin="workers"`` label — so fleet
and fork-pool telemetry aggregates in the parent instead of dying with
the child.

Disabling: ``REPRO_OBS=0`` (or ``off``/``no``/``false``) turns
:func:`enabled` false; ``phase()`` then returns a shared no-op context
manager and ``inc()`` calls short-circuit at the call sites that guard
on it.  Instrumentation never touches output bytes either way.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from time import perf_counter
from typing import Callable, Dict, Iterable, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: histogram bucket upper bounds, in seconds (the +Inf bucket is implicit)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: the span/histogram phase vocabulary shared by tracer and registry
PHASES = ("parse", "prefilter", "match", "transform", "memo",
          "splice", "sync", "serialize")

_DISABLED_VALUES = ("0", "off", "no", "false")


def enabled() -> bool:
    """Whether telemetry arithmetic runs at all (``REPRO_OBS=0`` kills
    it); output bytes are identical either way."""
    return os.environ.get("REPRO_OBS", "").strip().lower() \
        not in _DISABLED_VALUES


# ---------------------------------------------------------------------------
# metric children
# ---------------------------------------------------------------------------

class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can go up and down (workspace count, queue depth)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram over seconds, fed from the monotonic clock
    (callers time with :func:`time.perf_counter`, never wall clock)."""

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # trailing +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def state(self) -> dict:
        """A JSON-serializable snapshot (used for deltas and summaries)."""
        with self._lock:
            return {"buckets": list(self.buckets),
                    "counts": list(self._counts),
                    "sum": self._sum, "count": self._count}

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's (delta) state in; bucket layouts must
        match (they always do — one family, one layout)."""
        counts = state.get("counts") or []
        with self._lock:
            for index, extra in enumerate(counts):
                if index < len(self._counts):
                    self._counts[index] += extra
            self._sum += state.get("sum", 0.0)
            self._count += state.get("count", 0)

    def summary(self) -> dict:
        """count / sum / mean plus bucket-interpolated p50/p90/p99 — what
        the bench JSON records per phase."""
        state = self.state()
        count = state["count"]
        result = {"count": count, "sum": round(state["sum"], 6)}
        if not count:
            return result
        result["mean"] = round(state["sum"] / count, 6)
        bounds = list(state["buckets"]) + [float("inf")]
        for quantile in (0.5, 0.9, 0.99):
            target = quantile * count
            running = 0
            for bound, bucket_count in zip(bounds, state["counts"]):
                running += bucket_count
                if running >= target:
                    value = bound if bound != float("inf") \
                        else state["buckets"][-1]
                    result[f"p{int(quantile * 100)}"] = value
                    break
        return result


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_KINDS = ("counter", "gauge", "histogram")


class _Family:
    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[LabelItems, object] = {}


def _label_items(labels: Optional[dict]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(items: LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in items)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


class MetricsRegistry:
    """Thread-safe registry of metric families; see the module docstring
    for the design."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._collectors: list[Callable[[], Iterable[tuple]]] = []

    # -- child access --------------------------------------------------------

    def _child(self, name: str, kind: str, help_text: str,
               labels: Optional[dict], factory) -> object:
        items = _label_items(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}")
            child = family.children.get(items)
            if child is None:
                child = factory()
                family.children[items] = child
            return child

    def counter(self, name: str, help_text: str = "",
                **labels: str) -> Counter:
        return self._child(name, "counter", help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._child(name, "gauge", help_text, labels, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        return self._child(name, "histogram", help_text, labels,
                           lambda: Histogram(buckets))

    # -- collectors ----------------------------------------------------------

    def register_collector(self, collector: Callable[[], Iterable[tuple]]):
        """Register a callback yielding ``(name, kind, help, labels,
        value)`` tuples, folded in at snapshot/render time.  Returns the
        callback so callers can :meth:`unregister_collector` later."""
        with self._lock:
            self._collectors.append(collector)
        return collector

    def unregister_collector(self, collector) -> None:
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    def _collected(self) -> list[tuple]:
        with self._lock:
            collectors = list(self._collectors)
        rows: list[tuple] = []
        for collector in collectors:
            try:
                rows.extend(collector())
            except Exception:  # a broken collector must not kill /metrics
                continue
        return rows

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Every family (native + collected) as plain JSON-ready data:
        ``{name: {"type", "help", "samples": {label-suffix: value}}}``
        with histogram samples as their :meth:`~Histogram.state`."""
        out: dict = {}
        with self._lock:
            families = [(f.name, f.kind, f.help, dict(f.children))
                        for f in self._families.values()]
        for name, kind, help_text, children in families:
            samples = {}
            for items, child in children.items():
                key = _label_suffix(items)
                if isinstance(child, Histogram):
                    samples[key] = child.state()
                else:
                    samples[key] = child.value
            out[name] = {"type": kind, "help": help_text, "samples": samples}
        for name, kind, help_text, labels, value in self._collected():
            family = out.setdefault(
                name, {"type": kind, "help": help_text, "samples": {}})
            family["samples"][_label_suffix(_label_items(labels))] = value
        return out

    def counter_values(self) -> Dict[str, float]:
        """Flat native counter/histogram state keyed ``name{labels}`` —
        the capture format behind fork-boundary deltas.  Histogram states
        are included under a ``!hist`` marker key."""
        values: Dict[str, object] = {}
        with self._lock:
            families = [(f.name, f.kind, dict(f.children))
                        for f in self._families.values()]
        for name, kind, children in families:
            for items, child in children.items():
                key = name + _label_suffix(items)
                if kind == "counter":
                    values[key] = child.value
                elif kind == "histogram":
                    values["!hist!" + key] = child.state()
        return values

    def render_prometheus(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        snapshot = self.snapshot()
        for name in sorted(snapshot):
            family = snapshot[name]
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['type']}")
            for suffix in sorted(family["samples"]):
                value = family["samples"][suffix]
                if isinstance(value, dict):  # histogram state
                    base = suffix[1:-1] if suffix else ""
                    running = 0
                    bounds = list(value["buckets"]) + [float("inf")]
                    for bound, count in zip(bounds, value["counts"]):
                        running += count
                        label = "+Inf" if bound == float("inf") else repr(bound)
                        joined = f'le="{label}"' if not base \
                            else f'{base},le="{label}"'
                        lines.append(f"{name}_bucket{{{joined}}} {running}")
                    lines.append(f"{name}_sum{suffix} {value['sum']}")
                    lines.append(f"{name}_count{suffix} {value['count']}")
                else:
                    lines.append(f"{name}{suffix} {_format_number(value)}")
        return "\n".join(lines) + "\n"


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


#: the process-global registry every module instruments against
REGISTRY = MetricsRegistry()


# ---------------------------------------------------------------------------
# phase timing (histograms + spans in one call)
# ---------------------------------------------------------------------------

_PHASE_HISTOGRAMS: Dict[str, Histogram] = {
    name: REGISTRY.histogram(
        "repro_phase_seconds",
        "Wall seconds per engine phase (monotonic clock)", phase=name)
    for name in PHASES}


class _NoopPhase:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP_PHASE = _NoopPhase()


class _Phase:
    __slots__ = ("_histogram", "_span", "_start")

    def __init__(self, histogram: Histogram, span_cm) -> None:
        self._histogram = histogram
        self._span = span_cm
        self._start = 0.0

    def __enter__(self):
        if self._span is not None:
            self._span.__enter__()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self._histogram.observe(perf_counter() - self._start)
        if self._span is not None:
            self._span.__exit__(*exc)
        return False


def phase(name: str):
    """Time one engine phase: observe the ``repro_phase_seconds`` family
    and, when a trace is active, record a span of the same name.  Returns
    a shared no-op when telemetry is disabled."""
    if not enabled():
        return _NOOP_PHASE
    from . import trace as _trace
    span_cm = _trace.span(name) if _trace.tracing_active() else None
    histogram = _PHASE_HISTOGRAMS.get(name)
    if histogram is None:
        histogram = REGISTRY.histogram(
            "repro_phase_seconds",
            "Wall seconds per engine phase (monotonic clock)", phase=name)
        _PHASE_HISTOGRAMS[name] = histogram
    return _Phase(histogram, span_cm)


def phase_summaries() -> dict:
    """Per-phase histogram summaries (count/sum/mean/p50/p90/p99) — the
    payload the bench JSON and the ``metrics`` verb expose."""
    return {name: _PHASE_HISTOGRAMS[name].summary()
            for name in PHASES if _PHASE_HISTOGRAMS[name].state()["count"]}


# ---------------------------------------------------------------------------
# fork-boundary deltas
# ---------------------------------------------------------------------------

class telemetry_capture:
    """Capture everything the registry (and the matcher's global stats)
    records between ``begin`` and ``end`` — inside a fork-pool or fleet
    worker — as a JSON-serializable delta payload for the parent.

    Usage in a worker batch::

        capture = telemetry_capture()
        ...  # run the batch
        envelope = capture.delta()   # {} when nothing moved
    """

    def __init__(self) -> None:
        self._before = REGISTRY.counter_values() if enabled() else {}
        self._matcher_before = self._matcher_values() if enabled() else {}

    @staticmethod
    def _matcher_values() -> Dict[str, int]:
        try:
            from ..engine.compile import matcher_counters
        except Exception:  # pragma: no cover - import cycle guard
            return {}
        return {key: value for key, value in matcher_counters().items()
                if isinstance(value, int)}

    def delta(self) -> dict:
        if not enabled():
            return {}
        after = REGISTRY.counter_values()
        counters: Dict[str, float] = {}
        histograms: Dict[str, dict] = {}
        for key, value in after.items():
            if key.startswith("!hist!"):
                before = self._before.get(key) or {}
                delta_counts = list(value["counts"])
                for index, prior in enumerate(before.get("counts") or []):
                    if index < len(delta_counts):
                        delta_counts[index] -= prior
                count = value["count"] - before.get("count", 0)
                if count:
                    histograms[key[len("!hist!"):]] = {
                        "buckets": value["buckets"],
                        "counts": delta_counts,
                        "sum": value["sum"] - before.get("sum", 0.0),
                        "count": count}
            else:
                moved = value - self._before.get(key, 0)
                if moved:
                    counters[key] = moved
        matcher_after = self._matcher_values()
        matcher = {key: matcher_after[key] - self._matcher_before.get(key, 0)
                   for key in matcher_after
                   if matcher_after[key] != self._matcher_before.get(key, 0)}
        payload: dict = {}
        if counters:
            payload["counters"] = counters
        if histograms:
            payload["histograms"] = histograms
        if matcher:
            payload["matcher"] = matcher
        return payload


def _split_key(key: str) -> tuple[str, dict]:
    """``name{a="b"}`` back into ``(name, {"a": "b"})``."""
    if "{" not in key:
        return key, {}
    name, _, raw = key.partition("{")
    labels: dict = {}
    for part in raw.rstrip("}").split(","):
        if "=" in part:
            label, _, value = part.partition("=")
            labels[label] = value.strip('"')
    return name, labels


def merge_telemetry(payload: Optional[dict], *,
                    origin: str = "workers") -> None:
    """Fold a worker's delta payload into the parent registry.  Counter
    and histogram deltas land on the same families tagged
    ``origin=<origin>``; matcher deltas land on
    ``repro_matcher_*_total`` counters with the same tag."""
    if not payload or not enabled():
        return
    for key, moved in (payload.get("counters") or {}).items():
        name, labels = _split_key(key)
        labels["origin"] = origin
        REGISTRY.counter(name, **labels).inc(int(moved))
    for key, state in (payload.get("histograms") or {}).items():
        name, labels = _split_key(key)
        labels["origin"] = origin
        histogram = REGISTRY.histogram(
            name, buckets=tuple(state.get("buckets") or DEFAULT_BUCKETS),
            **labels)
        histogram.merge_state(state)
    for key, moved in (payload.get("matcher") or {}).items():
        REGISTRY.counter(f"repro_matcher_{key}_total",
                         "Matcher counters aggregated from workers",
                         origin=origin).inc(int(moved))
