"""Global content-addressed transform memoization.

PR 4's incremental splicing is *positional*: a file's cached results are
reused only inside that file's own prior result, in one process.  Yet the
batch workload re-transforms identical inputs constantly — vendored
duplicate files, shared patch suffixes after a reorder, separate workspaces
holding the same tree, fresh daemons re-doing work a previous process
already finished.  :class:`TransformMemo` replaces position with *content*,
like a ccache/bazel action cache: every (file state, patch) transform is
keyed on

    ``(sha1 of the text entering the patch, patch fingerprint, mode flags)``

and maps to what the session produced — the output text (stored only when
the patch edited the file), the per-rule reports, the diagnostics and, for
an edit, the rendered diff hunks and their +/- line counts (so a hit seeds
its :class:`~repro.engine.report.FileResult` without running ``difflib``).
Prefix, suffix, reorder, cross-file, cross-workspace and (with the on-disk
tier) cross-process reuse all fall out of this one mechanism.

Soundness
---------
A memo hit must be provably equivalent to running the session cold:

* the **content hash** pins the exact text entering the patch (the same
  ``content_sha1`` every cache/incremental layer keys on);
* the **patch fingerprint** (:func:`~repro.engine.pipeline.patch_fingerprint`)
  pins the SMPL source, the patch name and the frozen options — anything
  that can change what the patch does;
* the **mode flags** pin the prefilter setting (``allowed_rules`` — and so
  the reports a session emits — depend on whether gating is active) and the
  matcher backend (compiled and interpreted are differentially proven
  byte-identical, but entries never cross backends, so the proof is never
  load-bearing);
* per-file **skip and gating decisions are never memoized** — the pipeline
  re-plans them against the *current* union prefilter exactly as
  ``_reuse_plan`` does, so coverage counters always match a cold run;
* patches with per-file ``script:python`` rules are **excluded** (their
  sessions may read state mutated across files, so they are not pure
  functions of the file text; the pipeline passes ``None`` fingerprints for
  them and they always run cold).

Sessions of the remaining patches are pure functions of
``(text, patch, options, allowed_rules)`` — the fact incremental reuse
already relies on — with one filename-shaped exception: diagnostics embed
the filename they were produced under.  Entries therefore record their
source filename and an entry *with* diagnostics only answers that same
filename; diagnostic-free entries (the overwhelmingly common case) are
shared freely across identically-hashed files.

On-disk tier
------------
``TransformMemo(path=...)`` adds a persistent tier: each entry is one
content-addressed file ``<dir>/<kk>/<key-sha1>.memo`` (two-hex-char shard
directories) holding a pickled ``{"version", "key", "entry"}`` record,
written atomically (temp file + ``os.replace``) so concurrent writers —
including forked pipeline workers sharing the directory — can never
interleave a torn entry.  Reads verify the version tag *and* the full key
before trusting an entry; corrupt, stale-versioned or key-mismatched files
degrade to a miss (and are unlinked opportunistically), never to an error —
the same "degrade, never break" contract the parse cache and state files
follow.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..obs import registry as _obs
from .cache import content_sha1
from .report import FileResult, RuleReport

#: format tag for on-disk entries; bump on incompatible layout changes
#: (stale-versioned entries degrade to a miss, never to wrong output).
#: v2: entries carry their diff hunks and line counts
_DISK_VERSION = 2

_M_HITS = _obs.REGISTRY.counter(
    "repro_memo_lookups_total", "Transform-memo lookups", result="hit")
_M_MISSES = _obs.REGISTRY.counter(
    "repro_memo_lookups_total", "Transform-memo lookups", result="miss")
_M_DISK_HITS = _obs.REGISTRY.counter(
    "repro_memo_lookups_total", "Transform-memo lookups", result="disk_hit")
_M_STORES = _obs.REGISTRY.counter(
    "repro_memo_stores_total", "Transform-memo entry stores")

#: default bound on the in-memory LRU tier
DEFAULT_MEMO_ENTRIES = 4096


@dataclass(frozen=True)
class MemoEntry:
    """What one memoized session produced, filename-portable.

    ``text`` is ``None`` when the patch left the file untouched (the common
    case — most patches touch few files), so unchanged entries cost a few
    counters, not a copy of the file."""

    #: filename the entry was computed under; only consulted when
    #: ``diagnostics`` is non-empty (diagnostics embed it)
    filename: str
    #: output text, or ``None`` when identical to the input
    text: Optional[str]
    #: ``content_sha1`` of the output text (``None`` when unchanged) — lets
    #: a chained lookup reuse the hash instead of re-hashing the boundary
    output_sha: Optional[str]
    #: ``(rule, matches, deletions, insertions)`` per emitted report
    reports: tuple[tuple[str, int, int, int], ...]
    diagnostics: tuple
    #: the edit's diff without its ``---``/``+++`` header lines, and that
    #: body's share of the +/- line counts (see
    #: :meth:`~repro.engine.report.FileResult.hunks`); the header is
    #: re-rendered from the caller's filename, so entries stay
    #: filename-portable.  ``None`` when unchanged or never rendered
    hunks: Optional[str] = None
    added: int = 0
    removed: int = 0

    @property
    def changed(self) -> bool:
        return self.text is not None

    def to_file_result(self, filename: str, input_text: str) -> FileResult:
        """Rebuild the exact :class:`~repro.engine.report.FileResult` a cold
        session over ``input_text`` would return, its diff already
        rendered."""
        file_result = FileResult(
            filename=filename, original_text=input_text,
            text=self.text if self.text is not None else input_text,
            rule_reports=[RuleReport(rule=rule, matches=matches,
                                     deletions=deletions,
                                     insertions=insertions)
                          for rule, matches, deletions, insertions
                          in self.reports],
            diagnostics=list(self.diagnostics))
        if self.hunks is not None:
            file_result.seed_hunks(self.hunks, self.added, self.removed)
        return file_result

    @classmethod
    def from_file_result(cls, file_result: FileResult) -> "MemoEntry":
        """The entry for one freshly computed session; an edit's diff is
        rendered here (once: the result keeps it too)."""
        changed = file_result.text != file_result.original_text
        hunks, added, removed = file_result.hunks() if changed \
            else (None, 0, 0)
        return cls(
            filename=file_result.filename,
            text=file_result.text if changed else None,
            output_sha=content_sha1(file_result.text) if changed else None,
            reports=tuple((report.rule, report.matches, report.deletions,
                           report.insertions)
                          for report in file_result.rule_reports),
            diagnostics=tuple(file_result.diagnostics),
            hunks=hunks, added=added, removed=removed)


def memo_flags(prefilter: bool, compiled: bool) -> str:
    """The mode component of a memo key: entries never cross a prefilter
    toggle (``allowed_rules`` shape the reports) or a matcher backend."""
    return ("p" if prefilter else "-") + ("c" if compiled else "i")


class TransformMemo:
    """A thread-safe, bounded ``(content sha1, patch fingerprint, flags) →``
    :class:`MemoEntry` store with an in-memory LRU tier and an optional
    persistent on-disk tier (see the module docstring)."""

    def __init__(self, max_entries: int = DEFAULT_MEMO_ENTRIES,
                 path=None, max_blob_entries: int = 512):
        self.max_entries = max_entries
        self.max_blob_entries = max_blob_entries
        self.path = os.fspath(path) if path is not None else None
        self._entries: "OrderedDict[tuple, MemoEntry]" = OrderedDict()
        #: content-addressed raw-text tier (``sha1 → text``): what the
        #: memo-aware server sync stores/recalls so known file contents
        #: never cross the wire twice
        self._blobs: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: on-disk tier traffic (all zero when no ``path`` is configured)
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_stores = 0
        #: corrupt/stale/unwritable entry files degraded to a miss/no-op
        self.disk_errors = 0
        #: blob (raw text) tier traffic
        self.blob_hits = 0
        self.blob_misses = 0
        self.blob_stores = 0
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)

    # -- lookup / store ------------------------------------------------------

    def lookup(self, text_sha: str, fingerprint: str, flags: str,
               filename: str) -> Optional[MemoEntry]:
        """The memoized session outcome for this exact (text, patch, mode),
        or ``None``.  ``filename`` guards the one filename-dependent case:
        an entry carrying diagnostics only answers the filename it was
        computed under."""
        key = (text_sha, fingerprint, flags)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry.diagnostics and entry.filename != filename:
                    self.misses += 1
                    if _obs.enabled():
                        _M_MISSES.inc()
                    return None
                self._entries.move_to_end(key)
                self.hits += 1
                if _obs.enabled():
                    _M_HITS.inc()
                return entry
        entry = self._disk_lookup(key)
        if entry is not None:
            if entry.diagnostics and entry.filename != filename:
                with self._lock:
                    self.misses += 1
                if _obs.enabled():
                    _M_MISSES.inc()
                return None
            with self._lock:
                self.hits += 1
                self.disk_hits += 1
                self._store_locked(key, entry)
            if _obs.enabled():
                _M_HITS.inc()
                _M_DISK_HITS.inc()
            return entry
        with self._lock:
            self.misses += 1
        if _obs.enabled():
            _M_MISSES.inc()
        return None

    def store(self, text_sha: str, fingerprint: str, flags: str,
              entry: MemoEntry) -> None:
        key = (text_sha, fingerprint, flags)
        with self._lock:
            known = key in self._entries
            self._store_locked(key, entry)
            if known:
                return  # refreshed recency; the disk entry is already there
            self.stores += 1
        if _obs.enabled():
            _M_STORES.inc()
        self._disk_store(key, entry)

    def store_result(self, text_sha: str, fingerprint: str, flags: str,
                     file_result: FileResult) -> Optional[str]:
        """Memoize one freshly computed session result; returns the output
        text's content hash when the session edited the file (``None``
        otherwise), so chained callers can thread boundary hashes without
        re-hashing."""
        entry = MemoEntry.from_file_result(file_result)
        self.store(text_sha, fingerprint, flags, entry)
        return entry.output_sha

    def _store_locked(self, key: tuple, entry: MemoEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- the on-disk tier ----------------------------------------------------

    def _entry_path(self, key: tuple) -> str:
        digest = hashlib.sha1("\x00".join(key).encode("ascii")).hexdigest()
        return os.path.join(self.path, digest[:2], digest + ".memo")

    def _disk_lookup(self, key: tuple) -> Optional[MemoEntry]:
        if self.path is None:
            return None
        target = self._entry_path(key)
        try:
            with open(target, "rb") as handle:
                payload = pickle.load(handle)
            if (not isinstance(payload, dict)
                    or payload.get("version") != _DISK_VERSION
                    or payload.get("key") != key):
                raise ValueError("stale or mismatched memo entry")
            entry = payload["entry"]
            if not isinstance(entry, MemoEntry):
                raise ValueError("not a memo entry")
        except FileNotFoundError:
            with self._lock:
                self.disk_misses += 1
            return None
        except Exception:
            # corrupt, truncated, version-skewed or hash-colliding entries
            # all degrade to a miss; drop the file so the next store heals it
            with self._lock:
                self.disk_errors += 1
                self.disk_misses += 1
            try:
                os.unlink(target)
            except OSError:
                pass
            return None
        return entry

    def _disk_store(self, key: tuple, entry: MemoEntry) -> None:
        if self.path is None:
            return
        target = self._entry_path(key)
        payload = {"version": _DISK_VERSION, "key": key, "entry": entry}
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            # atomic publish: concurrent writers (forked pipeline workers
            # share the directory) each replace with a complete file, so a
            # reader can never observe a torn entry
            fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(target),
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(payload, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(temp_path, target)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except Exception:
            # a read-only or full disk must never break the apply; the
            # memory tier already holds the entry
            with self._lock:
                self.disk_errors += 1
            return
        with self._lock:
            self.disk_stores += 1

    # -- the blob (raw text) tier --------------------------------------------

    def _blob_path(self, text_sha: str) -> str:
        return os.path.join(self.path, "blobs", text_sha[:2],
                            text_sha + ".blob")

    def store_text(self, text: str, text_sha: Optional[str] = None) -> str:
        """Remember raw file text by content hash (memory LRU + on-disk
        blob when a ``path`` is configured); returns the hash.  This is the
        server-side half of memo-aware delta sync: texts a client already
        uploaded — or any process sharing the memo directory has seen —
        can be *recalled* by hash instead of re-uploaded."""
        if text_sha is None:
            text_sha = content_sha1(text)
        with self._lock:
            known = text_sha in self._blobs
            self._blobs[text_sha] = text
            self._blobs.move_to_end(text_sha)
            while len(self._blobs) > self.max_blob_entries:
                self._blobs.popitem(last=False)
            if not known:
                self.blob_stores += 1
        if not known and self.path is not None:
            target = self._blob_path(text_sha)
            try:
                os.makedirs(os.path.dirname(target), exist_ok=True)
                fd, temp_path = tempfile.mkstemp(
                    dir=os.path.dirname(target), suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        # surrogateescape, matching the read side: escaped
                        # bad bytes in file texts round-trip to the same
                        # bytes the client's file held, so the re-hash
                        # check on recall sees the original content hash
                        handle.write(text.encode("utf-8", "surrogateescape"))
                    os.replace(temp_path, target)
                except BaseException:
                    try:
                        os.unlink(temp_path)
                    except OSError:
                        pass
                    raise
            except Exception:
                with self._lock:
                    self.disk_errors += 1
        return text_sha

    def recall_text(self, text_sha: str) -> Optional[str]:
        """The raw text previously stored under ``text_sha``, or ``None``.
        Disk reads are re-hashed before they are trusted — a corrupt blob
        degrades to a miss and is unlinked."""
        with self._lock:
            text = self._blobs.get(text_sha)
            if text is not None:
                self._blobs.move_to_end(text_sha)
                self.blob_hits += 1
                return text
        if self.path is not None:
            target = self._blob_path(text_sha)
            try:
                with open(target, "rb") as handle:
                    text = handle.read().decode("utf-8", "surrogateescape")
                if content_sha1(text) != text_sha:
                    raise ValueError("blob content does not match its hash")
            except FileNotFoundError:
                text = None
            except Exception:
                text = None
                with self._lock:
                    self.disk_errors += 1
                try:
                    os.unlink(target)
                except OSError:
                    pass
            if text is not None:
                with self._lock:
                    self.blob_hits += 1
                    self._blobs[text_sha] = text
                    self._blobs.move_to_end(text_sha)
                    while len(self._blobs) > self.max_blob_entries:
                        self._blobs.popitem(last=False)
                return text
        with self._lock:
            self.blob_misses += 1
        return None

    # -- disk-tier garbage collection ----------------------------------------

    def prune(self, max_bytes: Optional[int] = None,
              max_age: Optional[float] = None) -> dict:
        """Size/age-bound the on-disk tier (entries *and* blobs).

        Files older than ``max_age`` seconds go first; if the directory
        still exceeds ``max_bytes``, the oldest-mtime files go until it
        fits — the disk analogue of the memory tier's LRU, using mtime as
        recency.  Concurrently vanished files are skipped, and the memory
        tiers are untouched (they are bounded separately).  Returns a
        summary: scanned/removed counts and byte totals."""
        summary = {"scanned": 0, "scanned_bytes": 0,
                   "removed": 0, "removed_bytes": 0}
        if self.path is None:
            return summary
        now = time.time()
        survivors: list[tuple[float, int, str]] = []  # (mtime, size, path)
        for dirpath, _dirnames, filenames in os.walk(self.path):
            for filename in filenames:
                if not filename.endswith((".memo", ".blob")):
                    continue  # never touch foreign/temp files
                target = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(target)
                except OSError:
                    continue
                summary["scanned"] += 1
                summary["scanned_bytes"] += stat.st_size
                if max_age is not None and now - stat.st_mtime > max_age:
                    self._prune_unlink(target, stat.st_size, summary)
                else:
                    survivors.append((stat.st_mtime, stat.st_size, target))
        if max_bytes is not None:
            total = sum(size for _mtime, size, _path in survivors)
            survivors.sort()  # oldest mtime first
            index = 0
            while total > max_bytes and index < len(survivors):
                _mtime, size, target = survivors[index]
                index += 1
                if self._prune_unlink(target, size, summary):
                    total -= size
        return summary

    @staticmethod
    def _prune_unlink(target: str, size: int, summary: dict) -> bool:
        try:
            os.unlink(target)
        except OSError:
            return False  # concurrently removed, or unwritable — skip
        summary["removed"] += 1
        summary["removed_bytes"] += size
        return True

    # -- maintenance / observability -----------------------------------------

    def clear(self) -> None:
        """Drop the memory tier and reset counters (the on-disk tier is
        untouched — it is shared state other processes may be using)."""
        with self._lock:
            self._entries.clear()
            self._blobs.clear()
            self.hits = self.misses = self.stores = self.evictions = 0
            self.disk_hits = self.disk_misses = 0
            self.disk_stores = self.disk_errors = 0
            self.blob_hits = self.blob_misses = self.blob_stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> tuple[int, int]:
        """``(hits, misses)`` since construction/clear (the delta pair the
        pipeline folds into its per-run stats)."""
        return self.hits, self.misses

    def counters(self) -> dict:
        """Every counter this memo keeps, as one JSON-able dict — what
        ``--profile`` and the server's ``stats`` verb report."""
        with self._lock:
            return {"entries": len(self._entries),
                    "max_entries": self.max_entries,
                    "path": self.path,
                    "hits": self.hits, "misses": self.misses,
                    "stores": self.stores, "evictions": self.evictions,
                    "disk_hits": self.disk_hits,
                    "disk_misses": self.disk_misses,
                    "disk_stores": self.disk_stores,
                    "disk_errors": self.disk_errors,
                    "blob_entries": len(self._blobs),
                    "blob_hits": self.blob_hits,
                    "blob_misses": self.blob_misses,
                    "blob_stores": self.blob_stores}
