"""Result and report types for semantic patch application.

Diff once
---------
A file's unified diff and its +/- line counts are a value computed at most
once and then carried with the result, not re-derived on every read.
:meth:`FileResult.diff` renders with ``difflib`` on first use and memoizes
the text together with both counts; the memo is keyed on the *identity* of
``filename``, ``original_text`` and ``text``, so reassigning any of them
renders afresh on the next read.  :meth:`FileResult.copy` (the incremental
splice) carries the memo, a :class:`~repro.engine.memo.MemoEntry` carries
the header-less hunks of the session it memoizes (:meth:`FileResult.hunks`
and :meth:`FileResult.seed_hunks`), and a combined pipeline view adopts the
diff of the one per-patch view that edited the file
(:meth:`FileResult.adopt_diff`).  ``repro_report_diff_renders_total``
counts the real ``difflib`` renders, never the memo hits.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from ..errors import Diagnostic
from ..obs import registry as _obs

#: the context width every caller renders with (memoized; any other width
#: renders uncached)
DIFF_CONTEXT = 3

_M_RENDERS = _obs.REGISTRY.counter(
    "repro_report_diff_renders_total",
    "Unified diffs rendered with difflib (memoized reads not counted)")


def diff_renders() -> int:
    """The ``difflib`` renders this process has made (the value of
    ``repro_report_diff_renders_total``; frozen while telemetry is off)."""
    return _M_RENDERS.value


def diff_header(filename: str) -> str:
    """The ``---``/``+++`` lines :func:`difflib.unified_diff` opens a
    file's diff with (no dates)."""
    return f"--- a/{filename}\n+++ b/{filename}\n"


def _header(filename: str) -> tuple[str, int, int]:
    """:func:`diff_header` with its share of :func:`count_changes` (zero
    unless the filename itself holds line breaks)."""
    header = diff_header(filename)
    return (header, *count_changes(header))


def count_changes(diff: str) -> tuple[int, int]:
    """``(added, removed)`` line counts of a unified diff text: lines
    starting with ``+`` but not ``+++``, and with ``-`` but not ``---``.
    The counts add up over a split at a newline, which is what lets a
    header-less hunk body carry its own share."""
    added = removed = 0
    for line in diff.splitlines():
        if line.startswith("+"):
            if not line.startswith("+++"):
                added += 1
        elif line.startswith("-") and not line.startswith("---"):
            removed += 1
    return added, removed


@dataclass
class RuleReport:
    """What one rule did in one file."""

    rule: str
    matches: int = 0
    deletions: int = 0
    insertions: int = 0

    @property
    def changed_anything(self) -> bool:
        return self.deletions > 0 or self.insertions > 0


@dataclass
class FileResult:
    """The outcome of applying a semantic patch to one file."""

    filename: str
    original_text: str
    text: str
    rule_reports: list[RuleReport] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: ``(filename, original_text, text, diff, added, removed)``: the
    #: memoized render and the three objects it was rendered from (see the
    #: module docstring); not part of the outcome, so excluded from equality
    _rendered: Optional[tuple] = field(default=None, init=False,
                                       compare=False, repr=False)

    @property
    def changed(self) -> bool:
        return self.text != self.original_text

    def copy(self) -> "FileResult":
        """An independent, equal snapshot: incremental re-application splices
        cached results into fresh :class:`PatchResult`\\ s, and mutating one
        view must not leak into the other (reports included).  The rendered
        diff rides along: it is keyed on the very objects the copy shares."""
        clone = FileResult(filename=self.filename,
                           original_text=self.original_text, text=self.text,
                           rule_reports=[replace(r) for r in self.rule_reports],
                           diagnostics=list(self.diagnostics))
        clone._rendered = self._rendered
        return clone

    @property
    def total_matches(self) -> int:
        return sum(r.matches for r in self.rule_reports)

    def matches_of(self, rule: str) -> int:
        # a name can legitimately appear in several reports (a pipeline's
        # combined result concatenates reports across patches, and two
        # patches may both name a rule "r1"); sum them all
        return sum(report.matches for report in self.rule_reports
                   if report.rule == rule)

    def diff(self, context: int = DIFF_CONTEXT) -> str:
        """Unified diff between the original and the patched text."""
        if context != DIFF_CONTEXT:
            return self._unified(context)
        return self._render()[3]

    def change_counts(self) -> tuple[int, int]:
        """``(added, removed)`` line counts of :meth:`diff`, from the same
        single render."""
        rendered = self._render()
        return rendered[4], rendered[5]

    def added_lines(self) -> list[str]:
        return [line[1:] for line in self.diff().splitlines()
                if line.startswith("+") and not line.startswith("+++")]

    def removed_lines(self) -> list[str]:
        return [line[1:] for line in self.diff().splitlines()
                if line.startswith("-") and not line.startswith("---")]

    # -- the diff memo (see the module docstring) ----------------------------

    def _current(self) -> Optional[tuple]:
        """The memoized render, unless a field was reassigned since."""
        rendered = self._rendered
        if rendered is not None and rendered[0] is self.filename \
                and rendered[1] is self.original_text \
                and rendered[2] is self.text:
            return rendered
        return None

    def _render(self) -> tuple:
        # no lock: the memo is one tuple read and written whole, so threads
        # sharing a spliced result at worst both render the same value
        rendered = self._current()
        if rendered is not None:
            return rendered
        diff = self._unified(DIFF_CONTEXT)
        rendered = self._rendered = (self.filename, self.original_text,
                                     self.text, diff, *count_changes(diff))
        return rendered

    def _unified(self, context: int) -> str:
        if not self.changed:
            return ""
        if _obs.enabled():
            _M_RENDERS.inc()
        original = self.original_text.splitlines(keepends=True)
        patched = self.text.splitlines(keepends=True)
        lines = difflib.unified_diff(original, patched,
                                     fromfile=f"a/{self.filename}",
                                     tofile=f"b/{self.filename}", n=context)
        return "".join(lines)

    def hunks(self) -> tuple[str, int, int]:
        """The filename-free part of :meth:`diff`: ``(body, added,
        removed)`` with the header lines and their share of the counts
        taken out, what a memo entry stores so another filename can reuse
        it."""
        _, _, _, diff, added, removed = self._render()
        if not diff:
            return "", 0, 0
        header, header_added, header_removed = _header(self.filename)
        return (diff[len(header):], added - header_added,
                removed - header_removed)

    def seed_hunks(self, body: str, added: int, removed: int) -> None:
        """Adopt a render of this file's edit made under any filename (the
        inverse of :meth:`hunks`): the header is re-rendered from this
        result's own filename, so no ``difflib`` runs."""
        header, header_added, header_removed = _header(self.filename)
        self._rendered = (self.filename, self.original_text, self.text,
                          header + body, added + header_added,
                          removed + header_removed)

    def adopt_diff(self, other: "FileResult") -> bool:
        """Take ``other``'s already rendered diff when it is the same diff
        (same filename and texts); returns whether it did.  Nothing is
        rendered either way."""
        rendered = other._current()
        if rendered is None or other.filename != self.filename \
                or other.original_text != self.original_text \
                or other.text != self.text:
            return False
        self._rendered = (self.filename, self.original_text, self.text,
                          *rendered[3:])
        return True


@dataclass
class PatchResult:
    """The outcome of applying a semantic patch to a whole code base."""

    files: dict[str, FileResult] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: driver timing/coverage breakdown (a ``DriverStats``); not part of the
    #: semantic outcome, so excluded from equality
    stats: object = field(default=None, compare=False, repr=False)

    def __iter__(self) -> Iterator[FileResult]:
        return iter(self.files.values())

    def __getitem__(self, filename: str) -> FileResult:
        return self.files[filename]

    def get(self, filename: str) -> Optional[FileResult]:
        return self.files.get(filename)

    @property
    def changed_files(self) -> list[FileResult]:
        return [f for f in self.files.values() if f.changed]

    @property
    def total_matches(self) -> int:
        return sum(f.total_matches for f in self.files.values())

    def matches_of(self, rule: str) -> int:
        return sum(f.matches_of(rule) for f in self.files.values())

    def diff(self, context: int = DIFF_CONTEXT) -> str:
        """Concatenated unified diff across all changed files."""
        return "".join(f.diff(context) for f in self.files.values() if f.changed)

    def lines_added(self) -> int:
        return sum(f.change_counts()[0] for f in self.files.values())

    def lines_removed(self) -> int:
        return sum(f.change_counts()[1] for f in self.files.values())

    def summary(self) -> dict[str, int]:
        added = removed = 0
        for file_result in self.files.values():
            file_added, file_removed = file_result.change_counts()
            added += file_added
            removed += file_removed
        return {
            "files": len(self.files),
            "changed_files": len(self.changed_files),
            "matches": self.total_matches,
            "lines_added": added,
            "lines_removed": removed,
        }
