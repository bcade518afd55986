"""Diff once: a file's unified diff and its +/- line counts are rendered at
most once and then carried — through result copies (incremental splices),
memo entries (filename-portable hunks) and combined pipeline views — so a
warm server query serializes without running ``difflib``.

The contract under test is byte-identity: every carried diff, count and
payload equals what a fresh render over the same texts produces, and any
reassignment of a result's filename or texts renders afresh.
"""

import difflib
import json
import pickle

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.engine.memo import MemoEntry, TransformMemo
from repro.engine.report import (FileResult, PatchResult, count_changes,
                                 diff_header, diff_renders)
from repro.obs import registry as _obs
from repro.server.protocol import result_payload
from repro.server.service import PatchService

RENAME_A = "@r@ @@\n- old_api();\n+ mid_api();\n"
RENAME_B = "@r@ @@\n- mid_api();\n+ new_api();\n"
SPECS = [{"kind": "smpl", "name": "rename_a", "text": RENAME_A},
         {"kind": "smpl", "name": "rename_b", "text": RENAME_B}]
PATCHES = [SemanticPatch.from_string(spec["text"], name=spec["name"])
           for spec in SPECS]

#: two branches of one tree: ``both.c`` is edited by both patches,
#: ``one.c`` by the second only, ``same.c`` is identical on both branches
BRANCH_A = {
    "both.c": "void f(void) {\n  old_api();\n  mid_api();\n}\n",
    "one.c": "void g(void) {\n  mid_api();\n}\n",
    "same.c": "void h(void) {\n  old_api();\n}\nint idle;\n",
    "none.c": "int zero(void) { return 0; }\n",
}
BRANCH_B = dict(BRANCH_A,
                **{"both.c": "void f(int x) {\n  old_api();\n  x++;\n"
                             "  mid_api();\n}\n",
                   "one.c": "void g(int y) {\n  mid_api();\n}\n"})


def _reference_diff(filename, original, text, context=3):
    """The pre-memo rendering, verbatim."""
    if original == text:
        return ""
    return "".join(difflib.unified_diff(
        original.splitlines(keepends=True), text.splitlines(keepends=True),
        fromfile=f"a/{filename}", tofile=f"b/{filename}", n=context))


def _reference_counts(diff):
    lines = diff.splitlines()
    return (len([line for line in lines if line.startswith("+")
                 and not line.startswith("+++")]),
            len([line for line in lines if line.startswith("-")
                 and not line.startswith("---")]))


def _cold_payload(tree, include_diff=True):
    result = PatchSet(PATCHES).apply(CodeBase.from_files(dict(tree)))
    return json.loads(json.dumps(result_payload(result, PATCHES,
                                                include_diff=include_diff)))


def _wire(payload):
    trimmed = {key: value for key, value in payload.items()
               if key not in ("profile", "workspace")}
    return json.loads(json.dumps(trimmed))


@pytest.fixture(autouse=True)
def _telemetry_on(monkeypatch):
    # the render counter only moves while telemetry is on
    monkeypatch.delenv("REPRO_OBS", raising=False)


#: texts whose diffs exercise the counting rules: added lines that render
#: as ``+++``, removed lines that render as ``---``, line breaks other
#: than ``\n`` inside a line, and a missing final newline
TRICKY = [
    ("a\nb\n", "a\n++i;\nb\n"),
    ("--x;\nkeep\n", "keep\n"),
    ("one\x0c+two\nthree\n", "one\nthree\n"),
    ("p\r\nq\r\n", "p\r\n+q\r\n"),
    ("no newline", "no newline at all"),
    ("", "fresh\nfile\n"),
    ("same\n", "same\n"),
]


class TestFileResultMemo:
    @pytest.mark.parametrize("original,text", TRICKY)
    def test_diff_and_counts_match_a_fresh_render(self, original, text):
        result = FileResult(filename="dir/f.c", original_text=original,
                            text=text)
        expected = _reference_diff("dir/f.c", original, text)
        assert result.diff() == expected
        assert result.change_counts() == _reference_counts(expected)
        assert len(result.added_lines()) == _reference_counts(expected)[0]
        assert len(result.removed_lines()) == _reference_counts(expected)[1]

    def test_renders_once_however_often_read(self):
        result = FileResult(filename="f.c", original_text="a\n", text="b\n")
        before = diff_renders()
        for _ in range(5):
            result.diff()
            result.change_counts()
        PatchResult(files={"f.c": result}).summary()
        assert diff_renders() - before == 1

    def test_unchanged_files_never_render(self):
        result = FileResult(filename="f.c", original_text="a\n", text="a\n")
        before = diff_renders()
        assert result.diff() == "" and result.change_counts() == (0, 0)
        assert diff_renders() == before

    def test_other_context_widths_render_uncached(self):
        original = "".join(f"line {i}\n" for i in range(20))
        result = FileResult(filename="f.c", original_text=original,
                            text=original.replace("line 10", "LINE 10"))
        assert result.diff(context=1) == _reference_diff(
            "f.c", result.original_text, result.text, context=1)
        assert result.diff() == _reference_diff(
            "f.c", result.original_text, result.text)

    @pytest.mark.parametrize("attribute,value", [
        ("text", "void f(void) { EVIL(); }\n"),
        ("original_text", "int other;\n"),
        ("filename", "renamed.c"),
    ])
    def test_reassignment_renders_afresh(self, attribute, value):
        result = FileResult(filename="a.c",
                            original_text="void f(void) { old(); }\n",
                            text="void f(void) { new(); }\n")
        stale = result.diff()
        setattr(result, attribute, value)
        fresh = _reference_diff(result.filename, result.original_text,
                                result.text)
        assert result.diff() == fresh != stale
        assert result.change_counts() == _reference_counts(fresh)

    def test_copy_carries_the_render_and_stays_independent(self):
        result = FileResult(filename="a.c", original_text="a\n", text="b\n")
        rendered = result.diff()
        before = diff_renders()
        clone = result.copy()
        assert clone.diff() == rendered and diff_renders() == before
        clone.text = "c\n"
        assert clone.diff() == _reference_diff("a.c", "a\n", "c\n")
        assert result.diff() == rendered

    def test_memo_survives_a_pickle_round_trip(self):
        result = FileResult(filename="a.c", original_text="a\n", text="b\n")
        rendered = result.diff()
        restored = pickle.loads(pickle.dumps(result))
        before = diff_renders()
        assert restored.diff() == rendered and diff_renders() == before
        assert restored == result

    @pytest.mark.parametrize("original,text", TRICKY)
    def test_hunks_reseed_under_another_filename(self, original, text):
        source = FileResult(filename="x/one.c", original_text=original,
                            text=text)
        body, added, removed = source.hunks()
        target = FileResult(filename="y/two.c", original_text=original,
                            text=text)
        if not body:
            assert not source.changed
            return
        before = diff_renders()
        target.seed_hunks(body, added, removed)
        expected = _reference_diff("y/two.c", original, text)
        assert target.diff() == expected
        assert target.change_counts() == _reference_counts(expected)
        assert diff_renders() == before

    def test_header_helpers_agree_with_difflib(self):
        diff = _reference_diff("a b/c.c", "x\n", "y\n")
        assert diff.startswith(diff_header("a b/c.c"))
        assert count_changes(diff) == _reference_counts(diff)

    def test_adopt_requires_the_same_diff(self):
        donor = FileResult(filename="a.c", original_text="a\n", text="b\n")
        donor.diff()
        same = FileResult(filename="a.c", original_text="a\n", text="b\n")
        other = FileResult(filename="b.c", original_text="a\n", text="b\n")
        unrendered = FileResult(filename="a.c", original_text="a\n",
                                text="b\n")
        assert same.adopt_diff(donor)
        assert not other.adopt_diff(donor)
        assert not same.adopt_diff(unrendered)
        assert other.diff() == _reference_diff("b.c", "a\n", "b\n")


class TestMemoEntryHunks:
    def test_hit_seeds_the_diff_without_difflib(self):
        session = FileResult(filename="a.c", original_text="int a;\n",
                             text="int b;\n")
        entry = MemoEntry.from_file_result(session)
        assert entry.hunks is not None
        before = diff_renders()
        rebuilt = entry.to_file_result("elsewhere/b.c", "int a;\n")
        assert rebuilt.diff() == _reference_diff("elsewhere/b.c", "int a;\n",
                                                 "int b;\n")
        assert diff_renders() == before

    def test_entry_without_hunks_renders_lazily(self):
        entry = MemoEntry(filename="a.c", text="int b;\n", output_sha=None,
                          reports=(), diagnostics=())
        rebuilt = entry.to_file_result("a.c", "int a;\n")
        assert rebuilt.diff() == _reference_diff("a.c", "int a;\n",
                                                 "int b;\n")

    def test_old_disk_version_entry_is_a_miss(self, tmp_path):
        """An entry written before entries carried hunks (no ``hunks``
        attribute, older version tag) degrades to a miss, and a pipeline
        over that directory still produces the cold output."""
        memo = TransformMemo(path=tmp_path / "memo")
        files = {"a.c": "void f(void) { old_api(); }\n"}
        PatchSet(PATCHES).apply(CodeBase.from_files(files), memo=memo)
        entry_files = list((tmp_path / "memo").rglob("*.memo"))
        assert entry_files
        for entry_file in entry_files:
            payload = pickle.loads(entry_file.read_bytes())
            legacy = object.__new__(MemoEntry)
            for name in ("filename", "text", "output_sha", "reports",
                         "diagnostics"):
                object.__setattr__(legacy, name,
                                   getattr(payload["entry"], name))
            payload["version"] = 1  # the layout before entries had hunks
            payload["entry"] = legacy
            entry_file.write_bytes(pickle.dumps(payload))

        fresh = TransformMemo(path=tmp_path / "memo")
        warm = PatchSet(PATCHES).apply(CodeBase.from_files(files), memo=fresh)
        assert fresh.disk_hits == 0 and fresh.disk_errors == len(entry_files)
        assert warm.stats.memo_hits == 0
        cold = PatchSet(PATCHES).apply(CodeBase.from_files(files))
        assert json.dumps(result_payload(warm, PATCHES)) == \
            json.dumps(result_payload(cold, PATCHES))


class TestPipelineCarry:
    def test_sole_edit_combined_view_adopts_the_patch_diff(self):
        memo = TransformMemo()
        result = PatchSet(PATCHES).apply(CodeBase.from_files(BRANCH_A),
                                         memo=memo)
        before = diff_renders()
        one = result["one.c"]
        assert one.diff() == _reference_diff("one.c", one.original_text,
                                             one.text)
        assert diff_renders() == before  # adopted from rename_b's view
        both = result["both.c"]
        assert both.diff() == _reference_diff("both.c", both.original_text,
                                              both.text)
        assert diff_renders() == before + 1  # two edits: rendered

    def test_incremental_splice_carries_every_render(self):
        patchset = PatchSet(PATCHES)
        prior = patchset.apply(CodeBase.from_files(BRANCH_A))
        result_payload(prior, PATCHES)
        before = diff_renders()
        warm = patchset.apply(CodeBase.from_files(BRANCH_A), since=prior)
        assert warm.incremental.files_reused == len(BRANCH_A)
        payload = result_payload(warm, PATCHES)
        assert diff_renders() == before
        assert json.loads(json.dumps(payload)) == _cold_payload(BRANCH_A)

    def test_state_written_without_renders_still_splices(self, tmp_path):
        """A state file whose results carry no render (written before
        results carried one) loads, splices and renders lazily."""
        from repro.engine.incremental import PipelineState

        patchset = PatchSet(PATCHES)
        prior = patchset.apply(CodeBase.from_files(BRANCH_A))
        for view in [prior, *prior.per_patch]:
            for file_result in view:
                file_result.__dict__.pop("_rendered", None)
        PipelineState(result=prior).save(tmp_path / "state")
        loaded = PipelineState.load(tmp_path / "state")
        assert loaded is not None
        warm = patchset.apply(CodeBase.from_files(BRANCH_A),
                              since=loaded.result)
        assert warm.incremental.files_reused == len(BRANCH_A)
        assert json.loads(json.dumps(result_payload(warm, PATCHES))) == \
            _cold_payload(BRANCH_A)


def _session_ops(service):
    """Cold apply, edit, query, switch to B, switch back: every reply
    paired with the cold reference it must equal byte for byte."""
    service.open_workspace("w")
    tree = dict(BRANCH_A)
    replies = []

    def apply(current):
        service.sync_files("w", files=dict(current))
        replies.append(("apply", _wire(service.apply("w", SPECS)),
                        _cold_payload(current)))

    apply(tree)
    tree["same.c"] += "int edited;\n"
    apply(tree)
    replies.append(("query", _wire(service.query("w", SPECS)),
                    _cold_payload(tree, include_diff=False)))
    apply(dict(BRANCH_B, **{"same.c": tree["same.c"]}))
    apply(tree)
    replies.append(("query", _wire(service.query("w", SPECS)),
                    _cold_payload(tree, include_diff=False)))
    return replies


class TestServerPayloads:
    def test_warm_payloads_equal_cold_serially(self):
        service = PatchService()
        try:
            for kind, warm, cold in _session_ops(service):
                assert warm == cold, kind
        finally:
            service.close()

    def test_warm_payloads_equal_cold_under_a_fleet(self, tmp_path):
        service = PatchService(workers=2, state_root=str(tmp_path / "state"))
        try:
            for kind, warm, cold in _session_ops(service):
                assert warm == cold, kind
        finally:
            service.close()

    def test_warm_query_renders_nothing(self):
        service = PatchService()
        try:
            service.open_workspace("w")
            service.sync_files("w", files=dict(BRANCH_A))
            service.apply("w", SPECS)
            before = diff_renders()
            for _ in range(3):
                payload = service.query("w", SPECS, profile=True)
                assert payload["profile"]["incremental"]["files_reused"] \
                    == len(BRANCH_A)
            assert diff_renders() == before
        finally:
            service.close()

    def test_memo_served_switch_renders_only_combined_diffs(self):
        """Back on a branch the memo has seen, every per-patch view is
        seeded from its entry and a sole-edit combined view adopts it:
        only ``both.c``'s combined diff (two patches edited it) renders."""
        service = PatchService()
        try:
            service.open_workspace("w")
            for tree in (BRANCH_A, BRANCH_B):
                service.sync_files("w", files=dict(tree))
                service.apply("w", SPECS)
            service.sync_files("w", files=dict(BRANCH_A))
            before = diff_renders()
            payload = service.apply("w", SPECS, profile=True)
            assert diff_renders() - before == 1
            assert payload["profile"]["stats"]["memo_misses"] == 0
            assert payload["profile"]["stats"]["memo_hits"] > 0
            assert _wire(payload) == _cold_payload(BRANCH_A)
        finally:
            service.close()

    def test_serialize_phase_is_recorded(self):
        service = PatchService()
        try:
            service.open_workspace("w")
            service.sync_files("w", files=dict(BRANCH_A))
            count = _obs._PHASE_HISTOGRAMS["serialize"].state()["count"]
            service.apply("w", SPECS)
            service.query("w", SPECS)
            assert _obs._PHASE_HISTOGRAMS["serialize"].state()["count"] \
                == count + 2
            prometheus = service.metrics()["prometheus"]
            assert 'repro_phase_seconds_count{phase="serialize"}' \
                in prometheus
            assert "repro_report_diff_renders_total" in prometheus
        finally:
            service.close()

    def test_pipeline_scans_record_prefilter_observations(self):
        """A ``PatchSet`` run without a token index scans files directly and
        re-scans each edited patch boundary; both are prefilter time."""
        count = _obs._PHASE_HISTOGRAMS["prefilter"].state()["count"]
        PatchSet(PATCHES).apply(dict(BRANCH_A))
        assert _obs._PHASE_HISTOGRAMS["prefilter"].state()["count"] \
            >= count + len(BRANCH_A)
