"""The three workloads: what one op is, how set-up is timed, and how every
op's output is checked.  See README.md for why each workload exists.

A workload exposes ``setup()`` (returning its own time in seconds),
``setup_processes`` (how many processes time a set-up), ``warm_up()``,
``units()`` (an endless sequence of schedule units, each a list of
``(kind, op)`` pairs) and ``check()``.  An op returns its own wall time in seconds, measured around
the program's work only: cache clearing, garbage collection and output
checks happen outside it.
"""

import copy
import gc
import json
import os
import time

from repro import CodeBase
from repro.engine.cache import DEFAULT_TREE_CACHE
from repro.engine.compile import clear_compile_cache
from repro.server.client import RemoteClient
from repro.server.daemon import PatchDaemon
from repro.server.protocol import result_payload
from repro.server.service import PatchService

import inputs

#: where the server workload puts its socket (relative to the checkout root,
#: which keeps the path well under the unix-socket length limit)
RUN_DIR = ".perfbench_run"


def _cold_caches() -> None:
    """What a fresh CLI process starts from: no parse trees, no compiled
    rules (the batch ops never pass a memo)."""
    DEFAULT_TREE_CACHE.clear()
    clear_compile_cache()
    gc.collect()


class Outcomes:
    """Checked ops, and the failed or wrong ones with their first few
    reasons (for stderr)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class ColdCookbook:
    """One op: a cold ``PatchSet.apply`` of the whole cookbook over the tree
    plus rendering its diff (the CLI batch run, jobs=1)."""

    kinds = ("pass",)
    #: the program's import dominates a batch set-up and happens once per
    #: process, so set-up is timed in this many processes
    setup_processes = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.outcomes = Outcomes()
        self.outputs: list = []

    def setup(self) -> float:
        started = time.perf_counter()
        self.inputs = inputs.Inputs(self.seed)
        self.patches = inputs.cookbook()
        return time.perf_counter() - started

    def _apply(self, tree=None, **kwargs) -> str:
        codebase = CodeBase.from_files(tree or self.inputs.tree_a)
        return self.patches.apply(codebase, jobs=1, **kwargs).diff()

    def op(self, tree=None) -> float:
        _cold_caches()
        started = time.perf_counter()
        diff = self._apply(tree)
        elapsed = time.perf_counter() - started
        self.outputs.append(diff)
        return elapsed

    def warm_up(self) -> None:
        """One untimed op over a slice of the tree: the first file of every
        generator, which reaches every patch's code path at a ninth of the
        cost of a whole op."""
        self.op(self.inputs.warm_up_slice())
        self.outputs.clear()

    def units(self):
        while True:
            yield [(self.kinds[0], self.op)]

    def reference(self):
        return self._apply(compile=False)

    def check(self) -> None:
        """Every op's output must equal the reference from the interpreted
        matcher (the ``REPRO_MATCHER=interp`` backend), not the compiled
        path under test.  The reference reuses the parse trees the last op
        left in the cache: both backends share the parser, and a cold parse
        would double the run's untimed cost."""
        expected = self.reference()
        for index, output in enumerate(self.outputs):
            self.outcomes.attempted += 1
            if output != expected:
                self.outcomes.fail(f"op {index}: diff differs from the "
                                   f"interpreted reference")
        self.outputs.clear()


class OnePatch(ColdCookbook):
    """One op: each of the 12 cookbook patches applied separately and cold
    with ``SemanticPatch.apply`` (one ``spatch --sp-file`` call each), with
    its diff rendered.  The op's time is the sum of the 12 applies; clearing
    the caches between them is not timed."""

    kinds = ("cycle",)

    def _apply_one(self, patch, tree=None, **kwargs) -> str:
        codebase = CodeBase.from_files(tree or self.inputs.tree_a)
        return patch.apply(codebase, jobs=1, **kwargs).diff()

    def op(self, tree=None) -> float:
        total = 0.0
        diffs = []
        gc.collect()
        for patch in self.patches:
            DEFAULT_TREE_CACHE.clear()
            clear_compile_cache()
            started = time.perf_counter()
            diffs.append(self._apply_one(patch, tree))
            total += time.perf_counter() - started
        self.outputs.append(diffs)
        return total

    def reference(self) -> list[str]:
        return [self._apply_one(patch, compile=False)
                for patch in self.patches]


class ServerSession:
    """An editor or CI integration talking to a warm in-process daemon over
    a unix socket: one client connection, closed loop, service defaults
    (workers=1, jobs=1).  A cycle is edit, query, switch; a round is
    ``inputs.STRATA`` cycles."""

    kinds = ("edit", "query", "switch")
    #: set-up applies the cookbook to both branches (~11 s): timed once
    setup_processes = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.outcomes = Outcomes()
        self.daemon = None
        self.client = None
        self.thread = None

    def setup(self) -> float:
        started = time.perf_counter()
        self.inputs = inputs.Inputs(self.seed)
        self.patches = list(inputs.cookbook())
        os.makedirs(RUN_DIR, exist_ok=True)
        self.socket_path = os.path.join(RUN_DIR, f"spatchd-{os.getpid()}.sock")
        self.daemon = PatchDaemon(f"unix:{self.socket_path}", PatchService())
        self.thread = self.daemon.serve_in_thread()
        self.client = RemoteClient(self.daemon.address)
        self.client.open_workspace("bench")
        self.trees = {"a": dict(self.inputs.tree_a),
                      "b": dict(self.inputs.tree_b)}
        #: the reply first recorded for each branch (every later apply on
        #: that branch must equal it, modulo the revision constants)
        self.recorded = {}
        for branch in ("a", "b"):
            self.recorded[branch] = self._sync_apply(self.trees[branch])
        elapsed = time.perf_counter() - started
        self.branch = "b"
        self.revs: dict[str, int] = {}
        self.next_rev = inputs.REV_BASE
        self.round = 0
        self.last_payload = self.recorded["b"]
        return elapsed

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.daemon is not None:
            self.daemon.shutdown()
            self.thread.join(timeout=30)
            self.daemon = None
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass

    # -- ops -----------------------------------------------------------------

    def _sync_apply(self, tree: dict) -> dict:
        self.client.sync_codebase("bench", CodeBase.from_files(tree))
        return self.client.apply("bench", self.patches)

    def _expected(self, branch: str, query: bool = False) -> dict:
        """The reply first recorded for ``branch`` with every edited file's
        revision constant brought up to date (an edit changes only that
        constant, so nothing else in the reply may move)."""
        expected = copy.deepcopy(self.recorded[branch])
        old = f"perfbench_rev = {inputs.REV_BASE:06d};"
        for name, entry in expected["files"].items():
            if query:
                entry.pop("diff", None)
            elif name in self.revs and "diff" in entry:
                entry["diff"] = entry["diff"].replace(
                    old, f"perfbench_rev = {self.revs[name]:06d};")
        return expected

    def _checked(self, kind: str, call, query: bool = False) -> float:
        gc.collect()
        self.outcomes.attempted += 1
        started = time.perf_counter()
        try:
            payload = call()
        except Exception as exc:  # a RemoteError is a failed op
            self.outcomes.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        if payload != self._expected(self.branch, query=query):
            self.outcomes.fail(f"{kind} on branch {self.branch}: reply "
                               f"differs from the one first recorded")
        if not query:
            self.last_payload = payload
        return elapsed

    def _edit(self, name: str) -> float:
        self.next_rev += 1
        self.revs[name] = self.next_rev
        for tree in self.trees.values():
            tree[name] = inputs.with_rev(tree[name], self.next_rev)
        return self._checked(
            "edit", lambda: self._sync_apply(self.trees[self.branch]))

    def _query(self) -> float:
        return self._checked(
            "query", lambda: self.client.query("bench", self.patches),
            query=True)

    def _switch(self) -> float:
        self.branch = "a" if self.branch == "b" else "b"
        return self._checked(
            "switch", lambda: self._sync_apply(self.trees[self.branch]))

    def _cycle(self, name: str) -> list:
        return [("edit", lambda: self._edit(name)),
                ("query", self._query),
                ("switch", self._switch)]

    def warm_up(self) -> None:
        for _, op in self._cycle(self.inputs.edit_round(0)[0]):
            op()

    def units(self):
        while True:
            unit = []
            for name in self.inputs.edit_round(self.round):
                unit += self._cycle(name)
            self.round += 1
            yield unit

    # -- final check -----------------------------------------------------------

    def _cold_payload(self, tree: dict) -> dict:
        result = inputs.cookbook().apply(CodeBase.from_files(tree), jobs=1)
        payload = result_payload(result, self.patches)
        return json.loads(json.dumps(payload))

    def check(self) -> None:
        """The final workspace reply must equal a cold ``PatchSet.apply`` of
        the final tree.  The other branch is checked too, against a cold
        apply that reuses the first check's parse trees (only its branch
        files parse afresh), so both recorded replies are proven right."""
        _cold_caches()
        other = "a" if self.branch == "b" else "b"
        for branch, payload in ((self.branch, dict(self.last_payload)),
                                (other, self._expected(other))):
            payload.pop("workspace", None)
            if payload != self._cold_payload(self.trees[branch]):
                self.outcomes.fail(f"reply for branch {branch} differs from "
                                   f"a cold PatchSet.apply of its final tree")


WORKLOADS = {
    "cold_cookbook": ColdCookbook,
    "one_patch": OnePatch,
    "server_session": ServerSession,
}
