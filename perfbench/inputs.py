"""Seeded inputs: the 44-file mixed HPC tree, its second branch state, the
12-patch cookbook and the in-place edits of the server session.

Everything here is a pure function of the workload seed.  The seed picks the
generators' own seeds (so identifiers, operators and loop shapes differ from
seed to seed) but never the tree's shape: every seed gives the same files per
generator, the same branch size and the same edit mix, so the cost of an op
does not depend on which seed a run drew.
"""

import random
import re

from repro import CodeBase
from repro.cookbook import full_modernization_pipeline
from repro.workloads import (cuda_app, gadget, openacc_app, openmp_kernels,
                             rawloops)

#: one line appended to every generated file; the server session's edits
#: rewrite its value in place.  Six digits before and after an edit, so an
#: edited file never changes size, and no cookbook rule matches the line.
REV_LINE = "static const int perfbench_rev = {:06d};\n"
REV_BASE = 100000
_REV_RE = re.compile(r"perfbench_rev = (\d{6});")

#: the generators of the mixed tree, by directory: 6 CUDA drivers buried
#: among OpenMP, GADGET, raw-loop and OpenACC sources
GROUPS = ("cuda", "omp", "gadget", "raw", "acc")

#: files per stratum that branch B regenerates (8 of 44), and that one
#: round of the server schedule edits (8 cycles per round).  A stratum is a
#: file name with its digits removed: one generator's one kind of file.
#: Every round has this mix, so every run executes the same multiset of ops
#: whatever the seed.
STRATA = {"cuda/cuda_app_.cu": 1, "omp/kernels_.c": 2, "gadget/timestep_.c": 2,
          "raw/search_.cpp": 2, "acc/acc_app_.c": 1}


def _generate(group: str, seed: int) -> CodeBase:
    if group == "cuda":
        return cuda_app.generate(n_files=6, seed=seed)
    if group == "omp":
        return openmp_kernels.generate(n_files=12, kernels_per_file=4,
                                       regions_per_file=3, seed=seed)
    if group == "gadget":
        return gadget.generate(n_files=10, loops_per_file=4,
                               grid_kernels_per_file=2, seed=seed)
    if group == "raw":
        return rawloops.generate(n_files=8, seed=seed)
    return openacc_app.generate(n_files=6, seed=seed)


def _group_files(group: str, seed: int) -> dict[str, str]:
    return {f"{group}/{name}": text + "\n" + REV_LINE.format(REV_BASE)
            for name, text in _generate(group, seed).items()}


def stratum_of(name: str) -> str:
    return re.sub(r"\d+", "", name)


class Inputs:
    """The generated inputs of one seed.

    ``tree_a`` is the mixed tree; ``tree_b`` is branch B: ``tree_a`` with
    ``branch_names`` regenerated from other generator seeds."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        seeds_a = {group: rng.randrange(1 << 30) for group in GROUPS}
        seeds_b = {group: rng.randrange(1 << 30) for group in GROUPS}
        self.tree_a: dict[str, str] = {}
        for group in GROUPS:
            self.tree_a.update(_group_files(group, seeds_a[group]))
        self.tree_b = dict(self.tree_a)
        regenerated = {}
        for group in GROUPS:
            regenerated.update(_group_files(group, seeds_b[group]))
        self.branch_names: list[str] = []
        for stratum, count in STRATA.items():
            names = sorted(n for n in self.tree_a if stratum_of(n) == stratum)
            picked = sorted(rng.sample(names, count))
            for name in picked:
                if regenerated[name] == self.tree_a[name]:
                    raise RuntimeError(f"branch file {name} did not change")
                self.tree_b[name] = regenerated[name]
            self.branch_names += picked
        # edit targets: the files both branches share, each stratum in a
        # seeded order that rounds walk through cyclically
        self._edit_order = {}
        for stratum in STRATA:
            names = sorted(n for n in self.tree_a if stratum_of(n) == stratum
                           and n not in self.branch_names)
            rng.shuffle(names)
            self._edit_order[stratum] = names
        self._round_seed = rng.randrange(1 << 30)

    def warm_up_slice(self) -> dict[str, str]:
        """The first file of every stratum."""
        names = [min(n for n in self.tree_a if stratum_of(n) == stratum)
                 for stratum in STRATA]
        return {name: self.tree_a[name] for name in names}

    def edit_round(self, index: int) -> list[str]:
        """The edit targets of round ``index``: the next ``STRATA``
        files of every stratum, interleaved in a fixed seeded order."""
        names = []
        for stratum, count in STRATA.items():
            order = self._edit_order[stratum]
            names += [order[(index * count + k) % len(order)]
                      for k in range(count)]
        random.Random(self._round_seed + index).shuffle(names)
        return names


def cookbook():
    """The 12-patch ``full_modernization_pipeline`` cookbook (a PatchSet)."""
    return full_modernization_pipeline()


def with_rev(text: str, rev: int) -> str:
    """``text`` with its revision constant rewritten to ``rev``."""
    new, count = _REV_RE.subn(f"perfbench_rev = {rev:06d};", text)
    if count != 1 or len(new) != len(text):
        raise RuntimeError("revision line missing or resized")
    return new
