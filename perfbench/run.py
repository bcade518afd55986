"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cold_cookbook --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  ``--trace 0`` times ops untraced and prints the end-to-end
metrics; ``--trace 1`` prints the per-layer breakdown of a traced pass (see
README.md).  Human-readable detail goes to stderr; the last line of stdout
is the result object.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a run, the traced run's repeat process included, must end within this
RUN_LIMIT_S = 170.0

#: the workloads (see workloads.py, which imports the program)
WORKLOAD_NAMES = ("cold_cookbook", "one_patch", "server_session")

#: the end-to-end metrics (name -> unit); every workload reports all of them
END_TO_END = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB"}

#: counts that must repeat exactly between two traced runs of one seed
REPEAT_COUNTS = ("calls.lexer.Lexer.tokenize", "calls.parser.parse_source",
                 "calls.session.FileSession.run",
                 "calls.compile.CompiledRule.match_all",
                 "calls.report.FileResult.diff", "cache_hits",
                 "memo_lookups", "memo_hits", "incremental_files",
                 "incremental_reused", "prefilter_total", "prefilter_skipped")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_units(workload, seconds: float):
    """Whole schedule units until the next one would end past ``seconds``
    (at least one).  Returns ``{kind: [seconds, ...]}`` and the peak RSS
    after the first unit, a fixed amount of work whatever the run length
    (the server's memo grows with every edit)."""
    samples = {kind: [] for kind in workload.kinds}
    units = workload.units()
    rss = None
    started = time.perf_counter()
    while True:
        unit_started = time.perf_counter()
        for kind, op in next(units):
            samples[kind].append(op())
        rss = rss or peak_rss_mb()
        now = time.perf_counter()
        if now - started + (now - unit_started) > seconds:
            return samples, rss


def settle() -> None:
    """Collect, then exempt everything alive after set-up and warm-up from
    later collections: the per-op collections outside the timed spans then
    cost milliseconds, not a scan of the daemon's whole heap."""
    gc.collect()
    gc.freeze()


def child_setups(args, count: int) -> list[float]:
    """Import plus set-up, timed in ``count`` fresh processes, one after
    the other."""
    times = []
    for _ in range(count):
        remaining = RUN_LIMIT_S - (time.perf_counter() - STARTED)
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--setup-only"],
            stdout=subprocess.PIPE, timeout=max(remaining, 1.0), check=True,
            text=True)
        times.append(json.loads(child.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def run_timed(workload, args, import_s: float) -> dict:
    """Set-up, warm-up, whole units for ``args.seconds``, then the output
    checks.  Returns the end-to-end metrics."""
    setup_s = statistics.median(
        [import_s + workload.setup()]
        + child_setups(args, workload.setup_processes - 1))
    workload.warm_up()
    settle()
    samples, rss = timed_units(workload, args.seconds)
    workload.check()
    # a cycle is one op of each kind; the sum of the per-kind medians keeps
    # one slow op of a kind from moving the cycle as a whole
    metrics = {"setup_s": setup_s, "peak_rss_mb": rss,
               "cycle_s": sum(statistics.median(values)
                              for values in samples.values())}
    for kind, values in samples.items():
        log(f"{kind}: n={len(values)} median={statistics.median(values):.4f}s"
            f" min={min(values):.4f}s max={max(values):.4f}s")
    return metrics


def run_traced(workload, seconds: float) -> tuple:
    """Set-up, warm-up, one untraced unit, then one traced unit.  Returns
    the per-op breakdown of the traced unit, the untraced op walls per kind
    and the tracer."""
    from layers import Tracer

    workload.setup()
    workload.warm_up()
    settle()
    units = workload.units()
    untraced = {kind: [] for kind in workload.kinds}
    for kind, op in next(units):
        untraced[kind].append(op())
    tracer = Tracer()
    tracer.install()
    try:
        for kind, op in next(units):
            tracer.begin_op(kind)
            tracer.end_op(op())
    finally:
        tracer.uninstall()
    return tracer.op_breakdown(), untraced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log(f"no program source under {os.path.join(ROOT, 'src')}; run from "
            f"a checkout of the repository")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    started = time.perf_counter()
    import workloads  # imports the program
    import_s = time.perf_counter() - started

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_only:
            result = {"setup_s": import_s + workload.setup()}
        elif args.trace:
            result = traced_result(workload, args)
        else:
            metrics = run_timed(workload, args, import_s)
            result = _result(workload, {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in END_TO_END.items()})
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def _result(workload, metrics: dict) -> dict:
    outcomes = workload.outcomes
    for reason in outcomes.reasons:
        log(f"FAILED: {reason}")
    return {"correct": outcomes.failed == 0 and outcomes.attempted > 0,
            "attempted": max(1, outcomes.attempted),
            "failed": outcomes.failed, "metrics": metrics}


def traced_result(workload, args):
    import layers

    breakdown, untraced, tracer = run_traced(workload, args.seconds)
    counts = [{key: op["counts"].get(key, 0) for key in REPEAT_COUNTS}
              for op in breakdown]
    if args.counts_only:
        return {"counts": counts}
    missing = layers.uncovered(args.workload, tracer.calls)
    workload.check()
    close = getattr(workload, "close", None)
    if close is not None:
        close()  # before the repeat run starts its own daemon
    os.makedirs(layers.TRACE_DIR, exist_ok=True)
    tracer.write_chrome_trace(os.path.join(
        layers.TRACE_DIR, f"{args.workload}-seed{args.seed}.json"))
    if missing:
        log(f"traced run: expected entry points recorded no calls: "
            f"{', '.join(missing)}")
        return None
    # the count self-check: a second traced run of the same seed, in a fresh
    # process with another hash seed, must count exactly the same
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    remaining = RUN_LIMIT_S - (time.perf_counter() - STARTED)
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", "1", "--counts-only"],
        env=env, stdout=subprocess.PIPE, timeout=max(remaining, 1.0),
        check=False, text=True)
    if child.returncode != 0:
        log("traced run: the repeat run failed")
        return None
    repeat = json.loads(child.stdout.strip().splitlines()[-1])["counts"]
    if repeat != counts:
        for index, (mine, theirs) in enumerate(zip(counts, repeat)):
            for key in REPEAT_COUNTS:
                if mine[key] != theirs[key]:
                    log(f"op {index}: {key} {mine[key]} != {theirs[key]}")
        log("traced run: counts differ between two runs of the same seed")
        return None
    metrics = layers.layer_metrics(args.workload, breakdown, untraced)
    for name, metric in metrics.items():
        log(f"{name:48s} {metric['value']:12.3f} {metric['unit']}")
    return _result(workload, metrics)


if __name__ == "__main__":
    sys.exit(main())
