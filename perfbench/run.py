"""The repository benchmark: one command, two workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chase_deep --seed 1 --seconds 40 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``chase_deep``  -- closed loop, one caller, ``Solver.solve`` on distinct
  chase-bound problems (budgeted chase, checkpoint logs on), compared with
  the ``rescan`` strategy's answers with ``chase.rounds`` left out;
* ``service_mix`` -- open loop against ``python -m repro.service``, a
  stream of small text queries (mostly cache hits) at a ladder of fixed
  offered rates.

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs a fixed amount of work untraced and traced and reports the
per-layer metrics and the tracing overhead.  Every answer is checked
against a reference (untimed); a wrong answer makes the run print
``"correct": false`` and exit 1.  The last stdout line is the JSON result;
the lines before it list every metric by name with its unit, and a fuller
record (configuration, tail percentiles, sample counts) is written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import measure  # noqa: E402

WORKLOADS = ("chase_deep", "service_mix")

#: Environment overrides that select a different program; cleared in every
#: process the benchmark runs.
PINNED_ENV = ("REPRO_CHASE_KERNEL", "REPRO_CACHE_MODE", "REPRO_CHECKPOINT")

#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Fixed work of a traced chase_deep run: one cycle of problems.
TRACE_PROBLEMS = gen.DEEP_CYCLE_LENGTH

#: The end-to-end metrics (``--trace 0``), in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "queries/s"),
    ("max_rate_qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
    ("decided_share", "ratio"),
    ("ok_share", "ratio"),
)

#: The per-layer metrics (``--trace 1``), in BENCHMARK.json order.  Every
#: workload prints all of them; a layer the workload does not reach reads 0.
PER_LAYER = (
    ("chase.runs", "count"),
    ("chase.busy_ms", "ms"),
    ("chase.steps", "count"),
    ("chase.rounds", "count"),
    ("chase.exhausted_share", "ratio"),
    ("chase.discover.busy_ms", "ms"),
    ("chase.discover.triggers", "count"),
    ("chase.observe.busy_ms", "ms"),
    ("chase.check.calls", "count"),
    ("chase.check.busy_ms", "ms"),
    ("chase.check.active_share", "ratio"),
    ("chase.apply.td_calls", "count"),
    ("chase.apply.egd_calls", "count"),
    ("chase.apply.busy_ms", "ms"),
    ("chase.round.self_ms", "ms"),
    ("chase.useful_share", "ratio"),
    ("chase.oracle.busy_ms", "ms"),
    ("chase.checkpoint.busy_ms", "ms"),
    ("chase.checkpoint.bytes", "bytes"),
    ("implication.busy_ms", "ms"),
    ("implication.fd_closure.calls", "count"),
    ("implication.fd_closure.busy_ms", "ms"),
    ("implication.full_fragment.calls", "count"),
    ("implication.full_fragment.busy_ms", "ms"),
    ("implication.prove.calls", "count"),
    ("implication.prove.busy_ms", "ms"),
    ("implication.normalize.busy_ms", "ms"),
    ("implication.finite_search.calls", "count"),
    ("implication.finite_search.busy_ms", "ms"),
    ("implication.finite_search.found_share", "ratio"),
    ("api.parse.calls", "count"),
    ("api.parse.busy_ms", "ms"),
    ("api.identity.calls", "count"),
    ("api.identity.busy_ms", "ms"),
    ("api.store.get.calls", "count"),
    ("api.store.get.busy_ms", "ms"),
    ("api.store.put.calls", "count"),
    ("api.store.put.busy_ms", "ms"),
    ("api.store.hit_share", "ratio"),
    ("api.store.evictions", "count"),
    ("api.batch.unique_share", "ratio"),
    ("api.batch.canonical_hits", "count"),
    ("api.batch.syntactic_hits", "count"),
    ("api.batch.self_ms", "ms"),
    ("service.wire_ms", "ms"),
    ("service.generator_lag_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.server.self_ms", "ms"),
    ("service.join_share", "ratio"),
    ("service.batch_size.mean", "count"),
    ("service.pool_saturation.high_water", "ratio"),
    ("service.store.hit_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: A child phase that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150

OUT_DIR = ".perfbench"

# The cold-start probe: import, build the workload's solver, one trivial solve.
_SETUP_PROBE = """
import sys
sys.path.insert(0, {here!r})
from repro.api import Solver
import inproc
config = inproc.deep_config({ckpt!r})
solver = Solver(universe=inproc.gen.DEEP_UNIVERSE, config=config)
solver.solve(solver.problem(["A ->> B"], "A ->> CD"))
print("ready", flush=True)
"""


class RunError(RuntimeError):
    """A benchmark phase could not complete (no result is printed)."""


def child_env() -> Dict[str, str]:
    """The environment of every benchmark child: program on the path, pins cleared."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = os.path.abspath("src")
    env.pop("PYTHONHOME", None)
    return env


def run_children(arg_lists: List[List[str]], timeout: float = CHILD_TIMEOUT_S) -> List[dict]:
    """Run ``python perfbench/inproc.py ...`` once per argument list, concurrently.

    Each child's last stdout line is JSON; the results come back in order.
    Every child has ended when this returns.
    """
    procs = [subprocess.Popen([sys.executable, os.path.join(HERE, "inproc.py"), *args],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env(), text=True)
             for args in arg_lists]
    deadline = time.monotonic() + timeout
    results = []
    try:
        for args, proc in zip(arg_lists, procs):
            try:
                out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise RunError(f"phase {args[:2]} exceeded {timeout}s")
            if proc.returncode != 0 or not out.strip():
                raise RunError(f"phase {args[:2]} failed ({proc.returncode}): {err[-2000:]}")
            results.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
    return results


def run_child(args: List[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one ``python perfbench/inproc.py ...`` phase; returns its JSON result."""
    return run_children([args], timeout)[0]


def run_oracle(workload: str, seed: int, count: int) -> dict:
    """Reference answers for the first ``count`` operations of a workload.

    The oracle is untimed, so its work is split over ``nproc`` processes.
    chase_deep's digests come back as lists in problem order; query answers
    as one dict by statement.
    """
    shards = max(1, min(2, os.cpu_count() or 1))
    phase = "deep_oracle" if workload == "chase_deep" else "query_oracle"
    parts = run_children([[phase, "--seed", str(seed), "--ops", str(count),
                           "--shard", str(i), "--shards", str(shards)]
                          for i in range(shards)])
    bad = [key for part in parts for key in part["bad_counterexamples"]]
    if workload != "chase_deep":
        answers = {k: v for part in parts for k, v in part["answers"].items()}
        return {"answers": answers, "bad_counterexamples": bad}
    order = sorted((index, part["digests"][i], part["full_digests"][i])
                   for part in parts for i, index in enumerate(part["indices"]))
    return {"digests": [entry[1] for entry in order],
            "full_digests": [entry[2] for entry in order],
            "busy_s": sum(part["busy_s"] for part in parts),
            "bad_counterexamples": sorted(bad)}


def cold_start_s() -> float:
    """Seconds from spawning a fresh interpreter to its first answered query."""
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    ckpt = tempfile.mkdtemp(prefix="setup-", dir=tmp)
    code = _SETUP_PROBE.format(here=HERE, ckpt=os.path.abspath(ckpt))
    try:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=child_env(), text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready":
            raise RunError(f"cold-start probe failed: {err[-2000:]}")
        return elapsed
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)


def environment_record() -> dict:
    """Versions and machine facts recorded beside every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cleared_env": list(PINNED_ENV),
    }


# -- chase_deep (in-process) -------------------------------------------------------


def _deep_metrics(timed: dict, setup: List[float]):
    answered = timed["answered"]
    busy = timed["busy_s"]
    lat_ms = [s * 1000.0 for s in timed["latencies_s"]]
    tail_value, tail_pct, samples = measure.tail(lat_ms)
    throughput = answered / busy if busy else 0.0
    attempted = max(timed["attempted"], 1)
    m = measure.metric
    metrics = {
        "setup_s": m(statistics.median(setup), "s"),
        "throughput_qps": m(throughput, "queries/s"),
        # A closed loop with one caller sustains exactly its throughput.
        "max_rate_qps": m(throughput, "queries/s"),
        "latency_p50_ms": m(measure.median(lat_ms), "ms"),
        "latency_tail_ms": m(tail_value, "ms"),
        "cpu_ms_per_query": m(1000.0 * timed["cpu_s"] / max(answered, 1), "ms"),
        "peak_rss_mb": m(timed["peak_rss_mb"], "MB"),
        "decided_share": m(timed["decided"] / max(answered, 1), "ratio"),
        "ok_share": m((attempted - timed["failed"]) / attempted, "ratio"),
    }
    details = {
        "latency_tail_percentile": tail_pct,
        "latency_samples": samples,
        "latencies_ms": lat_ms,
        "setup_samples_s": setup,
        "answered": answered,
        "busy_s": busy,
    }
    return metrics, details


def check_deep(result: dict, oracle: dict) -> List[str]:
    """Mismatches between a chase_deep run and the rescan oracle.

    The digests leave ``chase.rounds`` out (see
    ``inproc.digest_without_rounds``); every other field must match.
    """
    problems = []
    for index, (got, want) in enumerate(zip(result["digests"], oracle["digests"])):
        if got != want:
            problems.append(f"problem {index}: answer differs from the rescan oracle")
    if len(result["digests"]) != len(oracle["digests"]):
        problems.append("oracle answered a different number of problems")
    for index in result["bad_counterexamples"] + oracle["bad_counterexamples"]:
        problems.append(f"problem {index}: counterexample does not refute")
    for index in result.get("vacuous_ops", []):
        problems.append(f"problem {index}: applied no chase step")
    return problems


def rounds_only_differences(result: dict, oracle: dict) -> int:
    """Problems whose answers differ from the oracle's in ``chase.rounds`` alone."""
    return sum(
        got == want and full_got != full_want
        for got, want, full_got, full_want in zip(
            result["digests"], oracle["digests"],
            result["full_digests"], oracle["full_digests"])
    )


def run_deep(seed: int, seconds: float, trace: bool):
    """Run chase_deep; returns (result, details)."""
    if not trace:
        setup = [cold_start_s() for _ in range(SETUP_REPEATS)]
        timed = run_child(["timed", "--seed", str(seed), "--seconds", str(seconds)])
        metrics, details = _deep_metrics(timed, setup)
        runs = [timed]
    else:
        # Untraced, traced, untraced: the overhead compares the traced pass
        # with the mean of the two untraced ones around it.
        ops = ["--seed", str(seed), "--ops", str(TRACE_PROBLEMS)]
        before = run_child(["fixed", *ops])
        traced = run_child(["fixed", *ops, "--trace", "1"])
        after = run_child(["fixed", *ops])
        plain_s = (before["busy_s"] + after["busy_s"]) / 2
        metrics = {name: measure.metric(value, unit)
                   for name, (value, unit) in traced["layers"]["metrics"].items()}
        metrics["trace.overhead_ratio"] = measure.metric(
            traced["busy_s"] / plain_s if plain_s else 0.0, "ratio")
        details = {"traced_busy_s": traced["busy_s"],
                   "untraced_busy_s": [before["busy_s"], after["busy_s"]],
                   "spans": traced["layers"]["spans"],
                   "resolved": traced["layers"]["config"]}
        timed = traced
        runs = [before, traced, after]
    oracle = run_oracle("chase_deep", seed, timed["attempted"])
    problems: List[str] = []
    for run in runs:
        problems += check_deep(run, oracle)
    details["rounds_only_differences"] = rounds_only_differences(timed, oracle)
    if trace:
        metrics["chase.oracle.busy_ms"] = measure.metric(1000.0 * oracle["busy_s"], "ms")
    details.update({
        "strategies": timed.get("strategies"), "kernels": timed.get("kernels"),
        "cache_mode": timed["cache_mode"], "mismatches": problems[:20],
    })
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    return result, details


def emit(workload: str, seed: int, trace: bool, result: dict, details: dict) -> None:
    """Print every metric by name and unit, save the record, print the result line."""
    expected = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    for name, unit in expected:
        # A layer the workload does not reach reads zero.
        metrics.setdefault(name, measure.metric(0.0, unit))
        if metrics[name]["unit"] != unit:
            raise RunError(f"metric {name} has unit {metrics[name]['unit']}")
    extra = set(metrics) - {name for name, _ in expected}
    if extra:
        raise RunError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    result["metrics"] = {name: metrics[name] for name, _ in expected}
    for name, entry in result["metrics"].items():
        print(f"# {workload} {name} = {entry['value']:.6g} {entry['unit']}")
    record = {"workload": workload, "seed": seed, "trace": trace,
              "environment": environment_record(), "details": details, **result}
    for key in ("latency_tail_percentile", "latency_samples",
                "latency_tail_whole_run", "latency_segment_tails_ms",
                "rounds_only_differences", "cache_mode",
                "strategies", "kernels"):
        if key in details:
            print(f"# {workload} {key} = {details[key]}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{workload}-s{seed}-t{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for line in details.get("mismatches", []):
        print(f"# MISMATCH {line}")
    print(json.dumps(result, sort_keys=True), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    trace = bool(args.trace)
    try:
        if args.workload == "service_mix":
            import service_mix

            result, details = service_mix.run(args.seed, args.seconds, trace, child_env,
                                              run_oracle)
        else:
            result, details = run_deep(args.seed, args.seconds, trace)
        emit(args.workload, args.seed, trace, result, details)
    except RuntimeError as exc:  # RunError, or a service that failed to start/stop
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
