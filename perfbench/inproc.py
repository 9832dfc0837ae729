"""Child-process side of the benchmark: ``chase_deep`` and the reference answers.

Each phase runs in a fresh interpreter, started by ``run.py`` with the
program's ``src`` on ``PYTHONPATH`` and the ``REPRO_*`` overrides cleared,
and prints one JSON object as its last stdout line::

    python perfbench/inproc.py timed        --seed 1 --seconds 40
    python perfbench/inproc.py fixed        --seed 1 --ops 21 --trace 1
    python perfbench/inproc.py deep_oracle  --seed 1 --ops 84 --shard 0 --shards 2
    python perfbench/inproc.py query_oracle --seed 1 --ops 9000 --shard 0 --shards 2

``timed`` is chase_deep's closed loop over the whole cycles that take about
``--seconds`` on the reference machine (:func:`gen.deep_timed_problems`),
measured for the end-to-end metrics (tracing off); ``fixed`` replays a fixed number of chase_deep problems,
traced or not, for the per-layer metrics and the tracing overhead; the
oracles compute the reference answers the correctness gates compare
against (chase_deep's and service_mix's).  They are untimed, so their work
is split over ``--shards`` processes that each answer every
``shards``-th problem.  Answers travel
as SHA-256 digests of their canonical JSON (sorted keys, compact
separators), so equal digests mean byte-identical outcomes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402

OUT_DIR = ".perfbench"


def digest_payload(payload: dict) -> str:
    """SHA-256 of an outcome payload's canonical JSON (the protocol's normal form)."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def canonical_digest(outcome) -> str:
    """SHA-256 of an outcome's canonical JSON."""
    return digest_payload(outcome.to_dict())


def digest_without_rounds(outcome) -> str:
    """SHA-256 of an outcome's canonical JSON with ``chase.rounds`` left out.

    ``rounds`` is scheduling bookkeeping: strategies that apply the same
    steps may count rounds differently, so the repo's cross-strategy
    differential and checkpoint suites leave it out of their comparisons,
    and chase_deep's comparison with the ``rescan`` oracle does the same.
    Every other field must be byte-identical.
    """
    payload = outcome.to_dict()
    if "chase" in payload:
        payload["chase"].pop("rounds", None)
    return digest_payload(payload)


def check_answers(result: dict, oracle: dict, reference: str) -> List[str]:
    """Mismatches between streamed answers and reference answers, by statement."""
    problems = [f"inconsistent answers within the run: {k}" for k in result["conflicts"]]
    for key, digest in result["answers"].items():
        if oracle["answers"].get(key) != digest:
            problems.append(f"query {key}: answer differs from {reference}")
    for key in result["bad_counterexamples"] + oracle["bad_counterexamples"]:
        problems.append(f"query {key}: counterexample does not refute")
    return problems


def decided(outcome) -> bool:
    """Whether the verdict is ``implied`` or ``not_implied``."""
    return not outcome.is_unknown()


def counterexample_ok(outcome, problem) -> bool:
    """A ``not_implied`` counterexample, when present, must really refute."""
    from repro.dependencies import is_counterexample

    if not outcome.is_refuted() or outcome.counterexample is None:
        return True
    return is_counterexample(
        outcome.counterexample, list(problem.premises), problem.conclusion
    )


# -- chase_deep -----------------------------------------------------------------


def deep_config(checkpoint_dir: Optional[str], strategy: str = "auto"):
    """The chase_deep solver config: default but for budget and checkpoint."""
    from repro.api import CheckpointConfig, SolverConfig

    config = SolverConfig().with_chase(max_steps=gen.CHASE_DEEP_MAX_STEPS)
    if strategy != "auto":
        config = config.with_strategy(strategy)
    if checkpoint_dir is not None:
        config = config.with_chase(
            checkpoint=CheckpointConfig(mode="on", directory=checkpoint_dir)
        )
    return config


class DeepSolvers:
    """The long-lived solvers of chase_deep, one per universe.

    The attribute-level families (pjd, mvd chain) share one solver over
    ``gen.DEEP_UNIVERSE``; the untyped semigroup encodings need the
    universe inferred per query, which a solver with a fixed attribute
    universe rejects, so they run on a second long-lived solver.
    """

    def __init__(self, config) -> None:
        from repro.api import Solver

        self.attribute = Solver(universe=gen.DEEP_UNIVERSE, config=config)
        self.untyped = Solver(config=config)

    def build(self, item: gen.DeepProblem):
        """``(solver, ImplicationProblem)`` for one generated problem."""
        from repro.api import ImplicationProblem
        from repro.semigroups import (
            Equation,
            SemigroupPresentation,
            WordProblemInstance,
            encode_instance,
            word,
        )

        if item.family != "semigroup":
            return self.attribute, self.attribute.problem(
                list(item.premises), item.conclusion, finite=item.finite
            )
        presentation = SemigroupPresentation(
            ("a", "b"),
            tuple(Equation(word(left), word(right)) for left, right in item.relations),
        )
        goal = Equation(word(item.goal[0]), word(item.goal[1]))
        encoded = encode_instance(WordProblemInstance(presentation, goal))
        return self.untyped, ImplicationProblem.of(
            encoded.premises, encoded.conclusion, finite=item.finite
        )


def run_deep(seed: int, ops: int, traced: bool, strategy: str = "auto",
             checkpoint: bool = True, shard: int = 0, shards: int = 1) -> dict:
    """Solve the first ``ops`` chase_deep problems one at a time on long-lived solvers.

    With ``shards`` > 1 only the problems whose index is ``shard`` modulo
    ``shards`` are solved; ``indices`` lists them.
    """
    base = os.path.join(OUT_DIR, "tmp")
    os.makedirs(base, exist_ok=True)
    ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=base) if checkpoint else None
    try:
        return _run_deep(seed, ops, traced, strategy, ckpt_dir, shard, shards)
    finally:
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)


def _run_deep(seed, ops, traced, strategy, ckpt_dir, shard, shards) -> dict:
    tracer = tracing.Tracer()
    latencies: List[float] = []
    indices: List[int] = []
    digests: List[str] = []
    full_digests: List[str] = []
    bad_counterexamples = []
    failed = 0
    decided_count = 0
    strategies, kernels = set(), set()
    per_op_steps: List[float] = []
    cpu = busy = 0.0
    items = gen.chase_deep_problems(seed)
    context = tracing.install(tracer) if traced else contextlib.nullcontext()
    with context:
        solvers = DeepSolvers(deep_config(ckpt_dir, strategy))
        for index, item in enumerate(itertools.islice(items, ops)):
            if index % shards != shard:
                continue
            indices.append(index)
            solver, problem = solvers.build(item)
            tracer.op = index
            steps_before = tracer.counts["chase.steps"] + tracer.counts["chase.exhausted"]
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                outcome = solver.solve(problem)
            except Exception as exc:  # counted, reported, never hidden
                busy += time.perf_counter() - start
                cpu += time.process_time() - cpu_start
                failed += 1
                digests.append(f"error:{type(exc).__name__}")
                full_digests.append(digests[-1])
                continue
            elapsed = time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            busy += elapsed
            latencies.append(elapsed)
            per_op_steps.append(
                tracer.counts["chase.steps"] + tracer.counts["chase.exhausted"]
                - steps_before
            )
            digests.append(digest_without_rounds(outcome))
            full_digests.append(canonical_digest(outcome))
            decided_count += decided(outcome)
            if outcome.chase is not None:
                strategies.add(outcome.chase.strategy)
                kernels.add(outcome.chase.kernel)
            if not counterexample_ok(outcome, problem):
                bad_counterexamples.append(index)
    result = {
        "attempted": len(digests),
        "answered": len(latencies),
        "failed": failed,
        "decided": decided_count,
        "busy_s": busy,
        "cpu_s": cpu,
        "peak_rss_mb": measure.peak_rss_mb_self(),
        "latencies_s": latencies,
        "indices": indices,
        "digests": digests,
        "full_digests": full_digests,
        "bad_counterexamples": bad_counterexamples,
        "strategies": sorted(strategies),
        "kernels": sorted(kernels),
        "cache_mode": solvers.attribute.cache_mode,
    }
    if traced:
        result["vacuous_ops"] = [i for i, s in enumerate(per_op_steps) if s < 1]
        result["layers"] = _layer_result(tracer, [solvers.attribute, solvers.untyped])
        tracer.write(os.path.join(OUT_DIR, f"spans-chase_deep-s{seed}.tsv.gz"))
    return result


# -- reference answers ------------------------------------------------------------


def query_oracle(seed: int, count: int, shard: int = 0, shards: int = 1) -> dict:
    """service_mix's reference answers for the distinct queries among the first ``count``.

    They come from the in-process default solver the service wraps.  Only
    every ``shards``-th distinct query, from the ``shard``-th on, is answered.
    """
    from repro.api import Solver

    solver = Solver(universe=gen.QUERY_UNIVERSE)
    answers: Dict[str, str] = {}
    bad: List[str] = []
    seen = set()
    for query in gen.take(gen.query_stream(seed), count):
        key = query.key()
        if key in seen:
            continue
        seen.add(key)
        if len(seen) % shards != shard:
            continue
        problem = solver.problem(list(query.premises), query.conclusion,
                                 finite=query.finite)
        outcome = solver.solve(problem)
        answers[key] = canonical_digest(outcome)
        if not counterexample_ok(outcome, problem):
            bad.append(key)
    return {"answers": answers, "bad_counterexamples": bad}


def deep_oracle(seed: int, count: int, shard: int = 0, shards: int = 1) -> dict:
    """The rescan strategy's answers on this shard of the first ``count`` problems."""
    result = run_deep(seed, count, traced=False, strategy="rescan",
                      checkpoint=False, shard=shard, shards=shards)
    return {key: result[key] for key in
            ("indices", "digests", "full_digests", "busy_s", "bad_counterexamples")}


# -- shared -------------------------------------------------------------------------


def _layer_result(tracer: tracing.Tracer, solvers) -> dict:
    layers = {name: [value, unit] for name, (value, unit)
              in tracing.layer_metrics(tracer).items()}
    problems = sum(s.stats.problems for s in solvers)
    unique = sum(s.stats.unique_problems for s in solvers)
    hits = sum(s.store.stats.hits for s in solvers)
    lookups = hits + sum(s.store.stats.misses for s in solvers)
    layers.update({
        "api.store.hit_share": [hits / lookups if lookups else 0.0, "ratio"],
        "api.store.evictions": [sum(s.store.stats.evictions for s in solvers), "count"],
        "api.batch.unique_share": [unique / problems if problems else 0.0, "ratio"],
        "api.batch.canonical_hits": [sum(s.stats.canonical_hits for s in solvers), "count"],
        "api.batch.syntactic_hits": [sum(s.stats.syntactic_hits for s in solvers), "count"],
    })
    config = sorted(k for k in tracer.counts if k.startswith("config."))
    return {"metrics": layers, "config": config, "spans": tracer.spans()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("timed", "fixed", "deep_oracle", "query_oracle"))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--shard", type=int, default=0)
    parser.add_argument("--shards", type=int, default=1)
    args = parser.parse_args(argv)
    if args.phase == "deep_oracle":
        result = deep_oracle(args.seed, args.ops, args.shard, args.shards)
    elif args.phase == "query_oracle":
        result = query_oracle(args.seed, args.ops, args.shard, args.shards)
    elif args.phase == "timed":
        result = run_deep(args.seed, gen.deep_timed_problems(args.seconds), traced=False)
    else:
        result = run_deep(args.seed, args.ops, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
