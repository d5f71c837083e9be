"""Paper-scale benchmark of the mapping engine, service and cluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-instantiate --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no
instrumentation from the benchmark.  ``--trace 1`` runs the separate
traced pass and prints the per-layer metrics (see ``layers.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 perfbench/run.py --self-test`` shows that each correctness
check fails on injected wrong results.  ``perfbench/repeat.py`` runs a
workload several times and prints the spread of every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402,F401  (fails outside a checkout: exit 1, no result)

import checks  # noqa: E402
from clients import (  # noqa: E402
    HttpClient,
    InProcessClient,
    run_round,
    start_topology,
    stop_all,
)
from inputs import (  # noqa: E402
    DATA_SEED,
    WORKLOADS,
    build_round,
    tasks_for,
    warmup_plans,
)

#: Set-ups per run, by where the workload runs; ``setup_s`` is their
#: median.  A server set-up takes about 2 s, an in-process one 3 s.
SETUP_REPEATS = {"inprocess": 3, "serve": 5}

#: Where runs leave server logs and span files (git-ignored).
OUT_DIR = ROOT / ".perfbench_out"


def build_db(scale: int):
    """The benchmark's dataset at ``scale``; returns (db, build_s, warm_s)."""
    from repro.datasets.yahoo import build_yahoo_movies

    started = time.perf_counter()
    db = build_yahoo_movies(n_movies=scale, seed=DATA_SEED)
    built = time.perf_counter()
    db.warm_indexes()
    return db, built - started, time.perf_counter() - built


def timed_rounds(client, plans, seconds: float):
    """Whole rounds of ``plans`` until ``seconds`` have passed (>= 1).

    Returns the outcomes of each round.
    """
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(run_round(client, plans, keep_search=not rounds))
    return rounds


def round_metrics(outcomes) -> dict[str, float]:
    """The timing metrics of one round."""
    by_kind: dict[str, list[float]] = {}
    for outcome in outcomes:
        for op in outcome.ops:
            by_kind.setdefault(op.kind, []).append(op.seconds)
    search = by_kind["search"]
    return {
        "search_rate": len(search) / sum(search),
        "search_p50_ms": statistics.median(search) * 1e3,
        "prune_p50_ms": statistics.median(by_kind["prune"]) * 1e3,
        "read_p50_ms": statistics.median(by_kind["read"]) * 1e3,
    }


def end_to_end(rounds, setup_s: float, rss_mb: float):
    """The end-to-end metrics of one run.

    Every round runs the same operations, so each timing metric is the
    median of its per-round values: this machine's speed drifts by about
    20 % for seconds at a time, and the median round is the one such a
    spell, fast or slow, moves least.  ``setup_s`` is the median of the
    run's set-ups.
    """
    per_round = [round_metrics(outcomes) for outcomes in rounds]
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    for name in per_round[0]:
        values[name] = (statistics.median(r[name] for r in per_round),
                        "searches/s" if name == "search_rate" else "ms")
    outcomes = rounds[0]
    values["samples_to_goal"] = (
        statistics.mean(outcome.samples for outcome in outcomes), "samples")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def verify(workload: str, db, outcomes) -> tuple[int, list[str]]:
    """Run every correctness check; returns (failed operations, messages).

    A failing session counts its read as failed; a search whose
    candidates fail completeness or soundness counts that search.
    Operations that answered non-2xx were already counted.
    """
    from repro.relational.sqlite_backend import to_sqlite

    goal_sql = {
        task.name: task.goal.to_sql(db.schema, column_names=list(task.columns))
        for task in tasks_for(workload)
    }
    failed = sum(1 for o in outcomes for op in o.ops if not op.ok)
    messages: list[str] = []
    sound_done: set = set()
    conn = to_sqlite(db)
    try:
        for outcome in outcomes:
            plan = outcome.plan
            columns = list(plan.columns)
            goal_named = goal_sql[plan.task]
            problems = checks.check_session(outcome, goal_named)
            if problems:
                failed += 0 if outcome.error else 1  # errors counted above
                messages += problems
            key = (plan.task, plan.first_row)
            if key in sound_done:
                continue
            if outcome.search_candidates is not None:
                sqls = [c.mapping.to_sql(db.schema, column_names=columns)
                        for c in outcome.search_candidates]
                where = f"search {plan.task} {plan.first_row[:2]!r}"
                problems = checks.check_completeness(sqls, goal_named, where)
            elif outcome.read_sqls:
                sqls, where, problems = outcome.read_sqls[:1], "read", []
            else:
                continue
            sound_done.add(key)
            problems += checks.check_soundness(
                conn, sqls, columns, plan.first_row, where)
            if problems:
                failed += 1
                messages += problems[:3]
    finally:
        conn.close()
    return failed, messages


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool):
    """``search-*``: ``MappingSession`` calls on a fresh engine each."""
    scale = WORKLOADS[workload][0]
    setups = []
    db = None
    for _ in range(SETUP_REPEATS["inprocess"]):
        db = None
        gc.collect()
        db, build_s, warm_s = build_db(scale)
        started = time.perf_counter()
        run_round(InProcessClient(db), warmup_plans(workload, db))
        setups.append((build_s, warm_s, time.perf_counter() - started, 0.0))
    plans = build_round(workload, db, seed)
    if trace:
        import layers

        OUT_DIR.mkdir(exist_ok=True)
        outcomes, metrics = layers.traced_inprocess(workload, db, plans,
                                                    setups, OUT_DIR)
        return outcomes, metrics, db
    rounds = timed_rounds(InProcessClient(db), plans, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(sum(s) for s in setups)
    metrics = end_to_end(rounds, setup_s, rss_mb)
    return [o for outcomes in rounds for o in outcomes], metrics, db


def run_http(workload: str, seed: int, seconds: float, trace: bool):
    """``service-session``: a real ``mweaver serve`` process."""
    scale, _sets, _sizes, kind = WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    db, build_s, warm_s = build_db(scale)
    plans = build_round(workload, db, seed)
    setups = []
    servers = []
    try:
        repeats = SETUP_REPEATS[kind]
        for index in range(repeats):
            started = time.perf_counter()
            entry, servers = start_topology(kind, ROOT, OUT_DIR, scale,
                                            f"{seed}-{index}")
            ready_s = time.perf_counter() - started
            client = HttpClient(entry.address)
            run_round(client, warmup_plans(workload, db))
            client.close()
            setups.append((build_s, warm_s,
                           time.perf_counter() - started - ready_s, ready_s))
            if index < repeats - 1:
                stop_all(servers)
                servers = []
        if trace:
            import layers

            outcomes, metrics = layers.traced_http(
                workload, db, plans, setups, entry, OUT_DIR)
            return outcomes, metrics, db
        client = HttpClient(entry.address)
        rounds = timed_rounds(client, plans, seconds)
        client.close()
        rss_mb = sum(server.peak_rss_mb() for server in servers)
    finally:
        stop_all(servers)
    setup_s = statistics.median(s[2] + s[3] for s in setups)
    metrics = end_to_end(rounds, setup_s, rss_mb)
    return [o for outcomes in rounds for o in outcomes], metrics, db


def main(argv=None) -> int:
    """Parse arguments, run one workload, print the JSON result line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that each correctness check bites")
    args = parser.parse_args(argv)
    if args.self_test:
        results = checks.self_test()
        for name, caught in results.items():
            print(f"{'PASS' if caught else 'FAIL'}  {name}")
        return 0 if all(results.values()) else 1
    if not args.workload:
        parser.error("--workload is required")
    where = WORKLOADS[args.workload][3]
    run = run_inprocess if where == "inprocess" else run_http
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    outcomes, metrics, db = result
    failed, messages = verify(args.workload, db, outcomes)
    for message in messages[:10]:
        print(message, file=sys.stderr)
    attempted = sum(len(outcome.ops) for outcome in outcomes)
    print(json.dumps({
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
