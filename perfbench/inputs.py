"""Workload inputs: which tasks, which sample rows, in which order.

Every input is a function of the workload definition and ``--seed``.
The program never sees the seed, only the rows drawn with it.

A session plan is one simulated user (the sample feeder of the paper's
Section 6.2): a first row typed left to right, which triggers the
search, then later rows typed left to right, which prune, until the
session converges.  Later rows are pre-drawn up to the feeder's sample
cap, so a plan is fixed before any request is sent.

First rows come from fixed pools, each drawn with its own sample seeds
(``FIRST_ROW_SEEDS``, disjoint between pools), not from ``--seed``
directly.  One first row's search costs between 13 ms and 1.9 s at
scale 3000, so a run-sized sample of seeded first rows would move the
search metrics by 17-50 % from one seed to the next (bootstrap over 100
rows per task).  Every seed selects the development pool except the
held-out seed, ``HELD_OUT_SEED``, which selects a pool of its own: a
change tuned to the development rows can fail there.

Later rows come from a fixed pool too: one sequence per session, drawn
with fixed seeds.  On ``service-session`` the seed pairs each session's
first row with one of its task's later-row sequences, and on every
workload it orders the sessions.  Drawing the later rows from the
seed moved ``samples_to_goal`` by 22 % and ``throughput_rps`` by 21 %
across five seeds of ``service-session`` (48 sessions per round); the
pairing moved them by 4 % and 9 %.  A ``search-instantiate`` round
holds too few sessions even for the pairing (on a 16-session round of
task set 3, ``samples_to_goal`` moved 22 % across five seeds), so there
the seed only orders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Workload name -> (dataset scale, task sets, target sizes, where it runs).
WORKLOADS = {
    "search-instantiate": (3000, (1, 2), (5, 6), "inprocess"),
    "service-session": (1000, (1, 2, 3), (3, 4, 5, 6), "serve"),
}

#: Fixed sample seeds of the first-row pools, per workload: the
#: development pool, then the held-out pool.  A round runs one session
#: per (task, pool row, repeat).
FIRST_ROW_SEEDS = {
    "search-instantiate": ((0, 1, 2, 3), (100, 101, 102, 103)),
    "service-session": ((0, 1), (100, 101)),
}

#: The one seed that selects the held-out pool.  Later performance
#: claims must also hold on it.
HELD_OUT_SEED = 4242

#: Sessions per (task, first row) in one round.
REPEATS = {
    "search-instantiate": 1,
    "service-session": 2,
}

#: Workloads whose seed pairs first rows with later-row sequences; on
#: the others it only orders the sessions (see the module docstring).
PAIRED = {"service-session"}

#: The dataset every workload runs on, and its generator's data seed
#: (the same for every run).
DATASET = "yahoo"
DATA_SEED = 7

#: Rows each task draws its samples from (``MappingTask.target_rows``).
ROW_POOL = 400


@dataclass(frozen=True)
class SessionPlan:
    """One simulated user session, fully drawn before it runs."""

    task: str
    columns: tuple[str, ...]
    first_row: tuple[str, ...]
    later_rows: tuple[tuple[str, ...], ...]

    @property
    def max_samples(self) -> int:
        """The feeder's cap: 20 samples per target column."""
        return 20 * len(self.columns)


def tasks_for(workload: str):
    """The ``MappingTask`` list of a workload, in a fixed order."""
    from repro.datasets.workload import build_task_sets

    _scale, sets, sizes, _where = WORKLOADS[workload]
    return [
        task_set.task_for_size(size)
        for task_set in build_task_sets()
        if task_set.set_id in sets
        for size in sizes
    ]


def build_round(workload: str, db, seed: int) -> list[SessionPlan]:
    """The seeded list of session plans one round runs, in order.

    Each task has fixed pools of first rows and a fixed pool of later
    row sequences, one per session; the seed picks the first-row pool
    (the held-out one for ``HELD_OUT_SEED`` only), pairs first rows
    with later rows and orders the sessions.
    """
    rng = random.Random(f"{workload}:{seed}")
    pool = FIRST_ROW_SEEDS[workload][1 if seed == HELD_OUT_SEED else 0]
    plans = []
    for task in tasks_for(workload):
        rows = task.target_rows(db, limit=ROW_POOL)
        firsts = [random.Random(sample_seed).choice(rows)
                  for sample_seed in pool
                  for _ in range(REPEATS[workload])]
        laters = []
        for index in range(len(firsts)):
            draw = random.Random(f"later:{task.name}:{index}")
            laters.append(tuple(draw.choice(rows) for _ in range(20)))
        if workload in PAIRED:
            rng.shuffle(laters)
        plans += [SessionPlan(task.name, task.columns, first, later)
                  for first, later in zip(firsts, laters)]
    rng.shuffle(plans)
    return plans


def warmup_plans(workload: str, db) -> list[SessionPlan]:
    """One session per task set, outside the pools, for the warm-up."""
    plans = []
    seen_sets: set = set()
    for task in tasks_for(workload):
        if task.goal.tree in seen_sets:
            continue
        seen_sets.add(task.goal.tree)
        rows = task.target_rows(db, limit=ROW_POOL)
        rng = random.Random(f"warmup:{task.name}")
        first = rng.choice(rows)
        later = tuple(rng.choice(rows) for _ in range(20))
        plans.append(SessionPlan(task.name, task.columns, first, later))
    return plans
