"""Correctness checks that do not trust the code under test.

* The goal mapping comes from the task definition, never from a search.
* Mappings are compared through their SQL text, parsed here and reduced
  to a canonical form (labelled tree, minimum over roots), so the check
  does not use the program's own signature or canonical code.
* Soundness runs every candidate's SQL, filtered by the samples, on the
  sqlite mirror: an engine independent of the native evaluator.  Its
  ``LIKE`` filter accepts a superset of token containment, so a
  candidate that returns no row there cannot be sound.

Each check returns a list of failure messages; empty means it passed.
``self_test`` feeds each check a deliberately wrong result and reports
whether it caught it.
"""

from __future__ import annotations

import re
import sqlite3

_SELECT_ITEM = re.compile(r'(t\d+)\."((?:[^"]|"")+)" AS "((?:[^"]|"")+)"')
_FROM = re.compile(r'^FROM "((?:[^"]|"")+)" AS (t\d+)$')
_JOIN = re.compile(
    r'^JOIN "((?:[^"]|"")+)" AS (t\d+) ON (.+)$'
)
_CONDITION = re.compile(r'(t\d+)\."((?:[^"]|"")+)" = (t\d+)\."((?:[^"]|"")+)"')
_TOKEN = re.compile(r"[0-9a-z]+")


def canonical_sql(sql: str):
    """Canonical form of a rendered join-tree ``SELECT``.

    Two SQL texts get the same form iff they describe the same tree of
    relations, joined on the same columns, projecting the same
    attributes to the same output columns — whatever the alias numbers.
    """
    lines = sql.strip().splitlines()
    if not lines or not lines[0].startswith("SELECT "):
        raise ValueError(f"not a rendered SELECT: {sql[:80]!r}")
    relation: dict[str, str] = {}
    projected: dict[str, list[tuple[str, str]]] = {}
    edges: dict[str, list[tuple[str, str, str]]] = {}
    for alias, attribute, label in _SELECT_ITEM.findall(lines[0]):
        projected.setdefault(alias, []).append((label, attribute))
    for line in lines[1:]:
        if line.startswith("WHERE "):
            break
        if match := _FROM.match(line):
            relation[match.group(2)] = match.group(1)
            continue
        match = _JOIN.match(line)
        if not match:
            raise ValueError(f"unparsed SQL line: {line!r}")
        relation[match.group(2)] = match.group(1)
        for left, left_col, right, right_col in _CONDITION.findall(
            match.group(3)
        ):
            edges.setdefault(left, []).append((right, left_col, right_col))
            edges.setdefault(right, []).append((left, right_col, left_col))

    def encode(alias: str, parent: str | None):
        children = sorted(
            (own, theirs, encode(other, alias))
            for other, own, theirs in edges.get(alias, ())
            if other != parent
        )
        return (relation[alias], tuple(sorted(projected.get(alias, ()))),
                tuple(children))

    return min(encode(alias, None) for alias in relation)


def _tokens(sample: str) -> list[str]:
    return _TOKEN.findall(sample.lower())


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def filtered_sql(sql: str, columns, samples) -> str:
    """``sql`` restricted to rows whose output cells contain the samples."""
    conditions = []
    for column, sample in zip(columns, samples):
        for token in _tokens(sample):
            conditions.append(
                f"LOWER(q.{_quote(column)}) LIKE '%{token}%'"
            )
    where = " AND ".join(conditions) or "1"
    return f"SELECT 1 FROM ({sql}) AS q WHERE {where} LIMIT 1"


def check_completeness(candidate_sqls, goal_sql: str, where: str) -> list[str]:
    """Lemma 1: the goal mapping is among the search's candidates."""
    goal = canonical_sql(goal_sql)
    if any(canonical_sql(sql) == goal for sql in candidate_sqls):
        return []
    return [f"{where}: goal mapping missing from "
            f"{len(candidate_sqls)} candidates"]


def check_soundness(conn: sqlite3.Connection, candidate_sqls, columns,
                    samples, where: str) -> list[str]:
    """Every candidate produces the sample row on the sqlite mirror."""
    failures = []
    for sql in candidate_sqls:
        if conn.execute(filtered_sql(sql, columns, samples)).fetchone() is None:
            failures.append(
                f"{where}: candidate returns no row for {samples!r}:\n{sql}"
            )
    return failures


def check_session(outcome, goal_sql: str) -> list[str]:
    """The session converged, on one candidate, and that is the goal."""
    where = f"session {outcome.plan.task} {outcome.plan.first_row[:2]!r}"
    if outcome.error:
        return [f"{where}: {outcome.error}"]
    if outcome.degraded:
        return [f"{where}: a search reported degraded"]
    if not outcome.converged or outcome.read_count != 1:
        return [f"{where}: did not converge ({outcome.read_count} candidates "
                f"after {outcome.samples} samples)"]
    if canonical_sql(outcome.read_sqls[0]) != canonical_sql(goal_sql):
        return [f"{where}: converged on a non-goal mapping:\n"
                f"{outcome.read_sqls[0]}"]
    return []


def self_test() -> dict[str, bool]:
    """Feed each check a wrong result; ``True`` means the check caught it."""
    import random

    from repro.datasets.workload import build_task_sets
    from repro.datasets.yahoo import build_yahoo_movies
    from repro.relational.sqlite_backend import to_sqlite

    from clients import InProcessClient, run_session
    from inputs import SessionPlan

    db = build_yahoo_movies(n_movies=300)
    task = build_task_sets()[0].task_for_size(3)
    columns = list(task.columns)
    goal_sql = task.goal.to_sql(db.schema, column_names=columns)
    rows = task.target_rows(db)
    rng = random.Random(0)
    plan = SessionPlan(task.name, task.columns, rng.choice(rows),
                       tuple(rng.choice(rows) for _ in range(20)))
    outcome = run_session(InProcessClient(db), plan, keep_search=True)
    sqls = [candidate.mapping.to_sql(db.schema, column_names=columns)
            for candidate in outcome.search_candidates]
    conn = to_sqlite(db)
    try:
        baseline = (
            not check_completeness(sqls, goal_sql, "ok")
            and not check_soundness(conn, sqls, columns, plan.first_row, "ok")
            and not check_session(outcome, goal_sql)
        )
        goal = canonical_sql(goal_sql)
        without_goal = [sql for sql in sqls if canonical_sql(sql) != goal]
        # The goal with one projection moved to another attribute of the
        # same relation: a well-formed mapping that cannot produce the
        # first row.
        wrong_sql = goal_sql.replace('."title" AS', '."plot" AS', 1)
        outcome.read_sqls = [wrong_sql]
        return {
            "checks pass on a correct session": baseline,
            "completeness catches a list without the goal": bool(
                check_completeness(without_goal, goal_sql, "injected")),
            "soundness catches a candidate that returns nothing": bool(
                check_soundness(conn, [wrong_sql], columns, plan.first_row,
                                "injected")),
            "session check catches a non-goal convergence": bool(
                check_session(outcome, goal_sql)),
        }
    finally:
        conn.close()
