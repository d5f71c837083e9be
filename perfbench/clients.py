"""Drive simulated sessions in-process or over HTTP, and time each call.

A client exposes five calls (create, cell, read, delete, close).  The
session loop is shared, so both paths send the same operations:

    create, first-row cells (fills, the last one is the search),
    later-row cells (prunes) until converged, candidates read, delete.

Every call is timed by the caller of the client, around the public
entry point only.  The in-process client calls ``MappingSession`` on a
fresh session (so a fresh ``TPWEngine``, no location cache) per plan.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import DATASET, SessionPlan

#: Rows of candidates a read asks for (the service's default page).
READ_LIMIT = 10


class OpFailed(Exception):
    """A call answered with a non-2xx status or a malformed body."""


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------

class InProcessClient:
    """``MappingSession`` calls on a database in this process."""

    def __init__(self, db) -> None:
        self.db = db

    def create(self, columns):
        """A fresh session (fresh engine, no shared location cache)."""
        from repro.core.session import MappingSession

        return MappingSession(self.db, list(columns))

    def cell(self, session, row: int, column: int, value: str) -> dict:
        """One ``Input(row, column, value)``; returns the session state.

        An exception from the program fails this operation, like a
        non-2xx answer over HTTP, and the run goes on.
        """
        try:
            session.input(row, column, value)
        except Exception as error:  # noqa: BLE001 - counted as a failure
            raise OpFailed(f"input({row}, {column}): {error!r}") from error
        return {
            "converged": session.converged,
            "n_candidates": len(session.candidates),
            "degraded": session.last_degradation is not None,
        }

    def read(self, session) -> dict:
        """The first page of ranked candidates, with their SQL."""
        columns = list(session.spreadsheet.columns)
        ranked = session.candidates
        return {
            "n_candidates": len(ranked),
            "candidates": [
                {"sql": candidate.mapping.to_sql(
                    self.db.schema, column_names=columns)}
                for candidate in ranked[:READ_LIMIT]
            ],
        }

    def delete(self, session) -> None:
        """Nothing to release in-process."""


class HttpClient:
    """One keep-alive connection to ``mweaver serve`` or ``cluster``."""

    def __init__(self, address: str) -> None:
        host, port = address.rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)

    def _call(self, method: str, path: str, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        if not 200 <= response.status < 300:
            raise OpFailed(f"{method} {path} -> {response.status} {raw[:200]!r}")
        return json.loads(raw) if raw else None

    def create(self, columns) -> str:
        """``POST /sessions``; returns the session id."""
        body = self._call("POST", "/sessions", {
            "dataset": DATASET, "columns": list(columns),
        })
        return body["session_id"]

    def cell(self, session_id: str, row: int, column: int, value: str) -> dict:
        """``POST /sessions/{id}/cells``; returns the session state."""
        return self._call("POST", f"/sessions/{session_id}/cells", {
            "row": row, "column": column, "value": value,
        })

    def read(self, session_id: str) -> dict:
        """``GET /sessions/{id}/candidates?sql=1``."""
        return self._call("GET", f"/sessions/{session_id}/candidates?sql=1")

    def delete(self, session_id: str) -> None:
        """``DELETE /sessions/{id}``."""
        self._call("DELETE", f"/sessions/{session_id}")

    def get(self, path: str):
        """A plain GET (``/metrics``, ``/healthz``)."""
        return self._call("GET", path)

    def close(self) -> None:
        """Close the connection."""
        self.conn.close()


# ----------------------------------------------------------------------
# The session loop
# ----------------------------------------------------------------------

@dataclass
class Op:
    """One timed call."""

    kind: str
    seconds: float
    ok: bool = True


@dataclass
class SessionOutcome:
    """What one plan produced: its ops and what the checks need."""

    plan: SessionPlan
    ops: list[Op] = field(default_factory=list)
    samples: int = 0
    converged: bool = False
    degraded: bool = False
    #: SQL of the candidates the read returned.
    read_sqls: list[str] = field(default_factory=list)
    read_count: int = -1
    #: The in-process search result's candidates (``None`` over HTTP).
    search_candidates: list | None = None
    error: str | None = None


def run_session(client, plan: SessionPlan, keep_search: bool = False):
    """Run one plan to convergence (or its sample cap); time every call."""
    outcome = SessionOutcome(plan)
    ops = outcome.ops
    clock = time.perf_counter

    def timed(kind, fn, *args):
        started = clock()
        try:
            result = fn(*args)
        except OpFailed as error:
            ops.append(Op(kind, clock() - started, ok=False))
            raise
        ops.append(Op(kind, clock() - started))
        return result

    try:
        handle = timed("create", client.create, plan.columns)
        state = None
        last = len(plan.first_row) - 1
        for column, value in enumerate(plan.first_row):
            kind = "search" if column == last else "fill"
            state = timed(kind, client.cell, handle, 0, column, value)
            outcome.samples += 1
        if keep_search and hasattr(handle, "search_result"):
            outcome.search_candidates = list(handle.search_result.candidates)
        outcome.degraded |= bool(state["degraded"])
        row = 0
        while not state["converged"] and outcome.samples < plan.max_samples:
            later = plan.later_rows[row % len(plan.later_rows)]
            row += 1
            for column, value in enumerate(later):
                state = timed("prune", client.cell, handle, row, column, value)
                outcome.samples += 1
                outcome.degraded |= bool(state["degraded"])
                if state["converged"] or outcome.samples >= plan.max_samples:
                    break
        outcome.converged = bool(state["converged"])
        page = timed("read", client.read, handle)
        outcome.read_count = page["n_candidates"]
        outcome.read_sqls = [item["sql"] for item in page["candidates"]]
        timed("delete", client.delete, handle)
    except OpFailed as error:
        outcome.error = str(error)
    return outcome


def run_round(client, plans: list[SessionPlan], keep_search=False):
    """Run ``plans`` one after another on ``client`` (a closed loop)."""
    return [run_session(client, plan, keep_search) for plan in plans]


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------

class Server:
    """One ``python -m repro <args>`` child with its output in a file.

    ``program`` replaces ``-m repro`` (the traced run starts the same
    command line through ``traced_serve.py``).
    """

    def __init__(self, root: Path, out_dir: Path, args: list[str], name: str,
                 program: tuple[str, ...] = ("-m", "repro")):
        self.name = name
        self.log_path = out_dir / f"{name}.log"
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-u", *program, *args],
            stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=root,
        )
        self.address: str | None = None

    def wait_address(self, timeout_s: float = 120.0) -> str:
        """Block until the child prints ``listening on http://host:port``."""
        deadline = time.monotonic() + timeout_s
        marker = "listening on http://"
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            at = text.find(marker)
            if at >= 0 and "\n" in text[at:]:
                self.address = text[at + len(marker):].split()[0]
                return self.address
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"{self.name} did not start:\n{self.log_path.read_text()[-2000:]}"
        )

    def wait_ready(self, timeout_s: float = 120.0) -> None:
        """Poll ``GET /healthz?ready=1`` until it answers 200."""
        host, port = self.address.rsplit(":", 1)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                conn.request("GET", "/healthz?ready=1")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"{self.name} never became ready")

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``), in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always waits."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def start_topology(kind: str, root: Path, out_dir: Path, scale: int, tag: str,
                   program: tuple[str, ...] = ("-m", "repro")):
    """Spawn ``serve`` or two shards plus a coordinator; wait until ready.

    Returns ``(entry server, all servers)``.  Every flag not given here
    keeps the program's served default.  ``program`` applies to
    ``serve`` only.
    """
    data = ["--datasets", DATASET, "--scale", str(scale)]
    servers: list[Server] = []
    try:
        if kind == "serve":
            entry = Server(root, out_dir, ["serve", "--port", "0", *data],
                           f"serve-{tag}", program)
            servers.append(entry)
            entry.wait_address()
            entry.wait_ready()
            return entry, servers
        shards = [
            Server(root, out_dir, ["shard", "--port", "0", *data],
                   f"shard{index}-{tag}")
            for index in range(2)
        ]
        servers.extend(shards)
        addresses = [shard.wait_address() for shard in shards]
        for shard in shards:
            shard.wait_ready()
        args = ["cluster", "--port", "0", "--datasets", DATASET]
        for address in addresses:
            args += ["--shard", address]
        entry = Server(root, out_dir, args, f"coordinator-{tag}")
        servers.append(entry)
        entry.wait_address()
        entry.wait_ready()
        return entry, servers
    except BaseException:
        for server in servers:
            server.stop()
        raise


def stop_all(servers) -> None:
    """Stop every server, even when one stop fails."""
    for server in servers:
        try:
            server.stop()
        except OSError:
            pass
