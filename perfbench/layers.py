"""The traced run: per-layer self times and counts.

The program is not edited.  While a traced pass runs, the public
functions of each layer are replaced (module and class attributes) by
wrappers defined here.  Each wrapper records a span (name, start, end,
parent) in memory, plus counts at the same boundary; the spans are
written to ``.perfbench_out/`` when the run ends.

A layer's self time is the time its spans cover minus what their child
spans cover.  Summed over every layer, self times equal the time the
outermost spans cover; the rest of the measured total is reported as
``trace.unattributed.ms``.  All ``.ms`` metrics are summed over one
traced round (the same session list every timed round runs).

For ``service-session`` the layers are measured in a real ``mweaver
serve`` process: ``traced_serve.py`` starts the same command line with
these wrappers installed (after an untraced warm-up), and the spans
come back in a file when it stops.  ``service.transport.ms`` is the
client's HTTP round trips minus the server's ``ServiceApp.handle``
spans, so every instant of a request is either transport or some
layer's self time, and ``trace.unattributed.ms`` there is only what
the wrappers cannot see.  ``service.obs.ms`` compares in-process
replays of the round with the served observability on and off.
``cluster.route.ms`` comes from booting a ``mweaver cluster`` over two
``mweaver shard`` processes for the traced run: the same round routed,
minus the same sessions sent straight to the shard that was each one's
primary.  It is not part of the sum, whose total is the ``mweaver
serve`` round.
"""

from __future__ import annotations

import itertools
import json
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from clients import HttpClient, OpFailed, run_round, start_topology, stop_all
from inputs import DATASET, WORKLOADS, warmup_plans

HERE = Path(__file__).resolve().parent

clock = time.perf_counter


class Recorder:
    """Spans and counts, in memory, for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span on this thread (or ``None``)."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str):
        """Record one span, a child of this thread's current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [next(self._ids), name, clock(), None,
                  parent[0] if parent is not None else None]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[3] = clock()
            stack.pop()

    @contextmanager
    def adopt(self, parent):
        """Make ``parent`` the current span on this thread for a while."""
        stack = self._stack()
        saved = list(stack)
        stack[:] = [parent] if parent is not None else []
        try:
            yield
        finally:
            stack[:] = saved

    def record(self, name: str, start: float, end: float, parent) -> None:
        """Record a span that has already ended."""
        self.spans.append([next(self._ids), name, start, end,
                           parent[0] if parent is not None else None])

    def add(self, name: str, amount: float = 1) -> None:
        """Bump a counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        children: dict[int, list[list]] = {}
        for record in self.spans:
            if record[4] is not None:
                children.setdefault(record[4], []).append(record)
        selfs: dict[str, float] = {}
        for record in self.spans:
            start, end = record[2], record[3]
            covered = 0.0
            cursor = start
            for child in sorted(children.get(record[0], ()),
                                key=lambda c: c[2]):
                lo, hi = max(child[2], cursor), min(child[3], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            selfs[record[1]] = selfs.get(record[1], 0.0) + (end - start
                                                             - covered)
        return selfs

    def root_seconds(self) -> float:
        """Seconds covered by the spans that have no parent."""
        return sum(end - start for _id, _name, start, end, parent
                   in self.spans if parent is None)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, then one line of counts."""
        with open(path, "w") as handle:
            for ident, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": ident, "name": name, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")
            handle.write(json.dumps({"counts": self.counts}) + "\n")

    @classmethod
    def load(cls, path) -> "Recorder":
        """Read back what :meth:`dump` wrote (from another process)."""
        rec = cls()
        for line in Path(path).read_text().splitlines():
            item = json.loads(line)
            if "counts" in item:
                rec.counts = item["counts"]
            else:
                rec.spans.append([item["id"], item["name"], item["start"],
                                  item["end"], item["parent"]])
        return rec


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        """Replace ``owner.attribute`` until :meth:`restore`."""
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def everywhere(self, function, wrapper) -> None:
        """Replace ``function`` in every loaded ``repro`` module."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self.set(module, attribute, wrapper)

    def restore(self) -> None:
        """Put every original back."""
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


def install(rec: Recorder) -> Patches:
    """Wrap the public functions of every layer; returns the undo log."""
    from repro.core import (
        canonical, instantiate, location, pairwise, pruning, ranking, weave,
    )
    from repro.core.mapping_path import MappingPath
    from repro.core.session import MappingSession
    from repro.core.tpw import TPWEngine
    from repro.relational import executor
    from repro.service.app import ServiceApp
    from repro.service.registry import LocationCache
    from repro.service.workers import WorkerPool
    from repro.text.errors import default_error_model
    from repro.text.inverted_index import ColumnIndex

    patches = Patches()
    probes: set = set()
    open_searches = [0]

    def spanned(name, original, after=None):
        def wrapper(*args, **kwargs):
            with rec.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def method(cls, attribute, name, after=None):
        patches.set(cls, attribute,
                    spanned(name, getattr(cls, attribute), after))

    def function(module, attribute, name, after=None):
        original = getattr(module, attribute)
        patches.everywhere(original, spanned(name, original, after))

    # repro.core.tpw: probes repeat only within one search.
    original_search = TPWEngine.search

    def search(self, *args, **kwargs):
        probes.clear()
        open_searches[0] += 1
        try:
            with rec.span("tpw.search"):
                return original_search(self, *args, **kwargs)
        finally:
            open_searches[0] -= 1

    patches.set(TPWEngine, "search", search)

    # repro.core.location (and the service's shared cache in front of it)
    def located(args, result):
        outer = rec.current()
        if outer is None or outer[1] != "tpw.locate":
            rec.add("tpw.locate.attribute_hits",
                    result.total_occurrence_attributes())

    function(location, "build_location_map", "tpw.locate", located)
    method(LocationCache, "location_map", "tpw.locate", located)

    # repro.core.pairwise
    def paired(args, result):
        rec.add("tpw.pairwise.mapping_paths",
                pairwise.count_pairwise_paths(result))

    function(pairwise, "generate_pairwise_mapping_paths", "tpw.pairwise",
             paired)

    # repro.core.instantiate
    def instantiated(args, result):
        ptpm, valid = result
        rec.add("tpw.instantiate.mapping_paths",
                sum(len(paths) for paths in args[1].values()))
        rec.add("tpw.instantiate.valid", valid)
        rec.add("tpw.instantiate.tuple_paths",
                sum(len(paths) for paths in ptpm.values()))

    function(instantiate, "create_pairwise_tuple_paths", "tpw.instantiate",
             instantiated)
    original_query = instantiate.instantiate_mapping_path

    def query(*args, **kwargs):
        rec.add("tpw.instantiate.queries")
        return original_query(*args, **kwargs)

    patches.everywhere(original_query, query)

    # repro.core.weave
    def woven(args, result):
        stats = args[3]
        rec.add("tpw.weave.complete_tuple_paths", len(result))
        rec.add("tpw.weave.woven", sum(stats.woven_per_level.values()))
        rec.add("tpw.weave.kept", sum(stats.kept_per_level.values()))

    function(weave, "weave_complete_tuple_paths", "tpw.weave", woven)

    # repro.core.canonical
    original_canonical = canonical.canonical_signature

    def canonical_signature(tree, vertex_label):
        rec.add("canonical.calls")
        labels = [vertex_label(vertex) for vertex in tree.vertices]
        if labels and len(labels[0]) == 3:  # tuple path: (rel, row, proj)
            rec.add("canonical.tuple_trees")
            if len({label[:2] for label in labels}) < len(labels):
                rec.add("canonical.repeated")
        with rec.span("canonical"):
            return original_canonical(tree, vertex_label)

    patches.everywhere(original_canonical, canonical_signature)

    # repro.core.ranking
    def ranked(args, result):
        rec.add("tpw.rank.candidates", len(result))

    function(ranking, "rank_mappings", "tpw.rank", ranked)

    # repro.relational.executor
    function(executor, "evaluate_tree", "executor.evaluate_tree",
             lambda args, result: rec.add("executor.evaluate_tree.calls"))
    function(executor, "tree_exists", "executor.tree_exists",
             lambda args, result: rec.add("executor.tree_exists.calls"))

    # repro.text: index probes, and the containment test behind them
    original_index_search = ColumnIndex.search

    def index_search(self, model, sample):
        rec.add("text.index_search.calls")
        key = (id(self), sample, getattr(model, "name", type(model)))
        if open_searches[0]:
            rec.add("text.index_search.in_search")
            if key in probes:
                rec.add("text.index_search.repeats")
            probes.add(key)
        with rec.span("text.index_search"):
            return original_index_search(self, model, sample)

    patches.set(ColumnIndex, "search", index_search)
    model_class = type(default_error_model())
    original_contains = model_class.contains

    def contains(self, cell, sample):
        result = original_contains(self, cell, sample)
        rec.add("text.contains.calls")
        if result:
            rec.add("text.contains.true")
        return result

    patches.set(model_class, "contains", contains)

    # repro.core.pruning
    def pruned(args, result):
        rec.add("prune.evaluated", len(args[1]))
        rec.add("prune.kept", len(result))

    function(pruning, "prune_by_attribute", "prune.attribute", pruned)
    function(pruning, "prune_by_structure", "prune.structure", pruned)

    # repro.core.session: name the input span by what it did.
    original_input = MappingSession.input

    def session_input(self, row, column, content, **kwargs):
        before = self.search_result
        with rec.span("session.fill") as record:
            try:
                return original_input(self, row, column, content, **kwargs)
            finally:
                if row > 0:
                    record[1] = "session.prune"
                elif self.search_result is not before:
                    record[1] = "session.search"

    patches.set(MappingSession, "input", session_input)
    method(MappingSession, "__init__", "session.create")
    method(MappingPath, "to_sql", "mapping.to_sql")

    # repro.service: the request envelope and the worker-pool queue
    method(ServiceApp, "handle", "service.handle")
    original_submit = WorkerPool.submit

    def submit(self, fn, *, timeout_s):
        parent = rec.current()
        submitted = clock()

        def job():
            rec.record("service.queue_wait", submitted, clock(), parent)
            with rec.adopt(parent):
                return fn()

        return original_submit(self, job, timeout_s=timeout_s)

    patches.set(WorkerPool, "submit", submit)
    return patches


#: Per-layer self-time metrics: span name -> metric name.  Their sum,
#: plus transport and unattributed, is ``trace.total.ms``.
SELF_TIME = {
    "session.create": "session.create.ms",
    "session.fill": "session.fill.ms",
    "session.search": "session.search.ms",
    "session.prune": "session.prune.ms",
    "mapping.to_sql": "mapping.to_sql.ms",
    "tpw.search": "tpw.search.ms",
    "tpw.locate": "tpw.locate.ms",
    "tpw.pairwise": "tpw.pairwise.ms",
    "tpw.instantiate": "tpw.instantiate.ms",
    "tpw.weave": "tpw.weave.ms",
    "tpw.rank": "tpw.rank.ms",
    "canonical": "canonical.ms",
    "executor.evaluate_tree": "executor.evaluate_tree.ms",
    "executor.tree_exists": "executor.tree_exists.ms",
    "text.index_search": "text.index_search.ms",
    "prune.attribute": "prune.attribute.ms",
    "prune.structure": "prune.structure.ms",
    "service.handle": "service.envelope.ms",
    "service.queue_wait": "service.queue_wait.ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: Recorder, total_s: float, untraced_s: float,
                  traced_s: float, setups, extra_s: dict[str, float],
                  extra: dict[str, tuple[float, str]]):
    """Every per-layer metric, from one traced pass.

    ``total_s`` is the measured total the layers must add up to;
    ``extra_s`` holds layers measured outside the spans (transport,
    route), in seconds; ``untraced_s``/``traced_s`` are the same work
    timed without and with the wrappers (the tracing overhead).
    """
    selfs = rec.self_times()
    counts = rec.counts
    metrics: dict[str, tuple[float, str]] = {}
    attributed = 0.0
    for span_name, metric in SELF_TIME.items():
        seconds = selfs.pop(span_name, 0.0)
        attributed += seconds
        metrics[metric] = (seconds * 1e3, "ms/round")
    if selfs:
        raise RuntimeError(f"spans with no layer: {sorted(selfs)}")
    for name, seconds in extra_s.items():
        attributed += seconds
        metrics[name] = (seconds * 1e3, "ms/round")
    metrics.update({
        "trace.total.ms": (total_s * 1e3, "ms/round"),
        "trace.unattributed.ms": ((total_s - attributed) * 1e3, "ms/round"),
        "trace.overhead_pct": (
            _ratio(traced_s - untraced_s, untraced_s) * 100, "%"),
        "setup.build_s": (statistics.median(s[0] for s in setups), "s"),
        "setup.warm_indexes_s": (statistics.median(s[1] for s in setups),
                                 "s"),
        "setup.warmup_s": (statistics.median(s[2] for s in setups), "s"),
        "setup.server_ready_s": (statistics.median(s[3] for s in setups),
                                 "s"),
        "tpw.locate.attribute_hits": (
            counts.get("tpw.locate.attribute_hits", 0), "count"),
        "tpw.pairwise.mapping_paths": (
            counts.get("tpw.pairwise.mapping_paths", 0), "count"),
        "tpw.instantiate.queries": (
            counts.get("tpw.instantiate.queries", 0), "count"),
        "tpw.instantiate.valid_ratio": (_ratio(
            counts.get("tpw.instantiate.valid", 0),
            counts.get("tpw.instantiate.mapping_paths", 0)), "ratio"),
        "tpw.instantiate.tuple_paths": (
            counts.get("tpw.instantiate.tuple_paths", 0), "count"),
        "executor.evaluate_tree.calls": (
            counts.get("executor.evaluate_tree.calls", 0), "count"),
        "executor.tree_exists.calls": (
            counts.get("executor.tree_exists.calls", 0), "count"),
        "text.index_search.calls": (
            counts.get("text.index_search.calls", 0), "count"),
        "text.index_search.repeat_ratio": (_ratio(
            counts.get("text.index_search.repeats", 0),
            counts.get("text.index_search.in_search", 0)), "ratio"),
        "text.contains.calls": (counts.get("text.contains.calls", 0),
                                "count"),
        "text.contains.true_ratio": (_ratio(
            counts.get("text.contains.true", 0),
            counts.get("text.contains.calls", 0)), "ratio"),
        "tpw.weave.complete_tuple_paths": (
            counts.get("tpw.weave.complete_tuple_paths", 0), "count"),
        "tpw.weave.dominated_ratio": (1 - _ratio(
            counts.get("tpw.weave.kept", 0),
            counts.get("tpw.weave.woven", 0))
            if counts.get("tpw.weave.woven") else 0.0, "ratio"),
        "canonical.calls": (counts.get("canonical.calls", 0), "count"),
        "canonical.repeated_label_ratio": (_ratio(
            counts.get("canonical.repeated", 0),
            counts.get("canonical.tuple_trees", 0)), "ratio"),
        "tpw.rank.candidates": (counts.get("tpw.rank.candidates", 0),
                                "count"),
        "prune.kept_ratio": (_ratio(counts.get("prune.kept", 0),
                                    counts.get("prune.evaluated", 0)),
                             "ratio"),
    })
    for name in ("service.transport.ms", "cluster.route.ms"):
        metrics.setdefault(name, (0.0, "ms/round"))
    metrics.setdefault("service.handle.ms", (0.0, "ms/round"))
    metrics.setdefault("service.obs.ms", (0.0, "ms/round"))
    metrics.setdefault("service.location_cache.hit_ratio", (0.0, "ratio"))
    metrics.update(extra)
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _op_seconds(outcomes) -> float:
    return sum(op.seconds for outcome in outcomes for op in outcome.ops)


def _traced_pass(client, plans, out_path):
    """One round with every layer wrapped; returns (outcomes, recorder).

    The search results are kept, so the completeness check runs on the
    traced round as on a timed one.
    """
    rec = Recorder()
    patches = install(rec)
    try:
        outcomes = run_round(client, plans, keep_search=True)
    finally:
        patches.restore()
    rec.dump(out_path)
    return outcomes, rec


def traced_inprocess(workload, db, plans, setups, out_dir):
    """``--trace 1`` for ``search-instantiate``."""
    from clients import InProcessClient

    client = InProcessClient(db)
    untraced = run_round(client, plans)
    outcomes, rec = _traced_pass(client, plans,
                                 out_dir / f"spans-{workload}.jsonl")
    total = _op_seconds(outcomes)
    metrics = layer_metrics(rec, total, _op_seconds(untraced), total,
                            setups, {}, {})
    return outcomes, metrics


class AppClient(HttpClient):
    """The HTTP client's calls, sent to ``ServiceApp.handle`` directly."""

    def __init__(self, app) -> None:
        self.app = app

    def _call(self, method: str, path: str, body=None):
        route, _, query_text = path.partition("?")
        query = dict(part.split("=", 1) for part in query_text.split("&")
                     if part)
        status, payload, _headers = self.app.handle(method, route, query,
                                                    body)
        if not 200 <= status < 300:
            raise OpFailed(f"{method} {path} -> {status} {payload!r}")
        return payload


class DirectClient(HttpClient):
    """Sends each session to the shard that was its primary when routed."""

    def __init__(self, primaries: list[str]) -> None:
        self.primaries = list(primaries)
        self.conns = {address: HttpClient(address)
                      for address in set(primaries)}
        self._current: HttpClient | None = None

    def _call(self, method: str, path: str, body=None):
        if method == "POST" and path == "/sessions":
            self._current = self.conns[self.primaries.pop(0)]
        return self._current._call(method, path, body)

    def close(self) -> None:
        """Close every shard connection."""
        for conn in self.conns.values():
            conn.close()


class RecordingClient(HttpClient):
    """An HTTP client that remembers each session's primary shard."""

    def __init__(self, address: str) -> None:
        super().__init__(address)
        self.primaries: list[str] = []

    def create(self, columns) -> str:
        """``POST /sessions``, noting the ``primary`` it reports."""
        body = self._call("POST", "/sessions", {
            "dataset": DATASET, "columns": list(columns),
        })
        self.primaries.append(body.get("primary", ""))
        return body["session_id"]


def _served_obs(on: bool) -> None:
    """Switch the process-wide obs handles as ``mweaver serve`` sets them."""
    from repro import obs

    if on:
        obs.enable_metrics()
        obs.set_tracer(obs.Tracer(max_roots=256))
    else:
        obs.disable_metrics()
        obs.set_tracer(obs.NullTracer())


def _replay_app(db, scale: int, served_obs: bool):
    """A ``ServiceApp`` configured like ``mweaver serve``, or with obs off."""
    from repro.service import ServiceApp, ServiceConfig
    from repro.service.registry import DatasetRegistry

    if served_obs:
        config = ServiceConfig(datasets=(DATASET,), scale=scale,
                               profile_hz=97.0)
    else:
        config = ServiceConfig(datasets=(DATASET,), scale=scale,
                               profile_hz=0.0, recorder_capacity=0)
    registry = DatasetRegistry(scale=scale, builder=lambda _name, _s: db)
    return ServiceApp(config, registry=registry)


def _obs_seconds(db, plans, scale: int) -> tuple[float, float]:
    """In-process handle time of the round with the served obs on and off.

    The two configurations alternate and each keeps its fastest pass,
    so a slow spell of the machine lands on neither alone.
    """
    from repro import obs

    saved = (obs.get_metrics(), obs.get_tracer())
    app_on = _replay_app(db, scale, served_obs=True)
    app_off = _replay_app(db, scale, served_obs=False)
    try:
        handle_on = handle_off = float("inf")
        for _ in range(3):
            _served_obs(True)
            handle_on = min(handle_on, _op_seconds(
                run_round(AppClient(app_on), plans)))
            _served_obs(False)
            handle_off = min(handle_off, _op_seconds(
                run_round(AppClient(app_off), plans)))
    finally:
        app_on.close()
        app_off.close()
        obs.set_metrics(saved[0])
        obs.set_tracer(saved[1])
    return handle_on, handle_off


def _traced_server(workload, db, plans, scale: int, out_dir):
    """One round on ``mweaver serve`` started with the wrappers.

    The server warms up untraced, then SIGUSR1 installs the wrappers
    (``traced_serve.py`` answers by creating ``<spans>.armed``).  The
    spans come back when the server stops.  Returns (outcomes, recorder).
    """
    spans = out_dir / f"spans-{workload}.jsonl"
    armed = Path(f"{spans}.armed")
    armed.unlink(missing_ok=True)
    program = (str(HERE / "traced_serve.py"), str(spans))
    entry, servers = start_topology("serve", out_dir.parent, out_dir, scale,
                                    "traced", program)
    try:
        client = HttpClient(entry.address)
        run_round(client, warmup_plans(workload, db))
        entry.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not armed.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server never installed its wrappers")
            time.sleep(0.01)
        outcomes = run_round(client, plans)
        client.close()
    finally:
        stop_all(servers)
    return outcomes, Recorder.load(spans)


def _cluster_route(workload, db, plans, scale: int, out_dir) -> float:
    """Routed minus direct seconds for one round through ``mweaver cluster``.

    Boots two ``mweaver shard`` processes and a coordinator (defaults,
    R = 2), runs the round through the coordinator, then runs it again
    with each session sent straight to the shard that was its primary.
    """
    entry, servers = start_topology("cluster", out_dir.parent, out_dir,
                                    scale, "trace")
    try:
        warm = HttpClient(entry.address)
        run_round(warm, warmup_plans(workload, db))
        warm.close()
        routed = RecordingClient(entry.address)
        routed_s = _op_seconds(run_round(routed, plans))
        routed.close()
        direct = DirectClient(routed.primaries)
        direct_s = _op_seconds(run_round(direct, plans))
        direct.close()
    finally:
        stop_all(servers)
    return routed_s - direct_s


def traced_http(workload, db, plans, setups, entry, out_dir):
    """``--trace 1`` for ``service-session`` (see the module docstring)."""
    scale = WORKLOADS[workload][0]
    http = HttpClient(entry.address)
    untraced_s = _op_seconds(run_round(http, plans))
    cache = http.get("/metrics")["service"]["location_cache"] or {}
    http.close()
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    outcomes, rec = _traced_server(workload, db, plans, scale, out_dir)
    total = _op_seconds(outcomes)
    # Each request's handle span lies inside its round trip, on the
    # same monotonic clock; the rest of the round trip is transport.
    handle_s = rec.root_seconds()
    transport_s = total - handle_s
    if transport_s <= 0:
        raise RuntimeError(
            f"server spans ({handle_s:.3f} s) exceed the client's round "
            f"trips ({total:.3f} s): the traced round was not measured")
    handle_on, handle_off = _obs_seconds(db, plans, scale)
    route_s = _cluster_route(workload, db, plans, scale, out_dir)
    extra = {
        "service.handle.ms": (handle_s * 1e3, "ms/round"),
        "service.obs.ms": ((handle_on - handle_off) * 1e3, "ms/round"),
        "service.location_cache.hit_ratio": (_ratio(hits, hits + misses),
                                             "ratio"),
        "cluster.route.ms": (route_s * 1e3, "ms/round"),
    }
    metrics = layer_metrics(rec, total, untraced_s, total, setups,
                            {"service.transport.ms": transport_s}, extra)
    return outcomes, metrics
