"""One workload in a fresh interpreter: load the inputs, run ops, check them.

    python worker.py setup|run|trace <workdir> <seconds>

``setup`` stops where the first op would start.  ``run`` carries inputs
through the workload's pipeline one after another (closed loop) for
``seconds`` and reports each op's latency.  ``trace`` times the same ops
untraced and then traced, replays harmonize through public calls, runs
the probe inputs of the other workloads, and reports span statistics.
Every op's output is checked; a mismatch exits with status 3 and names
the input file.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import foliagraph as fg  # noqa: E402

from checks import (  # noqa: E402
    CheckError,
    check_decide,
    check_harmonized,
    check_steps,
    check_surface,
    read_graph,
    read_periods,
    require,
    sweep_complexity,
)
from hostspeed import HostSpeed  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

UNTRACED = NullTracer()
# The measuring loop runs at least this many ops, so that its tail is at
# least the 90th percentile (ten samples beyond it) on the slowest host.
MIN_OPS = 100


# -- ops: one input through the whole pipeline ---------------------------
#
# Each returns (completed, payload); the payload is checked after the op's
# time is taken.


def op_decide(t, data):
    g = t.call("fileio.parse", fg.parse, data)
    t.tag(len(data))
    report = t.call("graph.validate", fg.validate, g)
    cx = t.call("graph.complexity", fg.complexity, g)
    cert = t.call("graph.is_calabi", fg.is_calabi, g)
    t.tag("calabi" if cert.verdict else "noncalabi")
    return True, (report, cx, cert)


def op_harmonize(t, data):
    g = t.call("fileio.parse", fg.parse, data)
    t.tag(len(data))
    try:
        result, trace = t.call("reduction.harmonize", fg.harmonize, g)
    except fg.StuckError as exc:
        return False, (g, exc)
    text = t.call("fileio.serialize", fg.serialize, result)
    return True, (g, result, trace, text)


def op_surfaces(t, data):
    m = t.call("fileio.parse", fg.parse, data)
    t.tag(len(data))
    t.call("surfaces.classify_leaves", fg.classify_leaves, m)
    cls = t.call("surfaces.class_report", fg.class_report, m)
    vanisher = t.call("surfaces.cup_vanisher", fg.cup_vanisher, m)
    report = t.call("surfaces.consistency_check", fg.consistency_check, m)
    periods = m.periods()
    rank = t.call("scalars.qrank", fg.qrank, periods)
    relation = t.call("scalars.integer_relation", fg.integer_relation, periods)
    text = t.call("fileio.serialize", fg.serialize, m)
    return True, (m, cls, vanisher, report, rank, relation, text)


OPS = {"decide": op_decide, "harmonize": op_harmonize, "surfaces": op_surfaces}


# -- checks ----------------------------------------------------------------


class Item:
    def __init__(self, workdir: str, meta: dict):
        self.meta = meta
        self.kind = meta["kind"]
        self.path = os.path.join(workdir, meta["file"])
        with open(self.path, "rb") as fh:
            self.data = fh.read()

    def own(self):
        """The benchmark's own reading of the input.  Not kept, so that
        the process's peak memory does not grow with the ops run."""
        text = self.data.decode()
        return read_graph(text) if self.kind != "surfaces" else read_periods(text)


def check(item: Item, completed: bool, payload) -> None:
    if item.kind == "decide":
        _, vertices, edges = item.own()
        check_decide(vertices, edges, *payload)
    elif item.kind == "harmonize":
        _, vertices, edges = item.own()
        if completed:
            _, result, trace, text = payload
            check_harmonized(vertices, edges, trace.steps, text)
            again = fg.parse(text)
            require(again == result and fg.serialize(again) == text, "harmonize result does not survive serialize/parse")
        else:
            _, exc = payload
            require(isinstance(exc.cause, (fg.NotSortableError, fg.RegluingError)), f"unexpected stuck cause {exc.cause!r}")
            check_steps(exc.trace.steps, sweep_complexity(vertices, edges)[0])
    else:
        m, cls, vanisher, report, rank, relation, text = payload
        require(cls.rank == rank, f"class_report rank {cls.rank} != qrank {rank}")
        cup_zero = vanisher is not None and fg.cup_product(m, vanisher).is_zero()
        check_surface(item.data.decode(), item.own(), report, vanisher, cup_zero, rank, relation, text)


def run_op(t, item: Item):
    """Time one op and check it; unexpected exceptions count as failed."""
    t0 = time.perf_counter()
    try:
        with t.span("bench.op"):
            completed, payload = OPS[item.kind](t, item.data)
    except Exception as exc:  # the loop keeps going and reports the failure
        dt = time.perf_counter() - t0
        print(f"op failed on {item.path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return dt, "failed", None
    dt = time.perf_counter() - t0
    try:
        check(item, completed, payload)
    except CheckError as exc:
        raise CheckError(f"{item.path}: {exc}") from exc
    return dt, "completed" if completed else "stuck", payload


def timed_loop(items: list[Item], seconds: float, speed: HostSpeed, minimum: int = 1) -> dict:
    """Ops one after another; each latency also scaled to nominal host
    speed by the reference samples taken around it."""
    starts, latencies, outcomes = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < minimum:
        speed.tick()
        starts.append(time.perf_counter())
        dt, outcome, _ = run_op(UNTRACED, items[len(latencies) % len(items)])
        latencies.append(dt)
        outcomes.append(outcome)
    speed.sample()
    scaled = [dt * speed.scale_at(t, t + dt) for t, dt in zip(starts, latencies)]
    return {"latencies": latencies, "scaled": scaled, "outcomes": outcomes}


# -- traced run --------------------------------------------------------------


def replay_harmonize(t, g):
    """harmonize's step sequence through public calls only.

    Mirrors the program's loop: decide the verdict, and for each step
    decide it again, take the complexity witness, cut, sort, reglue and
    recompute complexity.  Returns the outcome (the final graph, or the
    stuck diagnostic) and the rewrite count of each completed step.
    """
    rewrites, current = [], g
    while True:
        verdict = t.call("graph.is_calabi", fg.is_calabi, current).verdict
        t.tag("calabi" if verdict else "noncalabi")
        if verdict:
            return ("done", len(rewrites), current), rewrites
        with t.span("reduction.step"):
            t.call("graph.is_calabi", fg.is_calabi, current)
            t.tag("noncalabi")
            _, witness = t.call("graph.complexity", fg.complexity, current)
            c = t.call("reduction.cut", fg.cut, current, witness)
            try:
                sorted_cut, n = t.call("reduction.sort_events", fg.sort_events, c)
                nxt = t.call("reduction.reglue", fg.reglue, sorted_cut)
            except (fg.NotSortableError, fg.RegluingError) as exc:
                return ("stuck", len(rewrites), f"{type(exc).__name__}: {exc}"), rewrites
            t.call("graph.complexity", fg.complexity, nxt)
        rewrites.append(n)
        current = nxt


def traced_pass(tracer: Tracer, items: list[Item], ops: list[dict], stats: dict, speed: HostSpeed) -> list[float]:
    """Run the items traced, one op span each; returns the op durations."""
    durations = []
    for item in items:
        speed.tick()
        tracer.op = len(ops)
        ops.append(item.meta)
        dt, outcome, payload = run_op(tracer, item)
        durations.append(dt)
        stats["failed"] += outcome == "failed"
        if item.kind == "decide" and outcome == "completed" and payload[2].verdict:
            stats["cycles"] += len(payload[2].cycles)
            stats["calabi_edges"] += len(item.own()[2])
        if item.kind == "harmonize" and outcome != "failed":
            with tracer.span("reduction.replay"):
                got, rewrites = replay_harmonize(tracer, payload[0])
            if got[0] == "done":
                got = got[:2] + (fg.serialize(got[2]),)
            if outcome == "stuck":
                exc = payload[1]
                want = ("stuck", len(exc.trace.steps), f"{type(exc.cause).__name__}: {exc.cause}")
            else:
                want = ("done", len(payload[2].steps), payload[3])
            stats["replays"] += 1
            stats["replay_matches"] += got == want
            if got != want:
                print(f"replay drift on {item.path}: {got[:2]} vs {want[:2]}", file=sys.stderr)
            stats["steps_done"] += len(rewrites)
            stats["steps_stuck"] += got[0] == "stuck"
            stats["rewrites"] += sum(rewrites)
    return durations


def summarize(tracer: Tracer, ops: list[dict], stats: dict) -> dict:
    selfs = tracer.self_times()
    by_name: dict[str, list] = {}
    for s, self_s in zip(tracer.spans, selfs):
        by_name.setdefault(s[0], []).append((s, self_s))

    def pick(name):
        """Spans of the workload's own ops, or of the probes if it has none."""
        spans = by_name.get(name, [])
        main = [x for x in spans if not ops[x[0][4]]["probe"]]
        return main or spans

    def dur(name, where=lambda s: True):
        return [s[2] - s[1] for s, _ in pick(name) if where(s)]

    def decide_op(s, vertices=None, tag=None):
        meta = ops[s[4]]
        return meta["kind"] == "decide" and (vertices is None or meta["vertices"] == vertices) and (tag is None or s[5] == tag)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in (
        "fileio.parse", "fileio.serialize", "graph.validate", "graph.complexity",
        "reduction.harmonize", "reduction.cut", "reduction.sort_events", "reduction.reglue",
        "surfaces.classify_leaves", "surfaces.class_report", "surfaces.cup_vanisher",
        "surfaces.consistency_check", "scalars.qrank", "scalars.integer_relation",
    ):
        put(f"{name}.s_per_call", median(dur(name)), "s")
        put(f"{name}.calls", len(pick(name)), "count")
    parses = pick("fileio.parse")
    put("fileio.parse.bytes_per_s", sum(s[5] for s, _ in parses) / sum(s[2] - s[1] for s, _ in parses), "B/s")
    for tag in ("calabi", "noncalabi"):
        put(f"graph.is_calabi.s_per_call.{tag}", median(dur("graph.is_calabi", lambda s: s[5] == tag)), "s")
    put("graph.is_calabi.calls", len(pick("graph.is_calabi")), "count")

    def scaling(name, tag=None):
        big = [s[2] - s[1] for s, _ in by_name[name] if decide_op(s, 128, tag)]
        small = [s[2] - s[1] for s, _ in by_name[name] if decide_op(s, 64, tag)]
        return median(big) / median(small)

    put("graph.complexity.scaling_x2", scaling("graph.complexity"), "ratio")
    put("graph.is_calabi.scaling_x2", scaling("graph.is_calabi", "calabi"), "ratio")
    put("graph.is_calabi.cycles_per_edge", stats["cycles"] / stats["calabi_edges"], "count")

    put("reduction.sort_events.rewrites_per_step", stats["rewrites"] / max(stats["steps_done"], 1), "count")
    put("reduction.sort_events.s_per_rewrite", sum(dur("reduction.sort_events")) / max(stats["rewrites"], 1), "s")
    put("reduction.steps_per_graph", stats["steps_done"] / stats["replays"], "count")
    put("reduction.step_success_ratio", stats["steps_done"] / (stats["steps_done"] + stats["steps_stuck"]), "ratio")
    put("reduction.replay_coverage", sum(dur("reduction.replay")) / sum(dur("reduction.harmonize")), "ratio")
    put("reduction.replay_match_share", stats["replay_matches"] / stats["replays"], "ratio")
    put("reduction.step.self_s_per_call", median(x for _, x in pick("reduction.step")), "s")

    three = sum(metrics[f"surfaces.{n}.s_per_call"]["value"] for n in ("classify_leaves", "class_report", "cup_vanisher"))
    put("surfaces.recompute_ratio", metrics["surfaces.consistency_check.s_per_call"]["value"] / three, "ratio")

    put("bench.op.s_per_call", median(dur("bench.op")), "s")
    put("bench.op.self_s_per_call", median(x for _, x in pick("bench.op")), "s")
    return metrics


def traced_run(items: list[Item], probes: list[Item], seconds: float, cycle: int, speed: HostSpeed) -> dict:
    """Untraced then traced over the same ops; the difference is the
    tracing overhead.  Then the probes, so every layer is measured."""
    warm = timed_loop(items, seconds * 0.3, speed, minimum=cycle)
    n = len(warm["latencies"])
    tracer, ops = Tracer(), []
    stats = dict.fromkeys(
        ("failed", "cycles", "calabi_edges", "replays", "replay_matches", "steps_done", "steps_stuck", "rewrites"), 0
    )
    main = [items[i % len(items)] for i in range(n)]
    traced = traced_pass(tracer, main, ops, stats, speed)
    for kind in ("decide", "harmonize", "surfaces"):
        batch = [p for p in probes if p.kind == kind]
        for i, item in enumerate(batch):
            # Harmonize probes continue until some step got through reglue.
            if i >= item.meta.get("min_ops", len(batch)) and any(
                s[0] == "reduction.reglue" for s in tracer.spans
            ):
                break
            traced_pass(tracer, [item], ops, stats, speed)
    speed.sample()
    metrics = summarize(tracer, ops, stats)
    scale = speed.scale()
    for m in metrics.values():
        if m["unit"] == "s":
            m["value"] *= scale
        elif m["unit"] == "B/s":
            m["value"] /= scale
    base = sum(warm["latencies"])
    metrics["bench.trace_overhead_share"] = {"value": (sum(traced) - base) / base, "unit": "ratio"}
    # What the CLI must reproduce on the first input.
    _, outcome, payload = run_op(UNTRACED, items[0])
    first_text = payload[3] if items[0].kind == "harmonize" and outcome == "completed" else None
    return {
        "metrics": metrics,
        "ops": n,
        "failed": stats["failed"],
        "replays": stats["replays"],
        "replay_matches": stats["replay_matches"],
        "first_text": first_text,
    }


def main(argv: list[str]) -> int:
    mode, workdir, seconds = argv[0], argv[1], float(argv[2])
    with open(os.path.join(workdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    items = [Item(workdir, m) for m in manifest["main"]]
    probes = [Item(workdir, m) for m in manifest["probe"]]
    out = {"ready": time.monotonic()}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    speed = HostSpeed()
    try:
        if mode == "run":
            out.update(timed_loop(items, seconds, speed, minimum=MIN_OPS))
        else:
            out.update(traced_run(items, probes, seconds, manifest["cycle"], speed))
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    speed.sample()
    out["host_scale"] = speed.scale()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
