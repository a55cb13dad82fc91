"""Benchmark of foliagraph: seeded inputs, three workloads, checked outputs.

    python3 perfbench/run.py --workload decide|harmonize|surfaces|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (any directory works; paths are resolved
from this file).  The command generates the workload's inputs from the
seed as canonical text files, then measures the program (``src/``) in
fresh interpreters, one after another, single-threaded:

* ``--trace 0`` launches the workload several times only to time its
  set-up, then once to run ops in a closed loop for ``--seconds`` (and
  at least 100 ops), and reports the end-to-end metrics;
* ``--trace 1`` runs the same ops untraced and traced, replays harmonize
  through public calls, probes the layers the workload does not use, and
  times a cold CLI run; it reports the per-layer metrics.

Times are scaled to a nominal host speed (``hostspeed.py``); the
unscaled figures and the scale are on the first output line.  ``--workload all`` runs the three workloads one after
another and prefixes each metric with its workload's name.

Every op's output is checked (``checks.py``); a wrong answer exits
nonzero, naming the input file, and prints no result.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workload definitions, seeds and the
predicted links between per-layer and end-to-end metrics are in
``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("decide", "harmonize", "surfaces")
# Launches that only time set-up, besides the measuring launch itself.
SETUP_LAUNCHES = 6
CLI_LAUNCHES = 3
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

from checks import read_graph, strongly_connected  # noqa: E402
from gen import graph_with_verdict, surface_text  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


# -- inputs ------------------------------------------------------------------


def _decide_inputs(rng, spec, picks, tag):
    pattern = spec["pattern"]
    for i in picks:
        p = pattern[i % len(pattern)]
        name = f"{tag}{i:03d}_{p['vertices']}{'c' if p['calabi'] else 'n'}"
        yield name, graph_with_verdict(rng, p["vertices"], p["calabi"], name), dict(p)


def _harmonize_inputs(rng, sizes, tag):
    for i, n in enumerate(sizes):
        name = f"{tag}{i:03d}_{n}"
        yield name, graph_with_verdict(rng, n, False, name), {"vertices": n}


def _surface_inputs(rng, spec, count, tag):
    """Each block of consecutive models has every summand count once and
    the same number of rank-one models, in seeded order."""
    lo, hi = spec["summands"]
    sizes = list(range(lo, hi + 1))
    n_rank_one = round(spec["rank_one_share"] * len(sizes))
    mix = []
    while len(mix) < count:
        flags = [True] * n_rank_one + [False] * (len(sizes) - n_rank_one)
        rng.shuffle(flags)
        mix += zip(rng.sample(sizes, len(sizes)), flags)
    for i, (n, rank_one) in enumerate(mix[:count]):
        name = f"{tag}{i:03d}_{n}"
        yield name, surface_text(rng, n, rank_one, name), {"summands": n, "rank_one": rank_one}


def generate(workload: str, seed: int, spec: dict, workdir: str) -> dict:
    """Write the workload's inputs, and small probe sets of the other two
    workloads, to ``workdir``; returns the manifest."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    def rng(purpose):
        return random.Random(f"{workload}:{seed}:{purpose}")

    def batch(kind, inputs, probe, extra=None):
        out = []
        for name, text, meta in inputs:
            with open(os.path.join(workdir, name + ".txt"), "w") as fh:
                fh.write(text)
            out.append(dict(meta, file=name + ".txt", kind=kind, probe=probe, **(extra or {})))
        return out

    # ``cycle``: how many consecutive ops cover the workload's mix once.
    w = spec[workload]
    if workload == "decide":
        main = batch("decide", _decide_inputs(rng("main"), w, range(w["pool"]), "d"), False)
        cycle = len(w["pattern"])
    elif workload == "harmonize":
        r = rng("main")
        sizes = list(range(w["vertices"][0], w["vertices"][1] + 1, 2))
        cycle = len(sizes)
        order = []
        while len(order) < w["pool"]:
            order += r.sample(sizes, cycle)
        main = batch("harmonize", _harmonize_inputs(r, order[: w["pool"]], "h"), False)
    else:
        main = batch("surfaces", _surface_inputs(rng("main"), w, w["pool"], "s"), False)
        cycle = w["summands"][1] - w["summands"][0] + 1

    probe = []
    if workload != "decide":
        d = spec["decide"]
        probe += batch("decide", _decide_inputs(rng("probe-decide"), d, d["probe"], "pd"), True)
    if workload != "harmonize":
        h = spec["harmonize"]["probe"]
        probe += batch(
            "harmonize",
            _harmonize_inputs(rng("probe-harmonize"), [h["vertices"]] * h["count"], "ph"),
            True,
            {"min_ops": h["min_ops"]},
        )
    if workload != "surfaces":
        s = spec["surfaces"]
        probe += batch("surfaces", _surface_inputs(rng("probe-surfaces"), s, s["probe"]["count"], "ps"), True)

    manifest = {"main": main, "probe": probe, "cycle": cycle}
    with open(os.path.join(workdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return manifest


# -- launching the program ---------------------------------------------------


def launch(mode: str, workdir: str, seconds: float) -> dict:
    """One fresh interpreter running the worker; adds its set-up time."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, mode, workdir, repr(seconds)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=3 * seconds + 60,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {mode} exited with status {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    return out


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def cli_cold(workload: str, workdir: str, first: dict, expect: dict) -> list[float]:
    """Fresh ``python -m foliagraph.cli`` on the first input, checked."""
    path = os.path.join(workdir, first["file"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    out_path = os.path.join(workdir, "cli_out.txt")
    args = {
        "decide": ["calabi", "--machine", path],
        "harmonize": ["harmonize", "--machine", "-o", out_path, path],
        "surfaces": ["surface-check", "--machine", path],
    }[workload]
    times = []
    for _ in range(CLI_LAUNCHES):
        if os.path.exists(out_path):
            os.remove(out_path)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "foliagraph.cli", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        times.append(time.monotonic() - t0)
        lines = proc.stdout.splitlines()
        if workload == "decide":
            sc = strongly_connected(*read_graph(_read(path))[1:])
            ok = proc.returncode == (0 if sc else 1) and lines[:1] == [f"calabi={'true' if sc else 'false'}"]
        elif workload == "harmonize":
            if expect["first_text"] is None:
                ok = proc.returncode == 1 and proc.stderr.startswith("stuck:")
            else:
                ok = proc.returncode == 0 and _read(out_path) == expect["first_text"]
        else:
            ok = proc.returncode == 0 and "result=pass" in lines
        if not ok:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"cli check failed on {path}: exit {proc.returncode}, output {lines[:3]}")
    return times


# -- metrics -----------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest of the usual percentiles that has at least
    ten samples beyond it, by linear interpolation.  A fixed ladder keeps
    the percentile, and so what is measured, the same across runs of
    similar length."""
    xs = sorted(latencies)
    n = len(xs)
    pct = max(p for p in PERCENTILES if p == 50 or n * (100 - p) / 100 >= 10)
    pos = pct / 100 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), pct


def end_to_end(workload, seconds, workdir, manifest) -> tuple[dict, dict]:
    # Each launch's set-up is scaled by reference samples taken here
    # just before and after it.
    speed = HostSpeed()
    setups = []
    for mode in ["setup"] * SETUP_LAUNCHES + ["run"]:
        t0 = time.perf_counter()
        run = launch(mode, workdir, seconds)
        setups.append((t0, run["setup_s"]))
        speed.sample()
    setup_s = median(dt * speed.scale_at(t0, t0 + dt) for t0, dt in setups)
    lat, scaled, outcomes = run["latencies"], run["scaled"], run["outcomes"]
    attempted = len(lat)
    completed = outcomes.count("completed")
    stuck = outcomes.count("stuck")
    failed = outcomes.count("failed")
    tail_s, pct = tail(scaled)
    raw = {
        "setup_s": median(dt for _, dt in setups),
        "ops_per_s": completed / sum(lat),
        "p50_s": median(lat),
        "tail_s": tail(lat)[0],
    }
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": completed / sum(scaled), "unit": "1/s"},
        "p50_s": {"value": median(scaled), "unit": "s"},
        "tail_s": {"value": tail_s, "unit": "s"},
        "completed_share": {"value": completed / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    detail = {
        "samples": attempted,
        "completed": completed,
        "stuck": stuck,
        "failed_share": (stuck + failed) / attempted,
        "tail_percentile": pct,
        "setup_launches": len(setups),
        "busy_s": sum(lat),
        "unscaled": raw,
        "host_scale": run["host_scale"],
    }
    return metrics, {"attempted": attempted, "failed": failed, "detail": detail}


def per_layer(workload, seconds, workdir, manifest) -> tuple[dict, dict]:
    res = launch("trace", workdir, seconds)
    metrics = res["metrics"]
    cold = median(cli_cold(workload, workdir, manifest["main"][0], res))
    metrics["cli.main.cold_s"] = {"value": cold * res["host_scale"], "unit": "s"}
    detail = {
        "traced_ops": res["ops"],
        "replays": res["replays"],
        "replay_matches": res["replay_matches"],
        "host_scale": res["host_scale"],
    }
    return metrics, {"attempted": res["ops"], "failed": res["failed"], "detail": detail}


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> tuple[dict, dict]:
    """Generate, measure and clean up one workload; prints its summary."""
    workdir = os.path.join(HERE, "_work", f"{workload}-{seed}-{trace}")
    try:
        manifest = generate(workload, seed, spec, workdir)
        metrics, counts = (per_layer if trace else end_to_end)(workload, seconds, workdir, manifest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": workload, "seed": seed, "trace": trace, **counts["detail"]}))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    return metrics, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, help="input seed (default: each workload's default seed)")
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "foliagraph")):
        print(f"no program to measure: {SRC}/foliagraph is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        seed = spec[name]["default_seed"] if args.seed is None else args.seed
        metrics, counts = run_workload(name, seed, args.seconds, args.trace, spec)
        result["attempted"] += counts["attempted"]
        result["failed"] += counts["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
