"""The wtap benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tree-serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The workload text is generated here (``gen.py``) from ``--seed``.  Each
repetition runs in a fresh measured process (``worker.py``) that receives
only the text, so parsing is timed inside ``setup_s`` and ``peak_rss_mb``
is that process's own peak.  Repetitions run one after another until
``--seconds`` would be exceeded (at least one).  Every repetition times
the same pieces of work (set-up steps, requests, the gaps between them,
verifier steps); each end-to-end time is built from each piece's median
time over the run's repetitions (see ``typical``), and scaled by the
machine's speed during the run, measured between the repetitions with a
fixed piece of the benchmark's own work (``speed.py``).  Outputs are
checked here, untimed (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
fastest traced one (``tracer.py``), the time no layer accounts for, and the
tracing overhead (traced minus untraced wall-clock total); spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed, and 2 when the package
source is missing from the checkout (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402

WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
LAYER_MAP = HERE / "layers.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
RUN_LIMIT_S = 170          # every run ends well within 180 s
SPEED_SECONDS = 0.15       # speed pieces before and after each repetition
# A fixed hash seed gives every repetition the same dict and set layouts,
# so that they repeat the same work.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

END_TO_END_UNITS = {
    "setup_s": "s",
    "serve_rps": "req/s",
    "serve_p50_us": "us",
    "serve_p99_us": "us",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Rep:
    """One repetition's raw result, or the reason it produced none."""

    def __init__(self, traced: bool, result=None, error=None):
        self.traced = traced
        self.result = result
        self.error = error


def run_child(workload: str, text: str, spans_path, timeout: float) -> Rep:
    cmd = [sys.executable, str(WORKER), workload]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    try:
        proc = subprocess.run(cmd, input=text, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT, env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        return Rep(spans_path is not None, error=f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        return Rep(spans_path is not None,
                   error=f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return Rep(spans_path is not None, result=json.loads(proc.stdout))


def run_reps(workload: str, text: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Repeat the workload (untraced, then traced when tracing) until the
    next round would overrun ``seconds``; always at least one round.
    Returns the repetitions and the times of the speed pieces run before
    and after each of them."""
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    start = monotonic()
    reps = []
    pieces = speed.sample(SPEED_SECONDS)
    longest_round = 0.0
    while True:
        round_start = monotonic()
        for traced in ((False, True) if trace else (False,)):
            spans = (OUT_DIR / f"{workload}-seed{seed}-rep{len(reps)}.spans.tsv"
                     if traced else None)
            left = RUN_LIMIT_S - (monotonic() - start)
            reps.append(run_child(workload, text, spans, max(1.0, left)))
            pieces += speed.sample(SPEED_SECONDS)
        now = monotonic()
        longest_round = max(longest_round, now - round_start)
        if any(r.error for r in reps) or now - start + longest_round > seconds:
            return reps, pieces


# every field of a repetition's result that ``checks.check_rep`` reads
CHECKED_OUTPUTS = ("verifiers", "errors", "bought", "final_cost", "opt", "x",
                   "edge_count")


def evaluate(workload: str, text: str, reps: list) -> dict:
    """Check every repetition; returns attempted/failed counts and notes."""
    attempted = failed = 0
    notes = []
    digests = set()
    expected = checks.committed_digest(workload, text)
    checked = {}        # the output checks depend only on these outputs
    for i, rep in enumerate(reps):
        if rep.error:
            attempted += 1
            failed += 1
            notes.append(f"rep {i}: {rep.error}")
            continue
        res = rep.result
        key = json.dumps([res[k] for k in CHECKED_OUTPUTS if k in res])
        if key not in checked:
            checked[key] = checks.check_rep(workload, text, res)
        bad_requests, run_checks = checked[key]
        run_checks = dict(run_checks)
        for idx, msg in res["errors"][:5]:
            notes.append(f"rep {i}: request {idx}: {msg}")
        digest = checks.output_digest(res["records"], res["final_cost"])
        digests.add(digest)
        if expected is not None:
            run_checks["digest matches committed"] = digest == expected
        attempted += res["requests"] + len(run_checks)
        failed += bad_requests + sum(not ok for ok in run_checks.values())
        if bad_requests:
            notes.append(f"rep {i}: {bad_requests} request(s) failed")
        notes.extend(f"rep {i}: check failed: {name}"
                     for name, ok in run_checks.items() if not ok)
    # the same inputs must give the same outputs, traced or not
    attempted += 1
    if len(digests) > 1:
        failed += 1
        notes.append(f"outputs differ between repetitions: {sorted(digests)}")
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "digest": next(iter(digests)) if len(digests) == 1 else None}


def typical(results: list) -> dict:
    """Each piece's median time over the repetitions, in seconds.

    The workloads are deterministic and single-threaded, and every
    repetition runs the same steps and requests in the same order (the
    output check requires identical outputs), so the repetitions time the
    same pieces of work, and a piece's median is steadier than any one
    repetition.  A shared host changes its speed from milliseconds to
    minutes; ``end_to_end`` scales by the speed it had during the run.
    The minimum was tried in place of the median and spread ten-seed runs
    three to four times as wide on a busy host.
    """
    def medians(columns):
        return [statistics.median(col) for col in zip(*columns)]

    steps = medians([t for phase, t in r["steps"] if phase != "serve"]
                    for r in results)
    phases = [phase for phase, _ in results[0]["steps"] if phase != "serve"]
    return {
        "setup": sum(t for p, t in zip(phases, steps) if p == "setup"),
        "after": sum(t for p, t in zip(phases, steps) if p != "setup"),
        "latencies": medians(r["latencies_s"] for r in results),
        "gaps": medians(r["gaps_s"] for r in results),
    }


def end_to_end(results: list, pieces: list) -> tuple:
    """The end-to-end metrics from the pieces' median times.

    ``setup_s`` sums the set-up steps, ``serve_rps`` divides the requests
    by the serve phase (their latencies plus the gaps between them), the
    latency percentiles are nearest-rank over the requests, and
    ``total_s`` adds the steps after the serve phase (the package
    verifiers).  Every time is then scaled by the run's speed: the
    reference time of the speed piece over its median time in this run
    (``speed.py``; the pieces ran between the repetitions).
    ``peak_rss_mb`` does not depend on speed and is the median over the
    repetitions.  Returns (metrics, requests per repetition, scale).
    """
    med = typical(results)
    lat = sorted(med["latencies"])
    scale = speed.REFERENCE_S / statistics.median(pieces)
    serve = (sum(lat) + sum(med["gaps"])) * scale
    setup = med["setup"] * scale
    metrics = {
        "setup_s": setup,
        "serve_rps": len(lat) / serve,
        "serve_p50_us": percentile(lat, 0.50) * scale * 1e6,
        "serve_p99_us": percentile(lat, 0.99) * scale * 1e6,
        "total_s": setup + serve + med["after"] * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return metrics, len(lat), scale


def per_layer(untraced: list, traced: list) -> tuple:
    """The layer metrics of the least-disturbed traced repetition, so that
    its self times add up to its own total.  Counts must repeat exactly
    across traced repetitions; returns (metrics, names of counts that did
    not)."""
    best = min(traced, key=lambda r: r["total_s"])
    metrics = dict(best["layers"])
    unsteady = [name for name in metrics if layer_unit(name) == "count"
                and any(r["layers"][name] != metrics[name] for r in traced)]
    metrics["trace_overhead_s"] = best["total_s"] - min(r["total_s"] for r in untraced)
    return metrics, unsteady


def print_end_to_end(metrics: dict, samples: int, attempted: int, failed: int):
    for name, unit in END_TO_END_UNITS.items():
        extra = (f"   (n={samples} requests per repetition)"
                 if name.startswith("serve_p") else "")
        print(f"  {name:<14} {metrics[name]:>14.6g} {unit}{extra}")
    print(f"  {'fail_share':<14} {failed / attempted:>14.6g} ratio"
          f"   ({failed} failed of {attempted} operations)")


def print_layers(workload: str, metrics: dict):
    with open(LAYER_MAP, encoding="utf-8") as fh:
        layer_map = json.load(fh)
    total = metrics["_total_s"]
    print(f"  per-layer self time (traced total_s {total:.4f} s):")
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            print(f"    {name:<28} {value:>10.4f} s  {100 * value / total:5.1f}%")
    for name in ("unattributed_s", "trace_overhead_s"):
        print(f"    {name:<28} {metrics[name]:>10.4f} s  "
              f"{100 * metrics[name] / total:5.1f}%")
    print("  per-layer metrics (moves -> end-to-end metric on workload):")
    for name, value in metrics.items():
        if name.startswith("_") or name.endswith(".self_s") or name in (
                "unattributed_s", "trace_overhead_s"):
            continue
        row = layer_map.get(name, {})
        hint = f"{row['moves']} on {row['on']}" if row else ""
        if "note" in row:
            hint += f" ({row['note']})"
        mark = "*" if workload in row.get("on", "") else " "
        print(f"   {mark}{name:<42} {value:>14.6g} {layer_unit(name):<5} {hint}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    text = gen.workload_text(workload, seed)
    reps, pieces = run_reps(workload, text, seed, seconds, trace)
    verdict = evaluate(workload, text, reps)
    ok = [r for r in reps if r.result is not None]
    untraced = [r.result for r in ok if not r.traced]
    traced = [r.result for r in ok if r.traced]
    print(f"workload {workload}  seed {seed}  repetitions {len(reps)}  "
          f"(closed loop, one caller, fresh process per repetition)")
    metrics = {}
    if untraced:
        e2e, samples, scale = end_to_end(untraced, pieces)
        print_end_to_end(e2e, samples, verdict["attempted"], verdict["failed"])
        print(f"  times scaled by {scale:.4f} to the reference machine's speed "
              f"({len(pieces)} speed pieces)")
        metrics = e2e
    if trace:
        metrics = {}
        if traced and untraced:
            metrics, unsteady = per_layer(untraced, traced)
            print_layers(workload, dict(metrics, _total_s=min(
                r["total_s"] for r in traced)))
            verdict["attempted"] += 1
            if unsteady:
                verdict["failed"] += 1
                verdict["notes"].append(
                    f"counts differ between traced repetitions: {unsteady}")
    if verdict["digest"]:
        print(f"  output digest {verdict['digest']}")
    for note in verdict["notes"]:
        print(f"  ! {note}")
    units = (layer_unit if trace else END_TO_END_UNITS.get)
    correct = verdict["failed"] == 0 and bool(metrics)
    return {
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wtap benchmark")
    ap.add_argument("--workload", required=True,
                    choices=list(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    init = ROOT / "src" / "wtap" / "__init__.py"
    if not init.is_file():
        print(f"package source not found: {init}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        all_correct &= result["correct"]
        sys.stdout.flush()
        print(json.dumps(result))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
