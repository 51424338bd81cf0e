"""The measured process: one repetition of one workload.

Reads the workload text on stdin, feeds it through the public API of the
``wtap`` package found under ``src/`` of this checkout, and prints one
JSON object with its timings, its outputs and the package verifiers'
verdicts.  One caller, a closed loop: each request is issued after the
previous one returns.  The benchmark's own output checks run in the
parent process (``run.py``), so they are neither timed nor counted in
this process's peak RSS.

Besides the phase totals, each repetition reports its time piece by
piece, in a fixed order: the set-up and verification steps (``steps``,
each a public call or group of calls), every request (``latencies_s``)
and the gap before every request (``gaps_s``, the caller's own loop, or
the adversary's choice of the next request).  The same inputs give the
same pieces in every repetition, so ``run.py`` can take each piece's
fastest time over the repetitions.

Usage: python3 perfbench/worker.py <workload> [--trace SPANS_FILE] < text
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingPackageError(RuntimeError):
    pass


def load_package():
    """Import ``wtap`` from this checkout's ``src/`` and nowhere else."""
    init = SRC / "wtap" / "__init__.py"
    if not init.is_file():
        raise MissingPackageError(f"package source not found: {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wtap
    if Path(wtap.__file__).resolve() != init.resolve():
        raise MissingPackageError(f"wtap imported from {wtap.__file__}, not {init}")
    return wtap


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ``ru_maxrss`` keeps the high-water mark of the address space the
    process had before ``execve`` (on Linux, the parent's forked copy), so
    it cannot read below the parent's size; ``VmHWM`` covers only the
    program now running.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Steps:
    """Wall time of consecutive steps: ``mark`` closes the step that
    began at the previous mark (or at construction)."""

    def __init__(self):
        self.steps = []
        self.last = perf_counter()

    def mark(self, phase: str, now=None) -> float:
        now = perf_counter() if now is None else now
        self.steps.append((phase, now - self.last))
        self.last = now
        return now


def _serve_loop(requests, serve, tracer):
    """Issue each request after the previous one returns.

    Returns (results, latencies, gaps, errors), times in seconds; a
    request that raises leaves ``None`` in results.
    """
    results = []
    latencies = []
    gaps = []
    errors = []
    t1 = perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            res = serve(req)
        except Exception as exc:          # a failed request must not end the run
            res = None
            errors.append((i, _error(exc)))
        gaps.append(t0 - t1)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        results.append(res)
    if tracer is not None:
        tracer.request = -1
    return results, latencies, gaps, errors


def run_tree(text: str, tracer=None) -> dict:
    from wtap import instance, oracles, tree_online
    clock = Steps()
    t0 = clock.last
    inst = instance.parse_instance(text)
    clock.mark("setup")
    solver = tree_online.TreeSolver(inst)
    clock.mark("setup")
    reports, lat, gaps, errors = _serve_loop(
        inst.requests, lambda r: solver.serve_pair(r.s, r.t), tracer)
    clock.mark("serve")
    # the verifiers `wtap run-tree` computes
    dual_ok = all(oracles.verify_dual_feasible(ps.y, ps.minimal.links)[0]
                  for ps in solver.solvers)
    clock.mark("verify")
    load_ok = all(ps.full_load(l) <= 3 * l.cost
                  for ps in solver.solvers for l in ps.minimal.links if l.rooted)
    t3 = clock.mark("verify")
    records = [f"{r.s} {r.t} -" if rep is None else
               f"{r.s} {r.t} {' '.join(map(str, rep.bought_sources))}"
               for r, rep in zip(inst.requests, reports)]
    return {
        "total_s": t3 - t0,
        "steps": clock.steps, "latencies_s": lat, "gaps_s": gaps,
        "errors": errors, "requests": len(reports),
        "verifiers": {"per-path-dual-feasible": dual_ok,
                      "rooted-load-within-3c": load_ok},
        "records": records, "final_cost": str(solver.cost_total),
        "bought": sorted(solver.bought_sources),
    }


def _path_setup(text: str, solver_factory, clock: Steps):
    from wtap import instance, pruning
    inst = instance.parse_instance(text)
    clock.mark("setup")
    edge_count, plinks, request_edges = pruning.path_instance_from_tree(inst)
    clock.mark("setup")
    minimal, _ = pruning.build_minimal_instance(edge_count, plinks)
    clock.mark("setup")
    solver = solver_factory(inst, minimal)
    clock.mark("setup")
    return inst, edge_count, plinks, request_edges, minimal, solver


def run_path(text: str, tracer=None) -> dict:
    from wtap import oracles, path_online
    clock = Steps()
    t0 = clock.last
    inst, edge_count, plinks, request_edges, minimal, solver = _path_setup(
        text, lambda inst, mi: path_online.PathSolver(mi, n_global=inst.n), clock)
    recs, lat, gaps, errors = _serve_loop(request_edges, solver.serve, tracer)
    clock.mark("serve")
    # the verifiers `wtap run-path` computes
    dual_ok, _ = oracles.verify_dual_feasible(solver.y, minimal.links)
    clock.mark("verify")
    load_ok = all(solver.full_load(l) <= 3 * l.cost
                  for l in minimal.links if l.rooted)
    clock.mark("verify")
    opt = oracles.opt_path_dp(edge_count, plinks, request_edges).opt_cost
    t3 = clock.mark("verify")
    records = [f"{e} -" if rec is None else
               f"{e} skip" if rec.skipped else
               f"{e} {rec.type1} {rec.type2} {' '.join(map(str, rec.type3))}"
               for e, rec in zip(request_edges, recs)]
    return {
        "total_s": t3 - t0,
        "steps": clock.steps, "latencies_s": lat, "gaps_s": gaps,
        "errors": errors, "requests": len(recs),
        "verifiers": {"dual-feasible": dual_ok, "rooted-load-within-3c": load_ok},
        "records": records, "final_cost": str(solver.cost),
        "bought": sorted(minimal.kept_from[i] for i in solver.bought),
        "opt": opt,
    }


def run_frac(text: str, tracer=None) -> dict:
    from wtap import fractional, oracles
    clock = Steps()
    t0 = clock.last
    inst, edge_count, plinks, request_edges, minimal, solver = _path_setup(
        text, lambda inst, mi: fractional.FractionalPathSolver(mi), clock)
    recs, lat, gaps, errors = _serve_loop(request_edges, solver.serve, tracer)
    clock.mark("serve")
    # the verifier `wtap run-frac` computes
    opt = oracles.opt_path_dp(edge_count, plinks, request_edges).opt_cost
    t3 = clock.mark("verify")
    records = [f"{e} -" if rec is None else
               f"{e} {rec.kind} {rec.opt_i} {rec.band_size}"
               for e, rec in zip(request_edges, recs)]
    return {
        "total_s": t3 - t0,
        "steps": clock.steps, "latencies_s": lat, "gaps_s": gaps,
        "errors": errors, "requests": len(recs),
        "verifiers": {},
        "records": records, "final_cost": repr(solver.total_cost),
        "x": {str(minimal.kept_from[lid]): x
              for lid, x in sorted(solver.x.items()) if x > 0},
        "opt": opt, "edge_count": edge_count,
    }


def parse_adversary_spec(text: str) -> tuple:
    """``adversary B <b> k <k...> algos <name...>`` -> (B, ks, algos)."""
    words = text.split()
    try:
        if words[0] != "adversary" or words[1] != "B" or words[3] != "k":
            raise ValueError(text)
        at = words.index("algos")
        return int(words[2]), [int(k) for k in words[4:at]], words[at + 1:]
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad adversary spec {text!r}") from exc


def run_lowerbound(text: str, tracer=None) -> dict:
    """The adversary table.  ``adversary_drive`` issues the requests itself,
    so each one is timed by a timer put around ``CanonicalWrapper.serve``
    for the length of the run.  A drive's set-up step is the instance
    build plus the part of the drive before its first request (the
    contestant's construction); the gaps are the adversary's work between
    requests, and the drive's part after its last request is a step of
    its own.
    """
    from wtap import adversary
    B, ks, algos = parse_adversary_spec(text)
    Wrapper = adversary.CanonicalWrapper
    inner_serve = Wrapper.__dict__["serve"]
    spans = []

    def timed_serve(self, e):
        if tracer is not None:
            tracer.request = len(spans)
        t0 = perf_counter()
        try:
            return inner_serve(self, e)
        finally:
            spans.append((t0, perf_counter()))

    steps = []
    gaps = []
    records = []
    checks = {}
    errors = []
    total_cost = 0
    Wrapper.serve = timed_serve
    try:
        t_start = perf_counter()
        drives = [(algo, k) for algo in algos for k in ks]
        for i, (algo, k) in enumerate(drives):
            a = perf_counter()
            inst = adversary.HierarchicalInstance(B, k)
            first = len(spans)
            try:
                rep = adversary.adversary_drive(inst, algo)
            except Exception as exc:      # a failed drive must not end the run
                errors.append((i, f"{algo} k={k}: {_error(exc)}"))
                continue
            c = perf_counter()
            own = spans[first:]
            steps += [("setup", own[0][0] - a), ("after", c - own[-1][1])]
            gaps += [0.0] + [b[0] - p[1] for p, b in zip(own, own[1:])]
            records.append(f"{algo} {k} {rep.alg_cost} {rep.opt} "
                           + " ".join(map(str, rep.requests)))
            total_cost += rep.alg_cost
            checks[f"{algo} k={k} cert_ok"] = rep.cert_ok
            if algo == "greedy":
                checks[f"greedy k={k} ratio == 2^k"] = rep.alg_cost == rep.opt << k
        total = perf_counter() - t_start
    finally:
        Wrapper.serve = inner_serve
        if tracer is not None:
            tracer.request = -1
    return {
        "total_s": total,
        "steps": steps, "latencies_s": [b - a for a, b in spans],
        "gaps_s": gaps, "errors": errors,
        "requests": len(spans), "verifiers": checks,
        "records": records, "final_cost": str(total_cost),
    }


RUNNERS = {
    "tree-serve": run_tree,
    "path-serve": run_path,
    "frac-serve": run_frac,
    "lowerbound": run_lowerbound,
}


def run_workload(workload: str, text: str, tracer=None) -> dict:
    return RUNNERS[workload](text, tracer)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one measured repetition")
    ap.add_argument("workload", choices=sorted(RUNNERS))
    ap.add_argument("--trace", metavar="SPANS_FILE",
                    help="trace layer boundaries and write the spans here")
    args = ap.parse_args(argv)
    try:
        load_package()
    except MissingPackageError as exc:
        print(exc, file=sys.stderr)
        return 2
    text = sys.stdin.read()
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = run_workload(args.workload, text, tracer)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        result["layers"] = tracer.metrics(result["total_s"])
        tracer.write_spans(args.trace)
    result["peak_rss_mb"] = peak_rss_mb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
