"""Command line surface.

Exit codes: 0 ok, 2 invariant violation, 3 infeasible instance, 4 bad
input.  Tables (lowerbound, sweep) take --format; everything else is
JSON.  Each option is offered only by the subcommands that read it,
except --quiet, which every subcommand takes.

Every solver run goes through one runner, ``run_report``: ``run-path``,
``run-tree`` and ``run-frac`` call it with their algorithm, ``verify``
calls it again on a stored report's instance, and ``sweep`` calls it
per cell.  The runner owns the report envelope (timer, ratio,
config hash); ``_ALGORITHMS`` holds what differs per algorithm: build
the solver, serve the requests into per-request rows, check the
invariants and compute the offline optimum when one is in reach.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time

from .adversary import CONTESTANTS, HierarchicalInstance, adversary_drive
from .decomposition import decompose, default_width_bound, width
from .errors import (BadInputError, InfeasibleInstanceError,
                     InvariantViolationError)
from .fractional import FractionalPathSolver
from .generators import gen_random
from .instance import format_instance, load_instance, parse_instance
from .oracles import (TREE_ENUM_LINK_CAP, opt_path_dp, opt_tree_enum,
                      verify_dual_feasible)
from .path_online import PathSolver
from .pruning import (REMOVED_DOMINATED, REMOVED_REDUNDANT,
                      build_minimal_instance, path_instance_from_tree,
                      replacement)
from .reports import (InvariantRecord, RunReport, config_hash, rows_to_csv,
                      rows_to_json)
from .tree_online import TreeSolver, path_link_sets

LOWERBOUND_FIELDS = ("B", "k", "n", "alg_cost", "opt", "ratio", "cert_ok")
SWEEP_FIELDS = ("n", "seed", "cost", "opt", "ratio", "invariants_ok", "error")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for
    invariant violations, so usage errors become BadInputError (4)."""

    def error(self, message):
        raise BadInputError(message)


def _parse_int_range(text: str, most=None):
    """Iterate the integers of ``a``, ``a..b`` and comma-separated lists
    of them.

    Every part is checked before the first value is yielded, and no
    range is built as a list.  With ``most`` set, a value or range end
    above it is rejected.
    """
    spans = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, _, hi = part.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise BadInputError(f"bad range {part!r}") from exc
            if hi_i < lo_i:
                raise BadInputError(f"empty range {part!r}")
        else:
            try:
                lo_i = hi_i = int(part)
            except ValueError as exc:
                raise BadInputError(f"bad integer {part!r}") from exc
        if most is not None and hi_i > most:
            raise BadInputError(f"{part!r} goes past the largest allowed value {most}")
        spans.append(range(lo_i, hi_i + 1))
    if not spans:
        raise BadInputError(f"empty range {text!r}")
    return itertools.chain.from_iterable(spans)


# (2B)^k >= 4^k, so a depth k past log2 of the guard is always over it
_K_MOST = HierarchicalInstance.SIZE_GUARD.bit_length() - 1


def _note(args, text: str):
    if not args.quiet:
        print(text, file=sys.stderr)


def _write(args, path: str, text: str):
    """Write ``text`` to ``path``, or raise ``BadInputError`` naming it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadInputError(f"cannot write {path}: {exc}") from exc
    _note(args, f"wrote {path}")


def _emit_table(args, fieldnames, rows, out_path=None):
    if args.fmt == "json":
        text = rows_to_json(rows)
    else:
        text = rows_to_csv(fieldnames, rows)
    if out_path:
        _write(args, out_path, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _ratio_summary(args, rows):
    """Note the largest ratio at each n and the least-squares slope of
    ratio against log2 n, forced through 0, over the rows with a ratio."""
    points = [(row["n"], row["ratio"]) for row in rows
              if row["ratio"] is not None]
    by_n = {}
    for n, ratio in points:
        by_n[n] = max(by_n.get(n, 0.0), ratio)
    for n in sorted(by_n):
        _note(args, f"max ratio at n={n}: {by_n[n]:.4f}")
    if points:
        num = sum(r * math.log2(n) for n, r in points)
        den = sum(math.log2(n) ** 2 for n, _ in points)
        _note(args, f"fitted ratio/log2(n) slope: "
                    f"{num / den if den else 0.0:.4f}")


# -- the run pipeline (run-*, verify and sweep) ----------------------------


def _path_reduction(inst):
    """Path coordinates of a path-shaped instance plus its minimal instance."""
    edge_count, plinks, request_edges = path_instance_from_tree(inst)
    minimal, _ = build_minimal_instance(edge_count, plinks)
    return edge_count, plinks, request_edges, minimal


def _path_opt(edge_count, plinks, request_edges):
    if not request_edges:
        return None
    return opt_path_dp(edge_count, plinks, request_edges).opt_cost


def _solver_invariants(solvers, dual_id: str) -> list:
    """Dual feasibility and the 3c rooted-load cap over path solvers."""
    dual_bad = []
    load_bad = []
    for ps in solvers:
        dual_bad.extend(verify_dual_feasible(ps.y, ps.minimal.links)[1])
        load_bad.extend(l.id for l in ps.minimal.links
                        if l.rooted and ps.full_load(l) > 3 * l.cost)
    return [
        InvariantRecord(
            id=dual_id, ok=not dual_bad,
            detail=f"overpaid links {dual_bad}" if dual_bad else ""),
        InvariantRecord(
            id="rooted-load-within-3c", ok=not load_bad,
            detail=f"overloaded links {load_bad}" if load_bad else ""),
    ]


def _uncovered_requested_edges(inst, bought) -> list:
    """Requested edges no bought link covers, by walks on a union-find.

    ``up[v]`` leads to the nearest ancestor-or-self of v whose parent
    edge is still open, or to the root (Tarjan 1975).  A walk of the u-v
    path finds both ends' roots; while they differ, the deeper root's
    parent edge is open and on the path, so the walk closes it by
    uniting that root with its parent and steps there.  Each bought
    link's walk closes its edges; each request's walk then lists the
    edges it still finds open, and closes them too, so each is listed
    once.  This reads only the instance and the bought link ids, never
    the tree solver's coverage state or decomposition, so it is an
    independent check of it.
    """
    parent, depth = inst.parent, inst.depth
    up = list(range(inst.n))

    def close(u: int, v: int) -> list:
        closed = []
        while True:
            while up[u] != u:
                up[u] = up[up[u]]
                u = up[u]
            while up[v] != v:
                up[v] = up[up[v]]
                v = up[v]
            if u == v:
                return closed
            if depth[u] < depth[v]:
                u, v = v, u
            closed.append(u)
            up[u] = parent[u]
            u = parent[u]

    for i in bought:
        close(inst.links[i].u, inst.links[i].v)
    missing = []
    for r in inst.requests:
        missing += close(r.s, r.t)
    return sorted(inst.edge_of_child[v] for v in missing)


def _run_tree(inst):
    solver = TreeSolver(inst)
    per_request = []
    for req in inst.requests:
        rep = solver.serve_pair(req.s, req.t)
        per_request.append({
            "s": rep.s,
            "t": rep.t,
            "incremental_cost": rep.incremental_cost,
            "bought": list(rep.bought_sources),
        })
    missing = _uncovered_requested_edges(inst, solver.bought_sources)
    invariants = [InvariantRecord(
        id="requested-paths-covered", ok=not missing,
        detail=f"uncovered edges {missing}" if missing else "")]
    invariants += _solver_invariants(solver.solvers, "per-path-dual-feasible")
    invariants.append(InvariantRecord(
        id="purchases-not-double-counted",
        ok=solver.cost_total <= solver.path_cost_total(),
        detail=f"{solver.cost_total} vs {solver.path_cost_total()}"))
    opt = None
    if len(inst.links) <= TREE_ENUM_LINK_CAP:
        # every request was served, so the bought links are feasible
        opt = opt_tree_enum(inst).opt_cost
    return per_request, solver.cost_total, invariants, opt


def _run_path(inst):
    edge_count, plinks, request_edges, minimal = _path_reduction(inst)
    solver = PathSolver(minimal, n_global=inst.n)
    per_request = []
    for e in request_edges:
        before = solver.cost
        rec = solver.serve(e)
        per_request.append({
            "request": rec.request,
            "y_raise": str(rec.y_raise),
            "type1": rec.type1,
            "type2": rec.type2,
            "type3": list(rec.type3),
            "Z_right_endpoint": rec.frontier_right,
            "incremental_cost": solver.cost - before,
        })
    invariants = _solver_invariants([solver], "dual-feasible")
    return (per_request, solver.cost, invariants,
            _path_opt(edge_count, plinks, request_edges))


def _run_frac(inst):
    edge_count, plinks, request_edges, minimal = _path_reduction(inst)
    solver = FractionalPathSolver(minimal)
    per_request = []
    for e in request_edges:
        rec = solver.serve(e)
        per_request.append({
            "request": rec.request,
            "kind": rec.kind,
            "t_star": rec.t_star,
            "incremental_cost": rec.incremental_cost,
            "opt_i": rec.opt_i,
            "band_size": rec.band_size,
        })
    low = [e for e in set(request_edges)
           if solver.coverage(e) < 1.0 - 1e-9]
    invariants = [InvariantRecord(
        id="coverage-within-tolerance", ok=not low,
        detail=f"undercovered edges {sorted(low)}" if low else "")]
    return (per_request, solver.total_cost, invariants,
            _path_opt(edge_count, plinks, request_edges))


# algorithm -> inst -> (per-request rows, cost, invariants, opt or None)
_ALGORITHMS = {
    "tree-online": _run_tree,
    "path-online": _run_path,
    "fractional": _run_frac,
}

# run command -> (algorithm, help)
_RUN_COMMANDS = {
    "run-path": ("path-online",
                 "primal-dual online algorithm on a path instance"),
    "run-tree": ("tree-online", "online algorithm on a tree instance"),
    "run-frac": ("fractional",
                 "fractional online algorithm on a path instance"),
}


def run_report(algorithm: str, inst) -> RunReport:
    """Run one algorithm on an instance and record the outcome."""
    run = _ALGORITHMS.get(algorithm)
    if run is None:
        raise BadInputError(f"unknown algorithm {algorithm!r}")
    start = time.perf_counter()
    per_request, cost, invariants, opt = run(inst)
    text = format_instance(inst)        # the one place an instance is hashed
    return RunReport(
        algorithm=algorithm,
        instance_digest=hashlib.sha256(text.encode()).hexdigest(),
        instance_text=text,
        per_request=per_request,
        final_cost=str(cost),
        opt=None if opt is None else str(opt),
        ratio=cost / opt if opt else None,
        invariants=invariants,
        wall_time=time.perf_counter() - start,
        config_hash=config_hash(algorithm),
    )


# -- subcommands -----------------------------------------------------------


def cmd_run(args) -> int:
    inst = load_instance(args.instance)
    report = run_report(args.algorithm, inst)
    if getattr(args, "trace", False):
        for row in report.per_request:
            rec = {k: row[k] for k in ("request", "y_raise", "type1",
                                       "type2", "type3", "Z_right_endpoint")}
            print(json.dumps(rec))
    if args.report:
        _write(args, args.report, report.to_json())
    invariants_ok = all(r.ok for r in report.invariants)
    summary = {
        "algorithm": report.algorithm,
        "final_cost": report.final_cost,
        "opt": report.opt,
        "ratio": report.ratio,
        "invariants_ok": invariants_ok,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if not invariants_ok:
        for r in report.invariants:
            if not r.ok:
                _note(args, f"invariant {r.id} failed: {r.detail}")
        return 2
    return 0


def cmd_decompose(args) -> int:
    inst = load_instance(args.instance)
    decomp = decompose(inst)
    w = width(inst, decomp)
    bound = default_width_bound(inst.n)
    payload = {
        "n": inst.n,
        "root": inst.root,
        "width": w,
        "width_bound": bound,
        "paths": [
            {"id": pid, "root": verts[0], "vertices": list(verts)}
            for pid, verts in enumerate(decomp.paths)
        ],
        "edge_to_path": [decomp.pid_above[c] for c in inst.child_of_edge],
    }
    print(json.dumps(payload, indent=2))
    if w > bound:
        _note(args, f"width {w} exceeds bound {bound}")
        return 2
    return 0


def cmd_prune(args) -> int:
    inst = load_instance(args.instance)
    decomp = decompose(inst)
    pid = args.path
    if not decomp.paths:
        raise BadInputError("instance has no tree edges, so no "
                            "decomposition paths to prune")
    if not 0 <= pid < len(decomp.paths):
        raise BadInputError(f"path id {pid} out of range "
                            f"(0..{len(decomp.paths) - 1})")
    plinks, kept_from = next(itertools.islice(
        path_link_sets(inst, decomp), pid, None))
    minimal, pruned = build_minimal_instance(
        len(decomp.paths[pid]) - 1, plinks, kept_from)

    def link_row(l):
        return {"id": l.id, "left": l.left, "right": l.right,
                "cls": l.cost.bit_length() - 1, "cost": l.cost}

    kept = [{**link_row(l), "source": minimal.kept_from[l.id]}
            for l in minimal.links]
    removed = [{**link_row(l),
                "reason": REMOVED_DOMINATED if l.rooted else REMOVED_REDUNDANT,
                "replacement": [r.id for r in replacement(minimal, l)]}
               for l in pruned]
    payload = {
        "path": pid,
        "edge_count": minimal.edge_count,
        "vertices": list(decomp.paths[pid]),
        "kept": kept,
        "removed": removed,
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    try:
        edge_count, plinks, request_edges = path_instance_from_tree(inst)
    except BadInputError:
        res = opt_tree_enum(inst)
    else:
        res = opt_path_dp(edge_count, plinks, request_edges)
    payload = {
        "opt": res.opt_cost,
        "witness": sorted(res.witness),
        "method": res.method,
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            stored = RunReport.from_json(fh.read())
    except OSError as exc:
        raise BadInputError(f"cannot read {args.report}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise BadInputError(f"malformed report: {exc}") from exc
    inst = parse_instance(stored.instance_text)
    fresh = run_report(stored.algorithm, inst)
    problems = []
    if fresh.instance_digest != stored.instance_digest:
        problems.append("instance digest mismatch")
    for name in ("final_cost", "opt", "ratio"):
        was, now = getattr(stored, name), getattr(fresh, name)
        if now != was:
            label = name.replace("_", " ")
            problems.append(f"{label} {was} stored, {now} rerun")
    if fresh.per_request != stored.per_request:
        problems.append("per-request record mismatch")
    if fresh.invariants != stored.invariants:
        problems.append("invariant record mismatch")
    if problems:
        for p in problems:
            print(p)
        return 2
    if not args.quiet:
        print("ok")
    return 0


def cmd_lowerbound(args) -> int:
    rows = []
    for k in _parse_int_range(args.k, _K_MOST):
        inst = HierarchicalInstance(args.B, k)
        rep = adversary_drive(inst, args.algo)
        rows.append({
            "B": rep.B, "k": rep.k, "n": rep.n,
            "alg_cost": rep.alg_cost, "opt": rep.opt,
            "ratio": rep.ratio, "cert_ok": rep.cert_ok,
        })
    _emit_table(args, LOWERBOUND_FIELDS, rows, out_path=args.csv)
    _ratio_summary(args, rows)
    return 0


def cmd_gen(args) -> int:
    inst = gen_random(kind=args.kind, n=args.n, link_count=args.links,
                      cost_spread=args.cost_spread, seed=args.seed,
                      feasible=not args.no_feasible,
                      request_count=args.requests)
    text = format_instance(inst)
    if args.out:
        _write(args, args.out, text)
    else:
        print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    if min(args.seeds, args.links, args.requests) < 0:
        raise BadInputError(
            f"negative count: {args.seeds} seeds, {args.links} links, "
            f"{args.requests} requests")
    rows = []
    for n in _parse_int_range(args.n):
        extras = max(0, args.links - (n - 1))
        for s in range(args.seeds):
            cell_seed = args.seed + 10007 * n + s
            inst = gen_random(kind="tree", n=n, link_count=extras,
                              cost_spread=args.cost_spread,
                              seed=cell_seed,
                              request_count=args.requests)
            row = {"n": n, "seed": cell_seed, "cost": None, "opt": None,
                   "ratio": None, "invariants_ok": None, "error": ""}
            try:
                rep = run_report("tree-online", inst)
                row["cost"] = rep.final_cost
                row["opt"] = rep.opt
                row["ratio"] = rep.ratio
                row["invariants_ok"] = all(r.ok for r in rep.invariants)
            except (BadInputError, InfeasibleInstanceError,
                    InvariantViolationError) as exc:
                row["error"] = str(exc)
            rows.append(row)
    _emit_table(args, SWEEP_FIELDS, rows, out_path=args.out)
    _ratio_summary(args, rows)
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    # option groups, each given only to the subcommands that read it
    common = _Parser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress human-oriented notes on stderr")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for anything randomized (default 0)")
    table = _Parser(add_help=False)
    table.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv", help="table output format")

    parser = _Parser(prog="wtap",
                     description="online weighted tree augmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("decompose", parents=[common],
                       help="rooted path decomposition and exact width")
    p.add_argument("instance")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("prune", parents=[common],
                       help="kept/removed links with replacement certificates")
    p.add_argument("instance")
    p.add_argument("--path", type=int, default=0,
                   help="decomposition path id (default 0)")
    p.set_defaults(func=cmd_prune)

    for name, (algorithm, help_text) in _RUN_COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("instance")
        if name == "run-path":
            p.add_argument("--trace", action="store_true",
                           help="emit one JSON record per request")
        p.add_argument("--report",
                       help="write a full run report to this file")
        p.set_defaults(func=cmd_run, algorithm=algorithm)

    p = sub.add_parser("oracle", parents=[common],
                       help="exact offline optimum for the instance requests")
    p.add_argument("instance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", parents=[common],
                       help="re-run a report's instance and diff the outcome")
    p.add_argument("report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lowerbound", parents=[common, table],
                       help="adaptive adversary on hierarchical instances")
    p.add_argument("--B", type=int, default=2)
    p.add_argument("--k", default="1..4", help="depth or range, e.g. 1..6")
    p.add_argument("--algo", default="greedy", choices=sorted(CONTESTANTS))
    p.add_argument("--csv", help="write the table to this file")
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("gen", parents=[common, seeded],
                       help="generate a random instance")
    p.add_argument("--kind", choices=("tree", "path"), default="tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--links", type=int, default=10,
                   help="extra random links beyond the feasibility layer")
    p.add_argument("--cost-spread", type=float, default=16.0)
    p.add_argument("--requests", type=int, default=0)
    p.add_argument("--no-feasible", action="store_true",
                   help="skip the per-edge unit-cost feasibility layer")
    p.add_argument("-o", "--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", parents=[common, seeded, table],
                       help="grid of random tree runs with a ratio summary")
    p.add_argument("--n", default="5..8", help="tree sizes, e.g. 5..10")
    p.add_argument("--seeds", type=int, default=20,
                   help="instances per size")
    p.add_argument("--links", type=int, default=20,
                   help="total link budget per instance")
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--cost-spread", type=float, default=16.0)
    p.add_argument("-o", "--out", help="write the table to this file")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except BadInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
