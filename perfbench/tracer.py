"""Layer-boundary tracing installed from outside the package.

``Tracer.install`` replaces each traced callable with a wrapper at the
name its callers look up (a module attribute such as
``wtap.tree_online.project``, or a method on a class such as
``PathSolver.serve``); ``Tracer.restore`` puts every original back.  Each
call records a span ``[name, start, end, parent, request]``; spans are
kept in memory and written out at the end.  Counts are read from the
values the traced callables return, never from solver internals.

A span's self time is its duration minus the durations of its direct
children (calls here are synchronous, so children never overlap).  A
layer's self time is the sum over the spans named after it.
"""

from __future__ import annotations

import statistics
import weakref
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("instance", "decomposition", "pruning", "path_online",
          "tree_online", "fractional", "oracles", "adversary")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# -- count hooks: (tracer, args, kwargs, result, span) ---------------------

def _on_decompose(tr, args, kwargs, result, span):
    tr.counts["decomposition.paths"] += len(result.paths)


def _on_project(tr, args, kwargs, result, span):
    tr.counts["decomposition.projections"] += len(result)
    if len(result) > tr.counts["decomposition.projections_per_link_max"]:
        tr.counts["decomposition.projections_per_link_max"] = len(result)


def _on_build(tr, args, kwargs, result, span):
    tr.counts["pruning.links_in"] += len(_arg(args, kwargs, 1, "links"))
    tr.counts["pruning.links_kept"] += len(result[0].links)


def _on_path_init(tr, args, kwargs, result, span):
    minimal = _arg(args, kwargs, 1, "minimal")
    tr.scan_length[args[0]] = max(
        (l.right for l in minimal.links if l.rooted), default=0)


def _on_path_serve(tr, args, kwargs, rec, span):
    c = tr.counts
    if rec.skipped:
        c["path_online.skipped"] += 1
        return
    tr.served_durations.append(span[2] - span[1])
    # computed, not observed: each served request's trigger scan walks
    # the prefix up to the solver's largest rooted right endpoint
    c["path_online.scan_positions"] += tr.scan_length.get(args[0], 0)
    c["path_online.dual_raises"] += rec.y_raise > 0
    c["path_online.type1"] += rec.type1 is not None
    c["path_online.type2"] += rec.type2 is not None
    c["path_online.type3"] += len(rec.type3)
    parent = span[3]
    if parent >= 0 and tr.spans[parent][0] == "tree_online.serve_pair":
        c["tree_online.path_purchases"] += ((rec.type1 is not None)
                                            + (rec.type2 is not None)
                                            + len(rec.type3))


def _on_serve_pair(tr, args, kwargs, rep, span):
    c = tr.counts
    c["tree_online.edges_routed"] += len(rep.served)
    c["tree_online.edges_already_covered"] += len(rep.elementary) - len(rep.served)
    c["tree_online.sources_bought"] += len(rep.bought_sources)


def _on_frac_serve(tr, args, kwargs, rec, span):
    tr.counts[f"fractional.kind_{rec.kind}"] += 1
    tr.counts["fractional.band_size_sum"] += rec.band_size


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.counts = Counter()
        self.served_durations = []
        self.scan_length = weakref.WeakKeyDictionary()
        self._saved = []

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr, name, hook=None):
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = owner.__dict__[attr]
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, span)
            return result

        traced.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def targets(self):
        """(owner, attribute, span name, count hook) for every traced name."""
        from wtap import (adversary, fractional, instance, oracles,
                          path_online, pruning, tree_online)
        TI = instance.TreeInstance
        PS = path_online.PathSolver
        TS = tree_online.TreeSolver
        FS = fractional.FractionalPathSolver
        out = [
            (instance, "parse_instance", "instance.parse", None),
            (TI, "tree_path", "instance.tree_path", None),
            (TI, "cov", "instance.cov", None),
            (tree_online, "decompose", "decomposition.decompose", _on_decompose),
            (tree_online, "project", "decomposition.project", _on_project),
            (pruning, "path_instance_from_tree", "pruning.path_instance_from_tree", None),
            (pruning, "prune_class", "pruning.prune_class", None),
            (PS, "__init__", "path_online.init", _on_path_init),
            (PS, "serve", "path_online.serve", _on_path_serve),
            (PS, "full_load", "path_online.full_load", None),
            (TS, "__init__", "tree_online.init", None),
            (TS, "serve_pair", "tree_online.serve_pair", _on_serve_pair),
            (FS, "__init__", "fractional.init", None),
            (FS, "serve", "fractional.serve", _on_frac_serve),
            (oracles, "verify_dual_feasible", "oracles.verify_dual_feasible", None),
            (adversary, "adversary_drive", "adversary.drive", None),
            (adversary.HierarchicalInstance, "__init__", "adversary.instance", None),
            (adversary.CanonicalWrapper, "serve", "adversary.wrapper_serve", None),
        ]
        for module in (tree_online, adversary, pruning):
            out.append((module, "build_minimal_instance", "pruning.build", _on_build))
        for module in (fractional, adversary, oracles):
            out.append((module, "opt_path_dp", "oracles.opt_path_dp", None))
        for name in sorted(adversary.CONTESTANTS):
            cls = adversary.CONTESTANTS[name][0]
            out.append((cls, "serve", "adversary.contestant_serve", None))
            if "__init__" in cls.__dict__:
                out.append((cls, "__init__", "adversary.contestant_init", None))
        return out

    def install(self):
        for owner, attr, name, hook in self.targets():
            self.wrap(owner, attr, name, hook)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self, total_s: float) -> dict:
        """Per-layer metrics; ``total_s`` is the traced run's total time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        incl = defaultdict(float)
        own = defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child_time[i]
            if parent < 0:
                top += end - start
        c = self.counts
        served = self.served_durations
        out = {
            "instance.parse_s": incl["instance.parse"],
            "instance.tree_path_calls": calls["instance.tree_path"],
            "instance.tree_path_s": incl["instance.tree_path"],
            "instance.cov_s": incl["instance.cov"],
            "decomposition.decompose_s": incl["decomposition.decompose"],
            "decomposition.paths": c["decomposition.paths"],
            "decomposition.project_s": incl["decomposition.project"],
            "decomposition.project_calls": calls["decomposition.project"],
            "decomposition.projections": c["decomposition.projections"],
            "decomposition.projections_per_link_max":
                c["decomposition.projections_per_link_max"],
            "pruning.build_s": incl["pruning.build"],
            "pruning.prune_class_s": incl["pruning.prune_class"],
            "pruning.links_in": c["pruning.links_in"],
            "pruning.links_kept": c["pruning.links_kept"],
            "path_online.init_s": incl["path_online.init"],
            "path_online.serve_calls": calls["path_online.serve"],
            "path_online.serve_s": incl["path_online.serve"],
            "path_online.served_p50_us":
                statistics.median(served) * 1e6 if served else 0.0,
            "path_online.skipped": c["path_online.skipped"],
            "path_online.dual_raises": c["path_online.dual_raises"],
            "path_online.type1": c["path_online.type1"],
            "path_online.type2": c["path_online.type2"],
            "path_online.type3": c["path_online.type3"],
            "path_online.scan_positions": c["path_online.scan_positions"],
            "tree_online.init_self_s": own["tree_online.init"],
            "tree_online.serve_pair_self_s": own["tree_online.serve_pair"],
            "tree_online.edges_routed": c["tree_online.edges_routed"],
            "tree_online.edges_already_covered":
                c["tree_online.edges_already_covered"],
            "tree_online.dup_purchases":
                c["tree_online.path_purchases"] - c["tree_online.sources_bought"],
            "fractional.serve_self_s": own["fractional.serve"],
            "fractional.kind_small": c["fractional.kind_small"],
            "fractional.kind_large": c["fractional.kind_large"],
            "fractional.kind_skip": c["fractional.kind_skip"],
            "fractional.band_size_sum": c["fractional.band_size_sum"],
            "oracles.opt_path_dp_calls": calls["oracles.opt_path_dp"],
            "oracles.opt_path_dp_s": incl["oracles.opt_path_dp"],
            "oracles.verify_dual_feasible_s": incl["oracles.verify_dual_feasible"],
            "adversary.wrapper_serve_self_s": own["adversary.wrapper_serve"],
            "adversary.contestant_serve_s": incl["adversary.contestant_serve"],
            "adversary.requests": calls["adversary.wrapper_serve"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                (t for name, t in own.items() if name.split(".", 1)[0] == layer), 0.0)
        out["unattributed_s"] = total_s - top
        return out

    def write_spans(self, path):
        """One tab-separated line per span; times in µs from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\trequest\n")
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                         f"{(end - t0) * 1e6:.1f}\t{parent}\t{req}\n")
