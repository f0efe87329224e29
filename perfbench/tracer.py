"""Spans and counters for the traced run, recorded from outside ``ppath``.

``Tracer.install`` replaces each layer entry point at the name its calling
module binds (``ppath.cli.load_trn``, ``ppath.driver._greedy_mask``, ...)
with a wrapper that records a span: name, start, end, parent span and op.
``uninstall`` puts the originals back, so untraced passes run unmodified
code. A target that no longer exists is listed in ``absent`` and skipped.

A span's self time is its duration minus its children's; a layer's self
time is the sum over its spans (the layer is the name's first component).
The command spans (``cli``) are the roots, so the layer self times add up to
the traced command time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

LAYERS = ("cli", "trn", "tournament", "exact", "engine", "driver", "search")

# Per-layer metrics of one traced pass, with their units.
PER_LAYER = {
    "tournament.random_tournament.s": "s",
    "trn.read_trn.s": "s",
    "trn.write_trn.s": "s",
    "trn.bytes_read": "bytes",
    "trn.bytes_written": "bytes",
    "exact.greedy.s": "s",
    "exact.greedy.calls": "count",
    "exact.longest_power_path_exact.s": "s",
    "exact.longest_power_path_exact.calls": "count",
    "exact.longest_power_path_exact.states": "count",
    "exact.budget_trips": "count",
    "exact.verify_power_path.s": "s",
    "engine.sampled_regular.s": "s",
    "engine.sampled_regular.calls": "count",
    "engine.sampled_regular.regular_frac": "frac",
    "engine.order_or_long_path.s": "s",
    "engine.chain_power_path.calls": "count",
    "driver.find.s": "s",
    "driver.find.self_s": "s",
    "driver.build_cluster_digraph.s": "s",
    "driver.route.base": "count",
    "driver.route.greedy": "count",
    "driver.route.claim1": "count",
    "driver.route.claim2": "count",
    "driver.route.claim3": "count",
    "driver.route_results": "count",
    "driver.route_won_frac": "frac",
    "search.anneal_step.s": "s",
    "search.canonical_fingerprint.s": "s",
    "search.objective.calls": "count",
    "search.objective_cache_hit_frac": "frac",
    "search.enumerate_min_pp.s": "s",
    "search.enumerate.tournaments": "count",
    "search.enumerate.pruned_frac": "frac",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.absent_targets": "count",
    "failed_frac": "frac",
}


def _trn_size(n: int) -> int:
    """Bytes of a .trn file for n vertices (header, count line, rows)."""
    return len(f"TRN 1\n{n}\n") + n * (n + 1)


def _bytes_read(tr, rec, args, result):
    tr.counts["trn.bytes_read"] += _trn_size(result.n)


def _bytes_written(tr, rec, args, result):
    tr.counts["trn.bytes_written"] += _trn_size(args[0].n)


def _greedy(tr, rec, args, result):
    tr.last_greedy = len(result)


def _exact(tr, rec, args, result):
    tr.counts["exact.states"] += result.states
    tr.counts["exact.budget_trips"] += not result.optimal
    tr.counts["exact.calls"] += 1
    if rec[3] >= 0 and tr.spans[rec[3]][0] == "search.enumerate_min_pp":
        tr.counts["enumerate.solves"] += 1


def _regular(tr, rec, args, result):
    tr.counts["engine.regular"] += bool(result[0])


def _enumerate(tr, rec, args, result):
    n = args[0]
    tr.counts["enumerate.tournaments"] += 1 << (n * (n - 1) // 2)


def _span(name, post=None):
    def build(tr, fn):
        return tr.wrap(name, fn, post)

    return build


def _route(inner=None):
    """Counts structural-route results and those longer than the greedy
    witness computed just before the route at the same driver node."""

    def build(tr, fn):
        target = inner(tr, fn) if inner else fn

        def wrapper(*args, **kwargs):
            greedy = tr.last_greedy
            result = target(*args, **kwargs)
            tr.counts["route.results"] += 1
            tr.counts["route.won"] += len(result) > greedy
            return result

        return wrapper

    return build


def _objective(tr, fn):
    """Counts anneal objective calls that needed no exact solve."""

    def wrapper(*args, **kwargs):
        before = tr.counts["exact.calls"]
        result = fn(*args, **kwargs)
        tr.counts["objective.calls"] += 1
        tr.counts["objective.hits"] += tr.counts["exact.calls"] == before
        return result

    return wrapper


TARGETS = [
    ("ppath.cli", "load_trn", _span("trn.read_trn", _bytes_read)),
    ("ppath.cli", "save_trn", _span("trn.write_trn", _bytes_written)),
    ("ppath.cli", "random_tournament", _span("tournament.random_tournament")),
    ("ppath.search", "random_tournament", _span("tournament.random_tournament")),
    ("ppath.cli", "find_kth_power_path", _span("driver.find")),
    ("ppath.driver", "build_cluster_digraph", _span("driver.build_cluster_digraph")),
    ("ppath.driver", "_greedy_mask", _span("exact.greedy", _greedy)),
    *(
        (mod, "longest_power_path_exact", _span("exact.longest_power_path_exact", _exact))
        for mod in ("ppath.cli", "ppath.driver", "ppath.search")
    ),
    *(
        (mod, "verify_power_path", _span("exact.verify_power_path"))
        for mod in ("ppath.cli", "ppath.driver", "ppath.engine")
    ),
    ("ppath.driver", "sampled_regular", _span("engine.sampled_regular", _regular)),
    ("ppath.driver", "order_or_long_path", _span("engine.order_or_long_path")),
    ("ppath.driver", "chain_power_path", _route(_span("engine.chain_power_path"))),
    ("ppath.driver", "_split_join_core", _route()),
    ("ppath.driver", "concatenate_along_cluster_path", _route()),
    ("ppath.search", "AnnealChain.step", _span("search.anneal_step")),
    ("ppath.search", "AnnealChain._objective", _objective),
    ("ppath.search", "canonical_fingerprint", _span("search.canonical_fingerprint")),
    ("ppath.cli", "canonical_fingerprint", _span("search.canonical_fingerprint")),
    ("ppath.cli", "enumerate_min_pp", _span("search.enumerate_min_pp", _enumerate)),
]


class Tracer:
    def __init__(self) -> None:
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        # A span is [name, start, end, parent index or -1, op label].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = ""
        self.last_greedy = 0

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers keep working."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.last_greedy = 0

    def wrap(self, name, fn, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(self, rec, args, result)
            return result

        return wrapper

    def install(self) -> None:
        self.absent = []
        for mod_name, path, build in TARGETS:
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(mod_name)
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{path}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, build(self, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, routes: dict) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset.

        ``routes`` holds the route counts read from ``ppath find --trace``.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        c = self.counts

        def frac(num, den):
            return num / den if den else 0.0

        out = {
            "tournament.random_tournament.s": total["tournament.random_tournament"],
            "trn.read_trn.s": total["trn.read_trn"],
            "trn.write_trn.s": total["trn.write_trn"],
            "trn.bytes_read": c["trn.bytes_read"],
            "trn.bytes_written": c["trn.bytes_written"],
            "exact.greedy.s": total["exact.greedy"],
            "exact.greedy.calls": calls["exact.greedy"],
            "exact.longest_power_path_exact.s": total["exact.longest_power_path_exact"],
            "exact.longest_power_path_exact.calls": calls["exact.longest_power_path_exact"],
            "exact.longest_power_path_exact.states": c["exact.states"],
            "exact.budget_trips": c["exact.budget_trips"],
            "exact.verify_power_path.s": total["exact.verify_power_path"],
            "engine.sampled_regular.s": total["engine.sampled_regular"],
            "engine.sampled_regular.calls": calls["engine.sampled_regular"],
            "engine.sampled_regular.regular_frac": frac(
                c["engine.regular"], calls["engine.sampled_regular"]
            ),
            "engine.order_or_long_path.s": total["engine.order_or_long_path"],
            "engine.chain_power_path.calls": calls["engine.chain_power_path"],
            "driver.find.s": total["driver.find"],
            "driver.find.self_s": own["driver.find"],
            "driver.build_cluster_digraph.s": total["driver.build_cluster_digraph"],
            **{
                f"driver.route.{r}": routes.get(r, 0)
                for r in ("base", "greedy", "claim1", "claim2", "claim3")
            },
            "driver.route_results": c["route.results"],
            "driver.route_won_frac": frac(c["route.won"], c["route.results"]),
            "search.anneal_step.s": total["search.anneal_step"],
            "search.canonical_fingerprint.s": total["search.canonical_fingerprint"],
            "search.objective.calls": c["objective.calls"],
            "search.objective_cache_hit_frac": frac(
                c["objective.hits"], c["objective.calls"]
            ),
            "search.enumerate_min_pp.s": total["search.enumerate_min_pp"],
            "search.enumerate.tournaments": c["enumerate.tournaments"],
            "search.enumerate.pruned_frac": frac(
                c["enumerate.tournaments"] - c["enumerate.solves"],
                c["enumerate.tournaments"],
            ),
            "trace.absent_targets": len(self.absent),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for name, v in own.items() if name.split(".")[0] == layer
            )
        return out
