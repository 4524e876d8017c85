"""Per-layer metrics of a traced pass: spans + metrics registry + records.

Self times come from the spans (:mod:`tracing`); counts come from the
records and from the delta of an attached ``repro.metrics`` registry
between the start and the end of the pass.
"""

from __future__ import annotations

from tracing import Span, root_of, self_times

ALGORITHMS = ("gather_known", "gather_unknown", "talking")


def registry_totals(snapshot: dict) -> dict[str, float]:
    """Series values summed over labels; a histogram gives ``name.count``
    and ``name.sum``."""
    totals: dict[str, float] = {}

    def add(key: str, value) -> None:
        totals[key] = totals.get(key, 0) + (value or 0)

    for series in snapshot.get("series", ()):
        name = series["name"]
        if series["kind"] == "histogram":
            add(name + ".count", series["count"])
            add(name + ".sum", series["sum"])
        else:
            add(name, series["value"])
    return totals


def delta(before: dict[str, float], after: dict[str, float]) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def trial_times(spans: list[Span]) -> list[float]:
    """Host time of every trial of the pass.

    A trial run through ``execute_trial`` is its span; the trials a
    batch ran without it (the lockstep path) share the rest of the
    batch span evenly.
    """
    times = [s.duration for s in spans if s.name == "runner.trial"]
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.name == "runner.trial" and span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    for index, span in enumerate(spans):
        if span.name != "runner.batch":
            continue
        inner = children.get(index, [])
        rest = span.tags.get("trials", 0) - len(inner)
        if rest > 0:
            left = span.duration - sum(s.duration for s in inner)
            times.extend([left / rest] * rest)
    return times


def from_spans(spans: list[Span]) -> dict[str, float]:
    """The span-derived per-layer metrics."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_layer: dict[str, float] = {}
    sim_by_algorithm = dict.fromkeys(ALGORITHMS, 0.0)
    for index, (span, seconds) in enumerate(zip(spans, own)):
        by_name[span.name] = by_name.get(span.name, 0.0) + seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        by_layer[span.layer] = by_layer.get(span.layer, 0.0) + seconds
        if span.layer == "sim":
            algorithm = root_of(spans, index).tags.get("algorithm")
            if algorithm in sim_by_algorithm:
                sim_by_algorithm[algorithm] += seconds
    trials = trial_times(spans)
    out = {
        "graphs.build_s": by_name.get("graphs.build", 0.0),
        "graphs.builds": calls.get("graphs.build", 0),
        "explore.uxs_verify_s": by_name.get("explore.uxs_verify", 0.0),
        "explore.uxs_verifies": calls.get("explore.uxs_verify", 0),
        "core.prepare_s": by_name.get("core.prepare", 0.0),
        "core.finalize_s": by_name.get("core.finalize", 0.0),
        "baselines.self_s": by_layer.get("baselines", 0.0),
        "runner.self_s": by_layer.get("runner", 0.0),
        "runner.trial_s.p50": quantile(trials, 0.5),
        "runner.trial_s.p90": quantile(trials, 0.9),
        "runner.trial_s.max": max(trials, default=0.0),
        "store.save_s": by_name.get("store.save", 0.0),
        "store.saves": calls.get("store.save", 0),
        "store.load_s": by_name.get("store.load", 0.0),
        "search.self_s": by_layer.get("search", 0.0),
        "sim.self_s": by_layer.get("sim", 0.0),
        "trace.self_sum_s": sum(own),
        "trace.spans": len(spans),
    }
    for algorithm, seconds in sim_by_algorithm.items():
        out[f"sim.run_s.{algorithm}"] = seconds
    return out


def from_registry(counts: dict[str, float]) -> dict[str, float]:
    """The count-derived per-layer metrics (registry delta of a pass)."""
    get = counts.get
    segments = get("sim.walk.segments", 0)
    seq_hits = get("explore.seq_cache.hits", 0)
    intern_hits = get("sim.plan_intern.hits", 0)
    return {
        "explore.seq_cache_hit_ratio": ratio(
            seq_hits, seq_hits + get("explore.seq_cache.misses", 0)
        ),
        "sim.events": get("sim.events", 0),
        "sim.segments": segments,
        "sim.segment_edges": get("sim.walk.segment_edges", 0),
        "sim.edges_per_segment": ratio(
            get("sim.walk.segment_edges", 0), segments
        ),
        "sim.plan_intern_hit_ratio": ratio(
            intern_hits, intern_hits + get("sim.plan_intern.misses", 0)
        ),
        "sim.watch_fires": get("sim.watch.fires", 0),
        "sim.faults_injected": get("sim.faults.injected", 0),
        "sim.edges_blocked": get("sim.edges.blocked", 0),
        "search.rounds": get("runner.search.rounds", 0),
        "search.evaluations": get("runner.search.evaluations", 0),
        "search.cached_evaluations": get("runner.search.cached", 0),
        "backends.batch_size_mean": ratio(
            get("runner.backend.batch_size.sum", 0),
            get("runner.backend.batch_size.count", 0),
        ),
    }


def from_records(records: list[dict]) -> dict[str, float]:
    return {
        "sim.moves": sum(
            (r.get("metrics") or {}).get("moves", 0)
            for r in records if r.get("ok")
        ),
    }
