"""``python -m repro
sweep|search|query|compact|worker|merge|manifest|metrics|corpus`` —
engine CLI.

``sweep`` runs a declarative trial grid with progress output (trials/s
and ETA), prints a result table, and memoizes completed trials under
``--cache-dir`` so a repeated invocation with the same spec does zero
re-simulation.  ``--backend`` picks the execution strategy (serial,
process, pipelined, manifest) — all byte-identical::

    python -m repro sweep --sizes 4,6,8 --labels 1,2 --workers 4
    python -m repro sweep --algorithm gossip_known --family ring \\
        --sizes 4,6 --labels 1,2 --messages 101,01 --cache-dir .repro-cache
    python -m repro sweep --sizes 6 --wake simultaneous,staggered:2 \\
        --placement spread,eccentric --adversary fixed,worst_of:4
    python -m repro sweep --family random_regular --sizes 20,30 \\
        --workers 4 --backend pipelined

``query`` filters and aggregates the cached records without
re-simulating anything — streamed shard by shard, never holding a
whole study's records in memory (decomposable stats keep running
aggregates per group; exact percentiles keep one number per record)::

    python -m repro query --list
    python -m repro query --where n=6 --where wake_schedule=staggered:2 \\
        --group-by placement --metrics rounds --stats mean,p95,max

``compact`` rewrites the store into canonical shards (healing corrupt
or orphaned shard files).

``search`` replaces blind ``worst_of:k`` sampling with an adaptive
adversary: a strategy (``hill_climb``, ``halving``, ``bisect``,
``sample``) iteratively proposes scenarios, evaluates them through any
execution backend, and refines toward the worst (or best) case under a
trial budget.  Evaluations and per-round incumbents persist in the
result store, so a re-run resumes from the cached frontier with zero
re-simulation::

    python -m repro search --size 6 --labels 1,2 --seed 0 \\
        --strategy hill_climb --budget 32 --max-delay 20 \\
        --workers 2 --backend pipelined

``worker`` and ``merge`` are the multi-host pair: workers with the
same spec arguments claim chunks from a shared file manifest and write
their own stores; merge unions those stores into one canonical store
(see docs/experiments.md for the two-terminal recipe)::

    python -m repro worker --sizes 6,8 --seeds 0,1,2,3 \\
        --manifest-dir shared --cache-dir store-a
    python -m repro merge --into merged store-a store-b

``manifest status`` reports every manifest's chunk progress (done /
in-flight / pending) and the age of each in-flight claim, so a crashed
worker's stale claim is easy to spot — and ``worker --steal`` reclaims
it automatically once it exceeds the claim TTL.

``corpus`` persists search-discovered worst-case scenarios as a
committed regression grid and replays it (see docs/ci.md)::

    python -m repro corpus export --cache-dir .repro-cache \\
        --out benchmarks/corpus/gather-ring.json --top 2
    python -m repro corpus replay --corpus-dir benchmarks/corpus

Sweep, search and worker exit status is 0 when every executed trial
succeeded, 1 otherwise (failed trials are reported, never crash the
run).  Query, compact, merge and manifest exit 0 on success and 2 on a
malformed request; corpus replay exits 1 on any regression and 2 on a
malformed corpus.
"""

from __future__ import annotations

import argparse
import json as _json
import os as _os
import sys as _sys
import time as _time

from ..events import stream as _event_stream
from ..events.processors import (
    ConsoleProgressProcessor,
    JsonlTraceProcessor,
    ProgressMeter as _ProgressMeter,  # noqa: F401 - public via this module
)
from ..events.types import SweepProgress as _EvSweepProgress
from ..metrics import registry as _metrics_registry
from ..metrics import snapshot as _metrics_snapshot
from . import query as query_mod
from .backends import BACKENDS, BackendError, ManifestError
from .engine import run_experiment
from .spec import PLACEMENTS, ExperimentSpec
from .store import ResultStore
from .trial import ALGORITHMS, FAMILIES


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(";", ",").split(",") if part)


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_sets(text: str, caster) -> tuple[tuple, ...]:
    """Parse ``"1,2;3,4"`` into ``((1, 2), (3, 4))``."""
    out = []
    for group in text.split(";"):
        group = group.strip()
        if group:
            out.append(tuple(caster(v) for v in group.split(",")))
    return tuple(out)


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Spec axes shared by ``sweep`` and ``worker`` (same grid, same
    hash — a worker invoked with a sweep's arguments joins its study)."""
    parser.add_argument(
        "--algorithm", default="gather_known", choices=sorted(ALGORITHMS),
        help="algorithm to run (default: gather_known)",
    )
    parser.add_argument(
        "--family", default="ring", choices=sorted(FAMILIES),
        help="graph family (default: ring)",
    )
    parser.add_argument(
        "--sizes", type=_parse_int_list, default=(4, 6, 8),
        metavar="N,N,...", help="graph sizes (default: 4,6,8)",
    )
    parser.add_argument(
        "--labels", default="1,2", metavar="L,L[;L,L]",
        help="agent label sets, ';'-separated (default: 1,2)",
    )
    parser.add_argument(
        "--messages", default=None, metavar="M,M[;M,M]",
        help="message sets for gossip algorithms (binary strings)",
    )
    parser.add_argument(
        "--seeds", type=_parse_int_list, default=(0,),
        metavar="S,S,...", help="replicate seeds (default: 0)",
    )
    parser.add_argument(
        "--n-bound", type=int, default=None,
        help="known size bound (default: each trial's graph size)",
    )
    parser.add_argument(
        "--placement", default="default", metavar="P,P,...",
        help="agent placement strategies, ','-separated: "
             f"{'|'.join(PLACEMENTS)} (default: default)",
    )
    parser.add_argument(
        "--wake", default="simultaneous", metavar="W,W,...",
        help="wake-schedule strategies, ','-separated: simultaneous, "
             "staggered:<gap>, single_awake[:i], "
             "random[:max_delay[:pct]] (default: simultaneous)",
    )
    parser.add_argument(
        "--adversary", default="fixed", metavar="A,A,...",
        help="adversary strategies, ','-separated: fixed, "
             "worst_of:<k>, best_of:<k> (default: fixed)",
    )
    parser.add_argument(
        "--faults", default="none", metavar="F,F,...",
        help="crash-fault strategies, ','-separated: none, "
             "crash:<label>@<round>[+...], crash-random:<k>:<max_round> "
             "(default: none)",
    )
    parser.add_argument(
        "--dynamics", default="none", metavar="D,D,...",
        help="dynamic-edge strategies, ','-separated: none, "
             "ring-sweep[:<period>], ring-random (default: none)",
    )
    parser.add_argument(
        "--fixed-graph-seed", action="store_true",
        help="pass replicate seeds to the generator verbatim instead "
             "of deriving a per-trial seed",
    )


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Build the :class:`ExperimentSpec` shared arguments describe."""
    label_sets = _parse_sets(args.labels, int)
    message_sets = (
        None
        if args.messages is None
        else _parse_sets(args.messages, str)
    )
    return ExperimentSpec(
        algorithm=args.algorithm,
        family=args.family,
        sizes=args.sizes,
        label_sets=label_sets,
        message_sets=message_sets,
        seeds=args.seeds,
        n_bound=args.n_bound,
        placements=_parse_str_list(args.placement),
        wake_schedules=_parse_str_list(args.wake),
        adversaries=_parse_str_list(args.adversary),
        faults=_parse_str_list(args.faults),
        dynamics=_parse_str_list(args.dynamics),
        graph_seed_mode="fixed" if args.fixed_graph_seed else "derived",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_spec_arguments(parser)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial; default: 1)",
    )
    parser.add_argument(
        "--backend", default=None, choices=sorted(BACKENDS),
        help="execution backend (default: serial for --workers 1, "
             "process otherwise)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-store directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result store",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-trial progress lines",
    )
    _add_events_argument(parser)
    _add_metrics_argument(parser)
    return parser


# The meter moved to repro.events.processors (the console processor
# embeds one); the historical name stays importable for tests and any
# external callers.


def _trace_processor(args: argparse.Namespace, source: str):
    """The ``--events`` trace processor, or ``None`` when not asked for."""
    path = getattr(args, "events", None)
    if not path:
        return None
    return JsonlTraceProcessor(path, source=source)


def _add_events_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--events", default=None, metavar="FILE",
        help="capture a typed JSONL event trace to FILE (inspect with "
             "'python -m repro trace validate|replay|summary FILE')",
    )


def _add_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="collect low-overhead counters/histograms and write the "
             "snapshot to FILE (inspect with 'python -m repro metrics "
             "summary|export|diff'); never affects records",
    )


def _metrics_registry_for(args: argparse.Namespace, source: str):
    """The ``--metrics`` registry, or ``None`` when not asked for."""
    if not getattr(args, "metrics", None):
        return None
    return _metrics_registry.Registry(source=source)


def _finish_metrics(args: argparse.Namespace, reg) -> None:
    """Write the ``--metrics`` snapshot and print the summary table."""
    if reg is None:
        return
    snapshot = reg.snapshot()
    _metrics_snapshot.write_snapshot(args.metrics, snapshot)
    print(_metrics_snapshot.format_summary(snapshot))
    print(
        f"metrics: {args.metrics} "
        f"({len(snapshot['series'])} series)"
    )


def sweep_main(argv: list[str]) -> int:
    # Imported lazily: repro.analysis.sweeps itself imports this
    # package, and the table renderer is only needed by the CLI.
    from ..analysis.tables import ResultTable

    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        spec = _spec_from_args(args)
    except ValueError as exc:  # SpecError is a ValueError
        print(f"error: {exc}")
        return 2

    # Progress rendering goes through the console processor: each line
    # is one atomic locked write to stderr, so concurrent workers
    # sharing the terminal never interleave mid-line, and stdout stays
    # clean for the result table and summary.  The processor is fed
    # from the engine's progress callback rather than the global event
    # stream — attaching to the stream would switch on simulation-level
    # emission (one event per agent move) that the console never
    # renders.  ``--events`` attaches the trace processor globally and
    # captures everything.
    console = ConsoleProgressProcessor(quiet=args.quiet)

    def report_progress(done: int, total: int, rec: dict, cache: bool) -> None:
        console.on_event(_EvSweepProgress(
            done=done, total=total, key=rec["key"], ok=rec["ok"],
            cached=cache,
        ))

    trace = _trace_processor(args, "sweep")
    reg = _metrics_registry_for(args, "sweep")
    try:
        with _event_stream.attached(trace), \
                _metrics_registry.attached(reg):
            result = run_experiment(
                spec,
                workers=args.workers,
                store=None if args.no_cache else args.cache_dir,
                progress=report_progress,
                backend=args.backend,
            )
    except BackendError as exc:
        # e.g. --backend manifest together with --no-cache: a bad
        # request, not a crash.
        print(f"error: {exc}")
        return 2
    except ManifestError as exc:
        # A runtime coordination failure (stale manifest, timed-out
        # foreign claim): report like a failed run, not a traceback.
        print(f"error: {exc}")
        return 1

    table = ResultTable(
        f"sweep: {args.algorithm} on {args.family} "
        f"(spec {spec.spec_hash()})",
        ["n", "labels", "scenario", "seed", "status",
         "rounds", "moves", "events"],
    )
    for rec in result.records:
        metrics = rec["metrics"]
        scenario = f"{rec['placement']}/{rec['wake_schedule']}/{rec['adversary']}"
        # Robustness axes show only when in play, keeping plain sweeps'
        # output unchanged.
        if rec.get("faults", "none") != "none":
            scenario += f"/{rec['faults']}"
        if rec.get("dynamics", "none") != "none":
            scenario += f"/{rec['dynamics']}"
        table.add_row(
            rec["n"],
            "-".join(str(v) for v in rec["labels"]),
            scenario,
            rec["seed"],
            "ok" if rec["ok"] else "FAILED",
            metrics.get("rounds", "-"),
            metrics.get("moves", "-"),
            metrics.get("events", "-"),
        )
    table.emit()
    print(
        f"trials: {len(result.records)}  "
        f"simulated: {result.executed}  cached: {result.cached}  "
        f"failed: {result.failed}{console.summary()}"
    )
    if not args.no_cache:
        print(f"result store: {args.cache_dir} (delete to force re-runs)")
    if trace is not None:
        print(f"event trace: {trace.path} ({trace.lines} events)")
    _finish_metrics(args, reg)
    for rec in result.failures():
        print(f"  FAILED {rec['key']}: {rec['error']}")
    return 0 if result.failed == 0 else 1


# ----------------------------------------------------------------------
# ``python -m repro search`` — adaptive adversary search.
# ----------------------------------------------------------------------

def build_search_parser() -> argparse.ArgumentParser:
    from .search.spec import OBJECTIVES
    from .search.strategies import STRATEGIES

    parser = argparse.ArgumentParser(
        prog="python -m repro search",
        description="Adaptively search the adversary's scenario space "
                    "(wake schedules x placements) for the worst — or "
                    "best — case of one algorithm on one graph, under "
                    "a trial budget.  Evaluations and per-round "
                    "incumbents persist in the result store: re-running "
                    "the same search resumes from the cached frontier "
                    "with zero re-simulation, and 'python -m repro "
                    "query' can aggregate the records.",
    )
    parser.add_argument(
        "--algorithm", default="gather_known", choices=sorted(ALGORITHMS),
        help="algorithm under attack (default: gather_known)",
    )
    parser.add_argument(
        "--family", default="ring", choices=sorted(FAMILIES),
        help="graph family (default: ring)",
    )
    parser.add_argument(
        "--size", type=int, default=6, metavar="N",
        help="graph size (default: 6)",
    )
    parser.add_argument(
        "--labels", default="1,2", metavar="L,L,...",
        help="agent labels (default: 1,2)",
    )
    parser.add_argument(
        "--messages", default=None, metavar="M,M,...",
        help="messages for gossip algorithms (binary strings)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="replicate seed: derives the graph, the sample stream "
             "and the strategy RNG (default: 0)",
    )
    parser.add_argument(
        "--n-bound", type=int, default=None,
        help="known size bound (default: the graph size)",
    )
    parser.add_argument(
        "--strategy", default="hill_climb", choices=sorted(STRATEGIES),
        help="search strategy (default: hill_climb)",
    )
    parser.add_argument(
        "--budget", type=int, default=32, metavar="K",
        help="maximum scenario evaluations (default: 32)",
    )
    parser.add_argument(
        "--objective", default="worst", choices=OBJECTIVES,
        help="maximize ('worst', the adversary) or minimize ('best') "
             "the metric (default: worst)",
    )
    parser.add_argument(
        "--metric", default="rounds",
        help="record metric to optimize (default: rounds)",
    )
    parser.add_argument(
        "--max-delay", type=int, default=16, metavar="D",
        help="wake-delay bound of the scenario space (default: 16)",
    )
    parser.add_argument(
        "--dormant-pct", type=int, default=25, metavar="PCT",
        help="dormancy percentage of sampled scenarios (default: 25)",
    )
    parser.add_argument(
        "--faults", default="none", metavar="STRATEGY",
        help="crash-fault axis: 'crash-random:<k>:<max_round>' makes "
             "the crash schedule a searched scenario coordinate; a "
             "fixed 'crash:<label>@<round>+...' applies to every "
             "candidate (default: none)",
    )
    parser.add_argument(
        "--dynamics", default="none", metavar="STRATEGY",
        help="edge-liveness adversary applied to every candidate: "
             "'ring-sweep[:<period>]' or 'ring-random' "
             "(default: none)",
    )
    parser.add_argument(
        "--batch", type=int, default=8, metavar="B",
        help="candidate evaluations per search round (default: 8)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for candidate evaluation (default: 1)",
    )
    parser.add_argument(
        "--backend", default=None,
        choices=sorted(set(BACKENDS) - {"manifest"}),
        help="execution backend for candidate batches (default: "
             "serial for --workers 1, process otherwise)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-store directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable persistence (the search cannot resume)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from the checkpoint sidecar in the store "
             "(falls back to plain cache replay if none exists)",
    )
    parser.add_argument(
        "--stop-after-rounds", type=int, default=None, metavar="R",
        help="stop after R total search rounds (a deterministic "
             "interruption point; resume later with --resume)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="R",
        help="persist the resume checkpoint every R rounds "
             "(default: 1)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-round progress lines",
    )
    _add_events_argument(parser)
    _add_metrics_argument(parser)
    return parser


def search_main(argv: list[str]) -> int:
    from ..analysis.tables import ResultTable
    from .search import SearchSpec, run_search

    args = build_search_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        if args.resume and args.no_cache:
            raise ValueError(
                "--resume needs the result store (drop --no-cache)"
            )
        if (
            args.stop_after_rounds is not None
            and args.stop_after_rounds < 1
        ):
            raise ValueError("--stop-after-rounds must be >= 1")
        if args.checkpoint_every < 1:
            raise ValueError("--checkpoint-every must be >= 1")
        spec = SearchSpec(
            algorithm=args.algorithm,
            family=args.family,
            n=args.size,
            labels=_parse_int_list(args.labels),
            messages=(
                None
                if args.messages is None
                else _parse_str_list(args.messages)
            ),
            seed=args.seed,
            n_bound=args.n_bound,
            strategy=args.strategy,
            budget=args.budget,
            objective=args.objective,
            metric=args.metric,
            max_delay=args.max_delay,
            dormant_pct=args.dormant_pct,
            faults=args.faults,
            dynamics=args.dynamics,
            batch=args.batch,
        )
    except ValueError as exc:  # SpecError is a ValueError
        print(f"error: {exc}")
        return 2

    console = ConsoleProgressProcessor(quiet=args.quiet)

    def report_progress(
        round_index, attempts, budget, best_value, simulated, cached
    ) -> None:
        if args.quiet:
            return
        best = "-" if best_value is None else str(best_value)
        console.note(
            f"[round {round_index}] evaluated {attempts}/{budget}  "
            f"best {args.metric}={best}  "
            f"(simulated {simulated}, cached {cached})"
        )

    trace = _trace_processor(args, "search")
    reg = _metrics_registry_for(args, "search")
    started = _time.monotonic()
    try:
        with _event_stream.attached(trace), \
                _metrics_registry.attached(reg):
            result = run_search(
                spec,
                workers=args.workers,
                store=None if args.no_cache else args.cache_dir,
                progress=report_progress,
                backend=args.backend,
                resume=args.resume,
                checkpoint_every=args.checkpoint_every,
                max_rounds=args.stop_after_rounds,
            )
    except ValueError as exc:
        # BackendError (e.g. the manifest backend) and SpecError (e.g.
        # a --metric the algorithm's records don't carry, only
        # detectable once the first record exists) are both malformed
        # requests, not crashes.
        print(f"error: {exc}")
        return 2
    elapsed = _time.monotonic() - started

    table = ResultTable(
        f"search: {args.strategy} ({args.objective} {args.metric}) on "
        f"{args.algorithm}/{args.family} n={args.size} "
        f"(spec {spec.spec_hash()})",
        ["round", f"best {args.metric}", "incumbent scenario"],
    )
    for rec in result.records:
        if rec.get("kind") != "round":
            continue
        scenario = f"{rec['placement']} / {rec['wake_schedule']}"
        if "faults" in rec:
            scenario += f" / {rec['faults']}"
        table.add_row(
            rec["search_round"],
            query_mod.format_value(
                rec["metrics"].get(f"best_{args.metric}")
            ),
            scenario,
        )
    table.emit()
    if result.best is not None:
        best_scenario = (
            f"{result.best['placement']} / "
            f"{result.best['wake_schedule']}"
        )
        if result.best.get("faults", "none") != "none":
            best_scenario += f" / {result.best['faults']}"
        print(
            f"worst case found: {args.metric}="
            f"{query_mod.format_value(result.best_value)}  "
            f"scenario {best_scenario}"
        )
    else:
        print("no successful scenario evaluation")
    print(
        f"evaluated: {result.evaluated}/{spec.budget}  "
        f"simulated: {result.simulated}  cached: {result.cached}  "
        f"failed: {result.failed}  rounds: {result.rounds}  "
        f"({elapsed:.1f}s)"
    )
    if not args.no_cache:
        print(
            f"result store: {args.cache_dir} (re-run resumes from the "
            "cached frontier)"
        )
    if trace is not None:
        print(f"event trace: {trace.path} ({trace.lines} events)")
    _finish_metrics(args, reg)
    # Same contract as sweep/worker: 0 only when every executed
    # candidate evaluation succeeded (and something was found).
    return 0 if result.best is not None and result.failed == 0 else 1


# ----------------------------------------------------------------------
# ``python -m repro manifest`` — work-manifest inspection.
# ----------------------------------------------------------------------

def manifest_main(argv: list[str]) -> int:
    from ..analysis.tables import ResultTable
    from .backends import manifest as manifest_mod

    parser = argparse.ArgumentParser(
        prog="python -m repro manifest",
        description="Inspect the work manifests of multi-host sweeps: "
                    "chunk progress per spec and the age of every "
                    "in-flight claim (a claim far older than a chunk's "
                    "runtime belongs to a crashed worker — delete its "
                    "claims/ file to make the chunk claimable again).",
    )
    parser.add_argument(
        "command", choices=("status",),
        help="'status': chunk counts and stale-claim ages",
    )
    parser.add_argument(
        "--manifest-dir", default=".repro-cache", metavar="DIR",
        help="manifest/store root to scan (default: .repro-cache)",
    )
    parser.add_argument(
        "--spec", default=None, metavar="HASH",
        help="restrict to one spec (hash or unique prefix)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the status as JSON instead of a table",
    )
    args = parser.parse_args(argv)
    manifests = manifest_mod.scan_manifests(args.manifest_dir)
    if args.spec is not None:
        manifests = [
            m for m in manifests if m[0].startswith(args.spec)
        ]
    if not manifests:
        print(
            f"error: no work manifests under {args.manifest_dir!r}"
            + (f" matching {args.spec!r}" if args.spec else "")
        )
        return 2
    now = _time.time()
    statuses = []
    for spec_hash, mdir, payload in manifests:
        status = manifest_mod.detailed_status(mdir, payload, now=now)
        status["spec_hash"] = spec_hash
        statuses.append(status)
    if args.as_json:
        print(_json.dumps(statuses, sort_keys=True, indent=1))
        return 0
    table = ResultTable(
        f"work manifests under {args.manifest_dir}",
        ["spec", "chunks", "done", "in flight", "pending",
         "oldest claim"],
    )
    for status in statuses:
        ages = [c["age_s"] for c in status["in_flight"]]
        table.add_row(
            status["spec_hash"],
            status["chunks"],
            status["done"],
            len(status["in_flight"]),
            status["pending"],
            f"{max(ages):.0f}s" if ages else "-",
        )
    table.emit()
    for status in statuses:
        for claim in status["in_flight"]:
            # A "skewed" claim was stamped by a worker clock running
            # ahead of ours; its true age is unknowable but >= 0, so
            # it is never evidence of staleness.
            note = " [skewed]" if claim.get("skewed") else ""
            print(
                f"  in flight: spec {status['spec_hash']} chunk "
                f"{claim['chunk']} claimed by {claim['worker']} "
                f"({claim['age_s']:.0f}s ago){note}"
            )
    return 0


# ----------------------------------------------------------------------
# ``python -m repro query`` — cached-study analysis.
# ----------------------------------------------------------------------

def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro query",
        description="Filter and aggregate cached sweep records "
                    "without re-running any trials.",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-store directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--spec", default=None, metavar="HASH",
        help="restrict to one cached spec (hash or unique prefix)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_specs",
        help="list cached experiments instead of querying records",
    )
    parser.add_argument(
        "--where", action="append", default=[], metavar="FIELD=VALUE",
        help="filter clause (repeatable); fields are record axes "
             "(n, family, wake_schedule, placement, adversary, "
             "faults, dynamics, seed, ...) or metrics (rounds, moves, "
             "events, survivors_gathered, crashed_labels, ...); "
             "note the store only ever holds successful trials "
             "(failures re-run instead of being cached)",
    )
    parser.add_argument(
        "--group-by", default="", metavar="F1,F2,...",
        help="fields to group by (default: no grouping)",
    )
    parser.add_argument(
        "--metrics", default="rounds", metavar="M1,M2,...",
        help="metrics to aggregate (default: rounds)",
    )
    parser.add_argument(
        "--stats", default="count,mean,p50,p95,max",
        metavar="S1,S2,...",
        help=f"aggregate statistics, from {query_mod.STATS} "
             "(default: count,mean,p50,p95,max)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit rows as JSON instead of a table",
    )
    return parser


def query_main(argv: list[str]) -> int:
    from ..analysis.tables import ResultTable

    args = build_query_parser().parse_args(argv)
    # With --json, stdout carries nothing but JSON (pipeable into
    # jq); errors and the summary line go to stderr in that mode.
    err_stream = _sys.stderr if args.as_json else _sys.stdout
    store = ResultStore(args.cache_dir)
    specs = store.list_specs()
    if not specs:
        print(
            f"error: no cached results under {args.cache_dir!r}",
            file=err_stream,
        )
        return 2

    if args.list_specs:
        if (
            args.where
            or args.group_by
            or args.metrics != "rounds"
            or args.stats != "count,mean,p50,p95,max"
        ):
            print(
                "error: --list only composes with --spec; "
                "--where/--group-by/--metrics/--stats filter and "
                "aggregate records, not the spec listing",
                file=err_stream,
            )
            return 2
        if args.spec is not None:
            specs = [
                e for e in specs
                if e["spec_hash"].startswith(args.spec)
            ]
            if not specs:
                print(
                    "error: no cached spec matches prefix "
                    f"{args.spec!r}",
                    file=err_stream,
                )
                return 2
        if args.as_json:
            print(_json.dumps(specs, sort_keys=True, indent=1))
            return 0
        table = ResultTable(
            f"cached experiments in {args.cache_dir}",
            ["spec", "algorithm", "family", "trials"],
        )
        for entry in specs:
            spec = entry["spec"] or {}
            table.add_row(
                entry["spec_hash"],
                spec.get("algorithm", "?"),
                spec.get("family", "?"),
                entry["trials"],
            )
        table.emit()
        return 0

    try:
        where = query_mod.parse_where(args.where)
        group_by = _parse_str_list(args.group_by)
        metrics = _parse_str_list(args.metrics)
        stats = _parse_str_list(args.stats)
        # One streaming pass, shard by shard: the store never
        # materializes a whole spec's records.  Decomposable stats
        # keep O(groups) running aggregates; exact percentiles keep
        # one numeric value per aggregated record — never full dicts.
        aggregator = query_mod.StreamAggregator(
            where, group_by=group_by, metrics=metrics, stats=stats
        )
        for record in store.iter_records(args.spec):
            aggregator.add(record)
        if not aggregator.records:
            print(
                "error: the matching store entries hold no records "
                "(failed trials are never cached)",
                file=err_stream,
            )
            return 2
        rows = aggregator.rows()
    except ValueError as exc:  # QueryError, ambiguous --spec prefix
        print(f"error: {exc}", file=err_stream)
        return 2

    if args.as_json:
        print(_json.dumps(rows, sort_keys=True, indent=1))
    else:
        header = list(group_by) + ["count"]
        for metric in metrics:
            header.extend(
                f"{metric}.{s}" for s in stats if s != "count"
            )
        clauses = " ".join(f"{k}={v}" for k, v in sorted(where.items()))
        table = ResultTable(
            "query: " + (clauses if clauses else "all records"),
            header,
        )
        for row in rows:
            # Group values go through format_value too: a field can
            # be absent (None) on part of a heterogeneous cache, and
            # unknown-bound round counts overwhelm plain str().
            cells = [
                query_mod.format_value(row["group"][f])
                for f in group_by
            ]
            cells.append(row["count"])
            for metric in metrics:
                cells.extend(
                    query_mod.format_value(row[metric][s])
                    for s in stats if s != "count"
                )
            table.add_row(*cells)
        table.emit()
    print(
        f"records: {aggregator.records}  matched: {aggregator.matched}  "
        f"aggregated: {aggregator.aggregated}  groups: {len(rows)}",
        file=err_stream,
    )
    return 0


# ----------------------------------------------------------------------
# ``python -m repro compact`` — store maintenance.
# ----------------------------------------------------------------------

def compact_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro compact",
        description="Rewrite a result store into canonical shards, "
                    "healing corrupt or orphaned files.",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-store directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--shard-size", type=int, default=None, metavar="N",
        help="records per shard (default: the store's default)",
    )
    args = parser.parse_args(argv)
    kwargs = {}
    if args.shard_size is not None:
        kwargs["shard_size"] = args.shard_size
    try:
        store = ResultStore(args.cache_dir, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if not store.list_specs():
        print(f"error: no cached results under {args.cache_dir!r}")
        return 2
    stats = store.compact()
    print(
        f"compacted {stats['specs']} spec(s), {stats['records']} "
        f"record(s); removed {stats['removed']} stale file(s)"
    )
    return 0


# ----------------------------------------------------------------------
# ``python -m repro worker`` — one participant of a multi-host sweep.
# ----------------------------------------------------------------------

def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Claim and execute trial chunks from a shared "
                    "work manifest.  Start any number of workers with "
                    "identical spec arguments and a shared "
                    "--manifest-dir; each writes ordinary v2 shards "
                    "into its own --cache-dir, which 'python -m repro "
                    "merge' later unions into one canonical store.",
    )
    _add_spec_arguments(parser)
    parser.add_argument(
        "--manifest-dir", default=None, metavar="DIR",
        help="shared manifest root all workers coordinate through "
             "(default: --cache-dir)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="this worker's own result store (default: .repro-cache)",
    )
    parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="name recorded in claim files (default: worker-<pid>)",
    )
    parser.add_argument(
        "--chunk-size", default="auto", metavar="N|auto",
        help="trials per manifest chunk, applied when this worker "
             "creates the manifest; 'auto' sizes chunks from the "
             "spec's per-trial cost estimate, refined by any metrics "
             "sidecars under the manifest root (default: auto)",
    )
    parser.add_argument(
        "--max-chunks", type=int, default=None, metavar="N",
        help="stop after claiming N chunks (default: run until no "
             "chunk is claimable)",
    )
    parser.add_argument(
        "--steal", action="store_true",
        help="take over chunks whose claims are older than "
             "--claim-ttl (a preempted/crashed worker's), and keep "
             "polling until every chunk has a result instead of "
             "exiting while foreign claims are in flight",
    )
    parser.add_argument(
        "--claim-ttl", type=float, default=None, metavar="SECONDS",
        help="age at which an in-flight claim counts as abandoned "
             "(default: 300; only meaningful with --steal)",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="how often a --steal worker re-checks in-flight foreign "
             "claims (default: 0.5)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-chunk progress lines",
    )
    _add_events_argument(parser)
    _add_metrics_argument(parser)
    return parser


def worker_main(argv: list[str]) -> int:
    from .backends import manifest as manifest_mod

    args = build_worker_parser().parse_args(argv)
    try:
        if args.chunk_size == "auto":
            chunk_size = None  # plan from the spec's cost estimate
        else:
            try:
                chunk_size = int(args.chunk_size)
            except ValueError:
                raise ValueError(
                    "--chunk-size must be an integer or 'auto': "
                    f"{args.chunk_size!r}"
                ) from None
            if chunk_size < 1:
                raise ValueError("--chunk-size must be >= 1")
        if args.max_chunks is not None and args.max_chunks < 1:
            raise ValueError("--max-chunks must be >= 1")
        if args.claim_ttl is not None and not args.steal:
            raise ValueError("--claim-ttl only applies with --steal")
        if args.claim_ttl is not None and args.claim_ttl < 0:
            raise ValueError("--claim-ttl must be >= 0")
        if args.poll_interval <= 0:
            raise ValueError("--poll-interval must be > 0")
        spec = _spec_from_args(args)
        manifest_root = args.manifest_dir or args.cache_dir
        mdir, payload = manifest_mod.ensure_manifest(
            manifest_root, spec, chunk_size=chunk_size
        )
        # Chunks that previously captured a failure become claimable
        # again: failures are retried, never replayed (the same
        # contract the result store honors).
        manifest_mod.reset_failed_chunks(mdir, payload)
    except (ValueError, manifest_mod.ManifestError) as exc:
        print(f"error: {exc}")
        return 2
    worker_id = args.worker_id or f"worker-{_os.getpid()}"
    trace = _trace_processor(args, "worker")
    reg = _metrics_registry_for(args, worker_id)
    with _event_stream.attached(trace), _metrics_registry.attached(reg):
        code = _worker_run(args, spec, mdir, payload, worker_id)
    if trace is not None:
        print(f"event trace: {trace.path} ({trace.lines} events)")
    _finish_metrics(args, reg)
    return code


def _worker_run(args, spec, mdir, payload, worker_id) -> int:
    """Drive the manifest claim loop for ``worker_main`` (events
    attached): store what it yields, print progress and a summary."""
    from ..explore.uxs import UXSProvider
    from .backends import manifest as manifest_mod

    reg = _metrics_registry.current()
    store = ResultStore(args.cache_dir)
    # Chunk lines go through the console processor: concurrent workers
    # of one study share the terminal's stderr, and ``note`` writes a
    # whole line in one locked call so their output can interleave only
    # at line boundaries, never mid-line.
    console = ConsoleProgressProcessor(quiet=args.quiet)
    meter = console.meter
    ok_records: dict[str, dict] = dict(store.load(spec))
    claimed = 0
    stolen = 0
    executed = 0
    failed = 0
    steal_ttl = None
    if args.steal:
        steal_ttl = (
            manifest_mod.DEFAULT_CLAIM_TTL
            if args.claim_ttl is None
            else args.claim_ttl
        )
    # Saving re-serializes every accumulated shard, so doing it after
    # *every* chunk turns a long sweep quadratic; throttle to one save
    # per interval (a crash re-runs at most a few seconds of chunks,
    # and their manifest results survive for the next worker's
    # collect pass).
    save_interval = 5.0
    last_save = _time.monotonic()
    chunks = manifest_mod.run_chunks(
        mdir, payload, spec, UXSProvider(), worker_id,
        steal_ttl=steal_ttl,
        wait=args.steal,
        # A --steal worker only gives up when unfinished chunks stop
        # making progress for far longer than any claim could stay
        # both live and un-stealable (claims are stealable once past
        # the TTL, so a healthy fleet always progresses eventually).
        timeout=(steal_ttl or 0.0) + 600.0,
        poll_interval=args.poll_interval,
        max_chunks=args.max_chunks,
    )
    try:
        for chunk_id, records, was_stolen in chunks:
            if was_stolen is None:
                # A chunk another worker executed — possibly one that
                # crashed before its own (throttled) save — so any one
                # worker exiting normally after the last result is
                # enough for 'merge' to see the whole study.
                for record in records:
                    if record["ok"]:
                        ok_records.setdefault(record["key"], record)
                continue
            claimed += 1
            stolen += 1 if was_stolen else 0
            executed += len(records)
            failed += sum(1 for r in records if not r["ok"])
            for record in records:
                meter.simulated += 1
                if record["ok"]:
                    ok_records[record["key"]] = record
            if (
                ok_records
                and _time.monotonic() - last_save >= save_interval
            ):
                store.save(spec, ok_records)
                last_save = _time.monotonic()
            if not args.quiet:
                status = manifest_mod.manifest_status(mdir, payload)
                elapsed = max(_time.monotonic() - meter.started, 1e-9)
                taken = " (stolen)" if was_stolen else ""
                console.note(
                    f"[chunk {chunk_id}]{taken} {len(records)} trial(s)  "
                    f"done {status['done']}/{status['chunks']} chunks  "
                    f"({meter.simulated / elapsed:.1f} trials/s)"
                )
    except manifest_mod.ManifestError as exc:
        print(f"error: {exc}")
        return 1
    # Failures are never stored (they re-run), as in the engine.
    if ok_records:
        store.save(spec, ok_records)
    status = manifest_mod.manifest_status(mdir, payload)
    if reg is not None:
        # One sidecar per participant next to the manifest, so
        # 'python -m repro merge --metrics' can fold the fleet.
        sidecar = manifest_mod.write_metrics_sidecar(
            mdir, worker_id, reg.snapshot()
        )
        print(f"metrics sidecar: {sidecar}")
    print(
        f"worker {worker_id}: claimed {claimed} chunk(s) "
        f"({stolen} stolen), executed {executed} trial(s), "
        f"failed {failed}; manifest "
        f"{status['done']}/{status['chunks']} chunks done"
    )
    print(f"result store: {args.cache_dir}")
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# ``python -m repro merge`` — union sibling stores.
# ----------------------------------------------------------------------

def merge_main(argv: list[str]) -> int:
    import warnings as _warnings

    parser = argparse.ArgumentParser(
        prog="python -m repro merge",
        description="Union sibling result stores (e.g. per-worker "
                    "stores of a manifest sweep) into one canonical "
                    "store.  Duplicate trial keys are last-write-wins "
                    "in source order; corrupt shards are skipped; "
                    "legacy v1 sources land as v2 shards.",
    )
    parser.add_argument(
        "--into", required=True, metavar="DIR",
        help="destination store (created if missing; its own records "
             "participate as the base layer)",
    )
    parser.add_argument(
        "sources", nargs="+", metavar="SRC",
        help="source store directories, lowest precedence first",
    )
    parser.add_argument(
        "--shard-size", type=int, default=None, metavar="N",
        help="records per destination shard (default: the store's "
             "default)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="OUT",
        help="fold every per-worker metrics sidecar found under the "
             "source stores into one fleet-wide snapshot at OUT",
    )
    args = parser.parse_args(argv)
    kwargs = {}
    if args.shard_size is not None:
        kwargs["shard_size"] = args.shard_size
    try:
        dest = ResultStore(args.into, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if not any(ResultStore(src).list_specs() for src in args.sources):
        print("error: no cached results in any source store")
        return 2
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        stats = dest.merge_from(args.sources)
    for warning in caught:
        print(f"warning: {warning.message}", file=_sys.stderr)
    print(
        f"merged {stats['specs']} spec(s), {stats['records']} "
        f"record(s) into {args.into}; {stats['duplicates']} "
        f"conflicting duplicate(s), {stats['skipped']} spec(s) skipped"
    )
    if args.metrics:
        snapshot, count = _metrics_snapshot.fold_sidecars(
            args.sources, source="merged"
        )
        if count:
            _metrics_snapshot.write_snapshot(args.metrics, snapshot)
            print(
                f"metrics: folded {count} sidecar snapshot(s) into "
                f"{args.metrics}"
            )
        else:
            print(
                "warning: no metrics sidecars found under the source "
                "stores (workers write them when run with --metrics)",
                file=_sys.stderr,
            )
    return 0


# ----------------------------------------------------------------------
# ``python -m repro trace`` — event-trace inspection.
# ----------------------------------------------------------------------

def trace_main(argv: list[str]) -> int:
    """Validate/replay/summarize ``--events`` JSONL traces.

    Thin delegator so ``python -m repro trace`` dispatches like every
    other engine command; the implementation lives with the event
    machinery in :mod:`repro.events.cli`.
    """
    from ..events.cli import trace_main as _trace_main

    return _trace_main(argv)


# ----------------------------------------------------------------------
# ``python -m repro metrics`` — metrics-snapshot inspection.
# ----------------------------------------------------------------------

def metrics_main(argv: list[str]) -> int:
    """Summarize/export/diff ``--metrics`` snapshot files.

    Thin delegator so ``python -m repro metrics`` dispatches like
    every other engine command; the implementation lives with the
    metrics machinery in :mod:`repro.metrics.cli`.
    """
    from ..metrics.cli import metrics_main as _metrics_main

    return _metrics_main(argv)


# ----------------------------------------------------------------------
# ``python -m repro corpus`` — worst-case scenario corpora.
# ----------------------------------------------------------------------

def corpus_main(argv: list[str]) -> int:
    """Export/replay committed worst-case scenario corpora.

    Thin delegator so ``python -m repro corpus`` dispatches like every
    other engine command; the implementation lives in
    :mod:`repro.runner.corpus`.
    """
    from .corpus import corpus_main as _corpus_main

    return _corpus_main(argv)
