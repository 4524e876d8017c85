"""The benchmark's workloads, generated from a seed.

Each workload is a list of jobs: experiment grids run through
``repro.runner.run_experiment`` or adversarial searches run through
``repro.runner.run_search``.  The seed picks the replicate seeds of the
grids and the seed of each search; the shape of every grid (its axes
and their lengths) never depends on it, so a result can be re-checked
on a held-out seed.

The program only ever sees the generated specs.  Everything here goes
through the public entry points, looked up on the ``repro.runner``
package at call time so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0
NAMES = ("long_walks", "fresh_graphs", "adversary_search")

# Replicate seeds per grid point.  Larger counts average out how much
# work one seed's graphs happen to need, at the price of longer passes.
_WALK_SEEDS = 4
_FRESH_SEEDS = 64
# Trial budgets of the two searches.
_PLAIN_BUDGET = 200
_FAULTED_BUDGET = 24


@dataclass(frozen=True)
class Job:
    """One public call: an experiment grid or a search."""

    name: str
    kind: str  # "experiment" or "search"
    spec: object
    algorithm: str


@dataclass(frozen=True)
class Workload:
    """A named list of jobs and how they run.

    ``workers`` is what the measured passes use.  ``pool_workers``,
    when set, sizes the one pooled pass of the traced run, which
    measures the pool layer without putting its scheduling noise into
    the timed passes.
    """

    name: str
    backend: str
    workers: int
    jobs: tuple[Job, ...]
    pool_workers: int | None = None

    def prewarm_sizes(self) -> tuple[int, ...]:
        """The size bounds the engine pre-warms, as ``run_experiment``
        and ``run_search`` compute them."""
        sizes: set[int] = set()
        for job in self.jobs:
            if job.kind == "search":
                sizes.add(job.spec.effective_n_bound)
            else:
                sizes.update(t.n_bound for t in job.spec.trials())
        return tuple(sorted(sizes))


def _seeds(seed: int, count: int) -> tuple[int, ...]:
    return tuple(range(seed * count, seed * count + count))


def _long_walks(seed: int) -> Workload:
    from repro.runner import ExperimentSpec

    # A ring's port labeling decides whether its walks plan into long
    # or short segments, which changes the host time of a trial by 2-3x
    # at equal event counts.  Each (label set, placement) pair therefore
    # gets its own replicate seeds, so a pass averages over many
    # labelings instead of running every pair on the same few.
    rings = []
    pairs = [
        (labels, placement)
        for labels in ((1, 2), (3, 5))
        for placement in ("spread", "eccentric")
    ]
    for i, (labels, placement) in enumerate(pairs):
        rings.append(Job(
            f"gather_known/ring/{'-'.join(map(str, labels))}/{placement}",
            "experiment",
            ExperimentSpec(
                algorithm="gather_known",
                family="ring",
                sizes=(10, 12, 14),
                label_sets=(labels,),
                seeds=_seeds(4 * seed + i, _WALK_SEEDS),
                placements=(placement,),
                graph_seed_mode="fixed",
            ),
            "gather_known",
        ))
    return Workload(
        name="long_walks",
        backend="pipelined",
        workers=1,
        jobs=(
            *rings,
            Job("gather_known/torus", "experiment", ExperimentSpec(
                algorithm="gather_known",
                family="torus",
                sizes=(16,),
                label_sets=((1, 2), (3, 5)),
                seeds=_seeds(seed, _WALK_SEEDS),
                placements=("spread", "eccentric"),
                graph_seed_mode="fixed",
            ), "gather_known"),
            Job("gather_unknown/edge", "experiment", ExperimentSpec(
                algorithm="gather_unknown",
                family="edge",
                sizes=(2,),
                label_sets=((1, 2), (2, 3), (1, 3)),
                seeds=_seeds(seed, _WALK_SEEDS),
                wake_schedules=("simultaneous", "staggered:4", "random:20"),
            ), "gather_unknown"),
        ),
    )


def _fresh_graphs(seed: int) -> Workload:
    from repro.runner import ExperimentSpec

    # One job per size: the measured passes time each job on its own,
    # so a burst of host noise moves one sample of one job.
    return Workload(
        name="fresh_graphs",
        backend="pipelined",
        workers=1,
        pool_workers=2,
        jobs=tuple(
            Job(f"talking/random_regular/n{n}", "experiment", ExperimentSpec(
                algorithm="talking",
                family="random_regular",
                sizes=(n,),
                label_sets=((1, 2),),
                seeds=_seeds(seed, _FRESH_SEEDS),
                placements=("default", "spread", "random", "eccentric"),
            ), "talking")
            for n in (8, 12, 16)
        ),
    )


def _adversary_search(seed: int) -> Workload:
    from repro.runner import SearchSpec

    point = dict(
        algorithm="gather_known",
        family="ring",
        n=5,
        labels=(1, 2),
        seed=seed,
        strategy="hill_climb",
    )
    return Workload(
        name="adversary_search",
        backend="serial",
        workers=1,
        jobs=(
            Job("search/plain", "search", SearchSpec(
                budget=_PLAIN_BUDGET, **point
            ), "gather_known"),
            Job("search/faulted", "search", SearchSpec(
                budget=_FAULTED_BUDGET,
                faults="crash-random:1:300",
                dynamics="ring-sweep",
                **point,
            ), "gather_known"),
        ),
    )


_GENERATORS: dict[str, Callable[[int], Workload]] = {
    "long_walks": _long_walks,
    "fresh_graphs": _fresh_graphs,
    "adversary_search": _adversary_search,
}


def build(name: str, seed: int) -> Workload:
    if seed < 0:
        raise ValueError("the workload seed must be non-negative")
    try:
        return _GENERATORS[name](seed)
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(NAMES)}"
        ) from None


def grid_shape(workload: Workload) -> list[tuple]:
    """Seed-free description of a workload: every job's axis lengths."""
    shape = []
    for job in workload.jobs:
        spec = job.spec
        if job.kind == "search":
            shape.append((job.name, spec.strategy, spec.budget))
        else:
            shape.append((
                job.name, len(spec.sizes), len(spec.label_sets),
                len(spec.placements), len(spec.wake_schedules),
                len(spec.seeds), len(spec.trials()),
            ))
    return shape


# ----------------------------------------------------------------------
# Running a job and checking what it produced.
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one job returned: its records and its trial counts."""

    records: list[dict]
    attempted: int
    failed: int
    best: dict | None = None

    def canonical(self) -> str:
        return json.dumps(
            self.records, sort_keys=True, separators=(",", ":")
        )


def run_job(job: Job, workload: Workload, store,
            workers: int | None = None) -> Outcome:
    """Run one job through its public entry point, on the workload's
    backend with its workers unless ``workers`` overrides them."""
    import repro.runner as runner

    workers = workload.workers if workers is None else workers
    backend = workload.backend
    if job.kind == "search":
        result = runner.run_search(
            job.spec, workers=workers, backend=backend, store=store
        )
        return Outcome(
            records=result.records,
            # A search evaluation counts as a trial.
            attempted=result.evaluated,
            failed=result.failed,
            best={"value": result.best_value, "scenario": result.best},
        )
    result = runner.run_experiment(
        job.spec, workers=workers, backend=backend, store=store
    )
    return Outcome(
        records=result.records,
        attempted=len(result.records),
        failed=result.failed,
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def is_known_failure(record: dict) -> bool:
    """The failure class this tree is known to have.

    ``gather_unknown`` with a ``random`` wake schedule can exceed its
    hypothesis budget when an agent wakes 12-20 rounds late.  Such
    trials stay in the grid and count in the failure share; any other
    failure makes the run incorrect.
    """
    return (
        record.get("algorithm") == "gather_unknown"
        and str(record.get("wake_schedule", "")).startswith("random")
        and str(record.get("error") or "").startswith(
            "HypothesisBudgetError"
        )
    )


def failed_records(outcomes: dict[str, Outcome]) -> list[dict]:
    return [
        r for o in outcomes.values() for r in o.records
        if r.get("ok") is False
    ]


def unexpected_failures(outcomes: dict[str, Outcome]) -> list[dict]:
    return [r for r in failed_records(outcomes) if not is_known_failure(r)]


def summary(outcomes: dict[str, Outcome]) -> dict:
    """The seed-specific facts the correctness check compares."""
    failed = failed_records(outcomes)
    out: dict = {
        "digests": {
            name: digest(o.canonical()) for name, o in outcomes.items()
        },
        "failed_keys": sorted(r["key"] for r in failed),
    }
    best = {
        name: o.best for name, o in outcomes.items() if o.best is not None
    }
    if best:
        out["best"] = best
    return out


def check(outcomes: dict[str, Outcome], expected: dict | None) -> list[str]:
    """Problems with a pass's outcomes; empty when all is as expected.

    Unknown failures are problems on any seed; on the default seed the
    digests, the failing keys and the searches' best results must also
    equal the committed expectation.
    """
    problems = [
        f"unexpected failure {r['key']}: {r.get('error')}"
        for r in unexpected_failures(outcomes)
    ]
    if expected is not None:
        got = json.loads(json.dumps(summary(outcomes)))
        for field in ("digests", "failed_keys", "best"):
            if got.get(field) != expected.get(field):
                problems.append(
                    f"{field} differ from the committed expectation"
                )
    return problems
