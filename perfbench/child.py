"""The benchmark's worker process: set-up probe, measured passes, traced run.

Started by ``run.py`` as ``python3 perfbench/child.py <role> --workload
<name> --seed <n> [--seconds <s>]``; prints progress markers and, as its
last line, one JSON object for ``run.py`` to read.

``setup``
    A fresh process that gets ready for its first trial: imports
    ``repro``, expands the workload's specs and pre-warms the UXS
    provider.  It prints ``READY`` at that point; ``run.py`` times the
    process from spawn to that line.
``measure``
    Cold passes (a fresh store each) of the whole workload through
    the public entry points, until ``--seconds`` are used up, between
    ``BEGIN``/``END`` markers so ``run.py`` samples memory only there.
``trace``
    In process, workers=1: an untraced pass, a traced pass, a second
    untraced pass, a re-run against the traced pass's store and, for
    a workload with ``pool_workers``, one pooled pass.  Reports the
    per-layer metrics.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def environment(workload: workloads.Workload) -> dict:
    """The stamp every result carries; results are only comparable
    when the planner matches."""
    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "numpy": has_numpy,
        "planner": "vector" if has_numpy else "scalar",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workers": workload.workers,
        "pool_workers": workload.pool_workers,
        "backend": workload.backend,
    }


def expected_for(name: str, seed: int) -> dict | None:
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(HERE / "expected.json") as fh:
        return json.load(fh)[name]


class WorkDir:
    """Fresh store directories inside the checkout, removed on close."""

    def __init__(self) -> None:
        self.root = ROOT / ".perfbench" / "work" / str(os.getpid())
        self._count = 0

    def fresh(self) -> pathlib.Path:
        self._count += 1
        path = self.root / f"store-{self._count}"
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def run_pass(workload, store, workers=None, tracer=None):
    """All jobs once; returns (host seconds spent in each job's entry
    point, outcomes), both by job name."""
    outcomes = {}
    seconds = {}
    for job in workload.jobs:
        start = time.perf_counter()
        if tracer is None:
            outcome = workloads.run_job(job, workload, str(store), workers)
        else:
            with tracer.span("runner.workload", algorithm=job.algorithm):
                outcome = workloads.run_job(
                    job, workload, str(store), workers
                )
        seconds[job.name] = time.perf_counter() - start
        outcomes[job.name] = outcome
    return seconds, outcomes


def canonical(outcomes) -> dict[str, str]:
    return {name: o.canonical() for name, o in outcomes.items()}


def attempted(outcomes) -> int:
    return sum(o.attempted for o in outcomes.values())


def failed(outcomes) -> int:
    return sum(o.failed for o in outcomes.values())


def dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Roles.
# ----------------------------------------------------------------------

def role_setup(workload_name: str, seed: int) -> dict:
    import repro.runner  # noqa: F401
    imported = time.perf_counter()
    workload = workloads.build(workload_name, seed)
    sizes = workload.prewarm_sizes()  # expands every experiment grid
    expanded = time.perf_counter()
    from repro.explore.uxs import UXSProvider

    provider = UXSProvider()
    for n in sizes:
        provider.sequence(n)
    prewarmed = time.perf_counter()
    print("READY", flush=True)
    return {
        "import_s": imported - _PROCESS_START,
        "spec_s": expanded - imported,
        "prewarm_s": prewarmed - expanded,
    }


def role_measure(workload_name: str, seed: int, seconds: float) -> dict:
    workload = workloads.build(workload_name, seed)
    expected = expected_for(workload_name, seed)
    work = WorkDir()
    job_seconds: dict[str, list[float]] = {job.name: [] for job in workload.jobs}
    pass_cpu: list[float] = []
    problems: list[str] = []
    first = None
    passes = total_attempted = total_failed = total_unexpected = 0
    try:
        print("BEGIN", flush=True)
        start = time.perf_counter()
        while True:
            store = work.fresh()
            gc.collect()
            cpu = time.process_time()
            took, outcomes = run_pass(workload, store)
            pass_cpu.append(time.process_time() - cpu)
            shutil.rmtree(store)
            passes += 1
            for name, value in took.items():
                job_seconds[name].append(value)
            total_attempted += attempted(outcomes)
            total_failed += failed(outcomes)
            total_unexpected += len(workloads.unexpected_failures(outcomes))
            if first is None:
                first = outcomes
                problems += workloads.check(outcomes, expected)
            elif canonical(outcomes) != canonical(first):
                problems.append("records differ between cold passes")
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > seconds * 1.05:
                break
        print("END", flush=True)
    finally:
        work.close()
    # The median pass, job by job: a burst of host noise during one
    # pass moves one sample of each job it overlaps, not the result.
    median_pass = sum(statistics.median(v) for v in job_seconds.values())
    return {
        "env": environment(workload),
        "passes": passes,
        "job_seconds": job_seconds,
        "pass_cpu_seconds": pass_cpu,
        "trials_per_s": attempted(first) / median_pass,
        "attempted": total_attempted,
        "failed": total_failed,
        "unexpected": total_unexpected,
        "problems": problems,
        "summary": workloads.summary(first),
    }


def role_trace(workload_name: str, seed: int) -> dict:
    import layers
    import tracing
    from repro.metrics import registry as metrics_registry

    workload = workloads.build(workload_name, seed)
    expected = expected_for(workload_name, seed)
    work = WorkDir()
    problems: list[str] = []
    try:
        gc.collect()
        took, plain = run_pass(workload, work.fresh(), workers=1)
        untraced_1 = sum(took.values())

        tracer = tracing.Tracer()
        registry = metrics_registry.Registry(source="perfbench")
        before = layers.registry_totals(registry.snapshot())
        traced_store = work.fresh()
        gc.collect()
        with metrics_registry.attached(registry):
            with tracing.traced(tracer):
                start = time.perf_counter()
                took, traced = run_pass(
                    workload, traced_store, workers=1, tracer=tracer
                )
                traced_wall = time.perf_counter() - start
        traced_busy = sum(took.values())
        counts = layers.delta(
            before, layers.registry_totals(registry.snapshot())
        )
        leaks = tracing.find_leaks()
        if leaks:
            problems.append(f"tracing wrappers left installed: {leaks}")

        gc.collect()
        took, plain_2 = run_pass(workload, work.fresh(), workers=1)
        untraced_2 = sum(took.values())
        if not (canonical(plain) == canonical(traced) == canonical(plain_2)):
            problems.append("traced and untraced records differ")
        problems += workloads.check(traced, expected)

        rerun_registry = metrics_registry.Registry(source="perfbench")
        with metrics_registry.attached(rerun_registry):
            start = time.perf_counter()
            _, rerun = run_pass(workload, traced_store, workers=1)
            cached_rerun_s = time.perf_counter() - start
        bytes_read = layers.registry_totals(
            rerun_registry.snapshot()
        ).get("store.bytes.read", 0)
        if canonical(rerun) != canonical(traced):
            problems.append("records differ when re-run from the store")

        untraced = (untraced_1 + untraced_2) / 2
        efficiency, queue_wait = 1.0, 0.0
        if workload.pool_workers:
            pool_registry = metrics_registry.Registry(source="perfbench")
            gc.collect()
            with metrics_registry.attached(pool_registry):
                took, pooled = run_pass(
                    workload, work.fresh(), workers=workload.pool_workers
                )
            pooled_busy = sum(took.values())
            if canonical(pooled) != canonical(plain):
                problems.append("pooled and in-process records differ")
            efficiency = untraced / (workload.pool_workers * pooled_busy)
            queue_wait = layers.registry_totals(
                pool_registry.snapshot()
            ).get("runner.pipeline.queue_wait_seconds.sum", 0.0)

        metrics = layers.from_spans(tracer.spans)
        metrics.update(layers.from_registry(counts))
        metrics.update(layers.from_records(
            [r for o in traced.values() for r in o.records]
        ))
        metrics.update({
            "sim.host_ns_per_event": layers.ratio(
                metrics["sim.self_s"] * 1e9, metrics["sim.events"]
            ),
            "runner.record_bytes": sum(
                len(text) for text in canonical(traced).values()
            ),
            "backends.parallel_efficiency": efficiency,
            "backends.queue_wait_s": queue_wait,
            "store.bytes_on_disk": dir_bytes(traced_store),
            "store.cached_rerun_s": cached_rerun_s,
            "store.bytes_read": bytes_read,
            "trace.wall_s": traced_wall,
            "trace.overhead_share": (traced_busy - untraced) / untraced,
            "trace.accounted_share": (
                metrics["trace.self_sum_s"] / traced_wall
            ),
            "failed_share": failed(traced) / attempted(traced),
        })
    finally:
        work.close()
    return {
        "env": environment(workload),
        "attempted": attempted(traced),
        "failed": failed(traced),
        "unexpected": len(workloads.unexpected_failures(traced)),
        "problems": problems,
        "summary": workloads.summary(traced),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.role == "setup":
        result = role_setup(args.workload, args.seed)
    elif args.role == "measure":
        result = role_measure(args.workload, args.seed, args.seconds)
    else:
        result = role_trace(args.workload, args.seed)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
