"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload long_walks --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``trials_per_s``,
``setup_s``, ``peak_rss_mb``, ``ok_share``); ``--trace 1`` runs the
separate traced pass and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with its
environment stamp, is also written under ``.perfbench/results/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 7
# Every process this run starts must be done well inside 180 seconds.
DEADLINE_S = 170.0
RSS_SAMPLE_S = 0.025

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def _tree_rss_kb(pid: int) -> int:
    """Resident kB of ``pid`` and all its descendants (0 once gone)."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    pending.extend(int(p) for p in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total


class Child:
    """One ``child.py`` process, read line by line, killed on overrun."""

    def __init__(self, role: str, args: argparse.Namespace,
                 deadline: float, sample_rss: bool = False) -> None:
        self.role = role
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "child.py"), role,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
            ],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self.ready_at: float | None = None
        self.peak_kb = 0
        self._sampling = False
        self._done = threading.Event()
        self._timer = threading.Timer(
            max(1.0, deadline - time.monotonic()), self.proc.kill
        )
        self._timer.start()
        self._sampler = None
        if sample_rss:
            self._sampler = threading.Thread(target=self._sample)
            self._sampler.start()

    def _sample(self) -> None:
        while not self._done.is_set():
            if self._sampling:
                self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.proc.pid))
            self._done.wait(RSS_SAMPLE_S)

    def result(self) -> dict:
        last = None
        try:
            for line in self.proc.stdout:
                line = line.strip()
                if line == "READY" and self.ready_at is None:
                    self.ready_at = time.monotonic()
                elif line == "BEGIN":
                    self._sampling = True
                elif line == "END":
                    self._sampling = False
                elif line:
                    last = line
            code = self.proc.wait()
        finally:
            self.stop()
        if code != 0 or last is None:
            raise ChildFailed(f"{self.role} process exited with code {code}")
        return json.loads(last)

    def stop(self) -> None:
        self._timer.cancel()
        self._done.set()
        if self._sampler is not None:
            self._sampler.join()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def setup_probes(args, deadline) -> tuple[float, dict]:
    """Median time-to-ready of fresh processes, and median stages."""
    totals, stages = [], []
    for _ in range(SETUP_PROBES):
        child = Child("setup", args, deadline)
        stages.append(child.result())
        if child.ready_at is None:
            raise ChildFailed("setup process never reported READY")
        totals.append(child.ready_at - child.spawned)
    medians = {
        f"setup.{key}": statistics.median(s[key] for s in stages)
        for key in stages[0]
    }
    return statistics.median(totals), medians


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setup_s, setup_stages = setup_probes(args, deadline)
    role = "trace" if args.trace else "measure"
    child = Child(role, args, deadline, sample_rss=not args.trace)
    out = child.result()
    problems = list(out["problems"])
    if args.trace:
        metrics = dict(out["metrics"])
        metrics.update(setup_stages)
        metrics["setup.total_s"] = setup_s
        units = {}
    else:
        metrics = {
            "trials_per_s": out["trials_per_s"],
            "setup_s": setup_s,
            "peak_rss_mb": child.peak_kb / 1024,
            "ok_share": (out["attempted"] - out["failed"]) / out["attempted"],
        }
        units = END_TO_END_UNITS
        if child.peak_kb == 0:
            problems.append("no memory sample was taken")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": out["env"],
        "correct": not problems,
        "problems": problems,
        "attempted": out["attempted"],
        "failed": out["unexpected"],
        "trials_failed": out["failed"],
        "passes": out.get("passes", 1),
        "job_seconds": out.get("job_seconds"),
        "pass_cpu_seconds": out.get("pass_cpu_seconds"),
        "summary": out["summary"],
        "metrics": {
            name: {"value": value, "unit": units.get(name) or unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or ".run_s." in name or ".trial_s." in name:
        return "s"
    if name.endswith("_bytes") or name.startswith("store.bytes"):
        return "bytes"
    if name.endswith("_ns_per_event"):
        return "ns"
    if name.endswith(("_ratio", "_share", "_efficiency")):
        return "ratio"
    if name.endswith(("_mean", "_per_segment")):
        return "mean"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
