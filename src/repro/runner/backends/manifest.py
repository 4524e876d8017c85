"""The manifest backend: multi-host sweeps over a file-based queue.

A *work manifest* turns any shared directory (NFS mount, bind mount,
plain local dir) into a lock-free job queue for one experiment.  It
lives under the spec-hash directory of a result store::

    <root>/<spec_hash>/manifest/
        manifest.json        spec + ordered trial-key chunks
        claims/chunk-0000.claim    created atomically by the claimant
        results/chunk-0000.json    the chunk's records, once executed

Claiming is lock-free: a worker claims chunk ``i`` by creating its
claim file with ``O_CREAT | O_EXCL`` — the filesystem arbitrates, no
daemon, no lock server.  The manifest itself is a pure function of the
spec (full grid, canonical order), so concurrent creators write
identical bytes and the atomic-replace race is benign.

Every participant runs one claim loop, :func:`run_chunks`: claim a
chunk, execute it, write its result, and collect the results other
workers landed.  It has two callers:

* ``python -m repro worker`` (see :mod:`repro.runner.cli`) — writes
  the records it sees into its own store as ordinary v2 shards and
  exits when nothing is claimable (with ``--steal``: once every chunk
  has a result).  ``python -m repro merge`` later unions the sibling
  stores into one canonical store.
* the in-engine :class:`ManifestBackend` — always waits until every
  chunk has a result, so :func:`~repro.runner.engine.run_experiment`
  can return the complete record set (and persist canonical shards).

Chunks always cover the *full* trial grid — not one worker's view of
what is uncached — so every participant agrees on chunk identity
regardless of local cache state.  Trials are deterministic, so a
worker re-executing a locally-cached trial produces the identical
record; the only cost is wasted work, never divergence.

A crashed worker leaves a claim without a result.  ``python -m repro
worker --steal`` recovers automatically: a claim older than the steal
TTL is *taken over* by atomically rewriting it with a bumped
*generation* and a fresh claim token.  Results carry the token of the
claim they were executed under, so a revived worker's late write is
detected (its token no longer matches the live claim) and discarded
instead of being double-merged — trials are deterministic, so the only
cost of a takeover race is wasted work, never divergence.  Takeover
decisions use the claim file's mtime as seen by the *observer*; a raw
age below zero means the claimant's clock runs ahead of ours (NFS
between skewed hosts), and such claims are never considered stale —
the same clamp ``detailed_status`` applies to its age report.

Manual recovery still works: deleting a stale ``.claim`` file makes
the chunk claimable again (claim files record worker id and pid to
make that call easy).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time
from typing import Iterator

from ...events import stream as _event_stream
from ...events.types import BackendChunkClaimed as _EvBackendChunkClaimed
from ...explore.uxs import UXSProvider
from ...metrics import registry as _metrics_registry
from ...metrics import snapshot as _metrics_snapshot
from ..spec import ExperimentSpec
from ..store import json_text, write_atomic
from ..trial import execute_trial
from .base import BackendContext, BackendError

MANIFEST_VERSION = 1
_DEFAULT_CHUNK_SIZE = 16

# Stale-claim takeover: a claim this old (seconds) with no result is
# considered abandoned and may be stolen by a ``--steal`` worker.
DEFAULT_CLAIM_TTL = 300.0

# Auto chunk sizing (``chunk_size=None``/"auto"): target work per
# chunk, in the relative units of :func:`estimate_trial_cost` when no
# timing data exists, in wall seconds once metrics sidecars provide a
# measured mean trial time.
_AUTO_CHUNK_TARGET_COST = 1024
_AUTO_CHUNK_TARGET_SECONDS = 30.0
_AUTO_CHUNK_MAX = 128
# Keep at least this many chunks so a preempted fleet redistributes
# work at useful granularity (one giant chunk cannot be stolen until
# its TTL expires — and then all at once).
_AUTO_CHUNK_MIN_CHUNKS = 4

# The zero-knowledge algorithms run astronomically larger clocks than
# the known-bound ones at the same graph size; weight them so mixed
# planning errs toward smaller (steal-responsive) chunks.
_ALGORITHM_COST_WEIGHT = {"gather_unknown": 512, "gossip_unknown": 512}

_TRIAL_SECONDS_SERIES = "runner.trial.wall_seconds"


class ManifestError(RuntimeError):
    """The manifest is missing, stale, or stopped making progress."""


def manifest_dir(root: str | os.PathLike, spec_hash: str) -> pathlib.Path:
    """The manifest directory of ``spec_hash`` under store ``root``."""
    return pathlib.Path(root) / spec_hash / "manifest"


def _chunk_name(chunk_id: int) -> str:
    return f"chunk-{chunk_id:04d}"


def estimate_trial_cost(trial) -> int:
    """Relative cost of one trial: graph size × a rounds heuristic.

    Known-bound gathering/gossiping round counts grow with both the
    graph and the size bound (the UXS period is a function of the
    bound), so ``n * n_bound`` tracks the *ordering* of trial costs
    without claiming to be a clock model; the zero-knowledge
    algorithms get a large constant weight on top (their hypothesis
    clocks dwarf everything else at equal ``n``).  Only relative
    values matter — :func:`plan_chunk_size` divides a target by the
    grid's mean.
    """
    weight = _ALGORITHM_COST_WEIGHT.get(trial.algorithm, 1)
    return max(1, trial.n * max(1, trial.n_bound)) * weight


def _measured_trial_seconds(root) -> float | None:
    """Mean wall seconds per trial from metrics sidecars under ``root``.

    Workers run with ``--metrics`` leave per-participant snapshots at
    ``<spec-dir>/manifest/metrics/<worker>.json``; folding them
    recovers the fleet-wide ``runner.trial.wall_seconds`` histogram.
    Returns ``None`` when no sidecar (or no timing series) exists —
    the planner then falls back to the pure cost heuristic.
    """
    if root is None:
        return None
    try:
        snapshot, count = _metrics_snapshot.fold_sidecars([root])
    except (OSError, ValueError):
        return None
    if not count:
        return None
    total = 0.0
    trials = 0
    for series in snapshot.get("series", ()):
        if (
            series.get("name") == _TRIAL_SECONDS_SERIES
            and series.get("kind") == "histogram"
        ):
            total += float(series.get("sum", 0.0))
            trials += int(series.get("count", 0))
    if trials <= 0:
        return None
    return total / trials


def plan_chunk_size(
    spec: ExperimentSpec,
    root: str | os.PathLike | None = None,
    target_seconds: float = _AUTO_CHUNK_TARGET_SECONDS,
) -> int:
    """Size manifest chunks from a per-trial cost estimate.

    Heuristic path: chunks aim for ``_AUTO_CHUNK_TARGET_COST`` units
    of :func:`estimate_trial_cost`, so cheap small-graph grids get big
    chunks (low claim overhead) and expensive grids get small ones
    (steal-responsive).  When metrics sidecars under ``root`` carry
    measured trial times, the measured mean refines the estimate:
    chunks aim for ``target_seconds`` of wall time instead.  Either
    way the result is clamped to ``[1, _AUTO_CHUNK_MAX]`` and to at
    most ``total / _AUTO_CHUNK_MIN_CHUNKS`` so a fleet always has
    enough chunks to redistribute after a preemption.
    """
    trials = spec.trials()
    if not trials:
        return _DEFAULT_CHUNK_SIZE
    mean_cost = sum(estimate_trial_cost(t) for t in trials) / len(trials)
    seconds = _measured_trial_seconds(root)
    if seconds is not None and seconds > 0:
        size = int(target_seconds / seconds)
    else:
        size = int(_AUTO_CHUNK_TARGET_COST / mean_cost)
    size = min(size, max(1, len(trials) // _AUTO_CHUNK_MIN_CHUNKS))
    return max(1, min(size, _AUTO_CHUNK_MAX))


def ensure_manifest(
    root: str | os.PathLike,
    spec: ExperimentSpec,
    chunk_size: int | None = _DEFAULT_CHUNK_SIZE,
) -> tuple[pathlib.Path, dict]:
    """Create (or attach to) the spec's manifest; return ``(dir, payload)``.

    Exactly one creator wins: racing workers arbitrate through an
    ``O_CREAT | O_EXCL`` lock file (claim-style), so even workers
    started with *different* ``chunk_size`` arguments end up sharing
    one chunking — ``chunk_size`` only applies for the worker that
    actually creates the manifest; everyone else adopts what is on
    disk.  ``chunk_size=None`` sizes chunks from the spec's cost
    estimate (:func:`plan_chunk_size`), refined by any metrics
    sidecars already under ``root``.  A manifest whose spec hash does
    not match raises :class:`ManifestError` (the directory was moved
    or the package version changed under it), and so does one whose
    chunks do not flatten to exactly the spec's trial keys in grid
    order (a hand-edited or stale manifest) — checked here, once, so
    no participant ever claims a chunk it could not execute.
    """
    if chunk_size is None:
        chunk_size = plan_chunk_size(spec, root)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    spec_hash = spec.spec_hash()
    keys = [t.key for t in spec.trials()]
    mdir = manifest_dir(root, spec_hash)
    path = mdir / "manifest.json"
    if not path.exists():
        (mdir / "claims").mkdir(parents=True, exist_ok=True)
        (mdir / "results").mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                mdir / "manifest.lock",
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            # Another worker is writing the manifest right now; wait
            # for its atomic replace to land.
            deadline = time.monotonic() + 30.0
            while not path.exists():
                if time.monotonic() > deadline:
                    raise ManifestError(
                        f"{mdir / 'manifest.lock'} exists but "
                        "manifest.json never appeared; its creator "
                        "likely crashed — delete the lock to retry"
                    )
                time.sleep(0.05)
        else:
            os.close(fd)
            chunks = [
                keys[start:start + chunk_size]
                for start in range(0, len(keys), chunk_size)
            ]
            write_atomic(path, json_text({
                "version": MANIFEST_VERSION,
                "spec_hash": spec_hash,
                "spec": spec.to_dict(),
                "chunk_size": chunk_size,
                "chunks": chunks,
                "total": len(keys),
            }))
    payload = json.loads(path.read_text())
    if payload.get("version") != MANIFEST_VERSION:
        raise ManifestError(
            f"manifest {path} has version {payload.get('version')!r}, "
            f"expected {MANIFEST_VERSION}"
        )
    if payload.get("spec_hash") != spec_hash:
        raise ManifestError(
            f"manifest {path} belongs to spec "
            f"{payload.get('spec_hash')!r}, not {spec_hash!r}"
        )
    if [key for chunk in payload["chunks"] for key in chunk] != keys:
        raise ManifestError(
            f"manifest {path} does not chunk the trial grid of spec "
            f"{spec_hash}; the manifest is stale — delete it to rebuild"
        )
    return mdir, payload


def _claim_token(worker_id: str, generation: int) -> str:
    """Identity of one claim *generation* (embedded in its results)."""
    return f"{worker_id}#{generation}"


def _claim_path(mdir: pathlib.Path, chunk_id: int) -> pathlib.Path:
    return mdir / "claims" / f"{_chunk_name(chunk_id)}.claim"


def claim_chunk(
    mdir: pathlib.Path, chunk_id: int, worker_id: str
) -> str | None:
    """Atomically claim one chunk.

    Returns the new claim's token (truthy), or ``None`` if someone
    else holds the chunk — the filesystem's ``O_CREAT | O_EXCL``
    arbitrates, no lock server.
    """
    path = _claim_path(mdir, chunk_id)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None
    token = _claim_token(worker_id, 0)
    with os.fdopen(fd, "w") as handle:
        json.dump({
            "worker": worker_id,
            "pid": os.getpid(),
            "generation": 0,
            "token": token,
        }, handle)
    return token


def read_claim(mdir: pathlib.Path, chunk_id: int) -> dict | None:
    """The chunk's claim payload plus its file mtime, or ``None``.

    ``None`` means *no claim file*.  An unreadable or mid-write claim
    (``claim_chunk`` fills the file after the exclusive create) still
    returns a dict — generation 0, token ``None`` — so takeover logic
    treats it as a live first-generation claim rather than ignoring
    it.
    """
    path = _claim_path(mdir, chunk_id)
    try:
        stat = path.stat()
    except OSError:
        return None
    try:
        parsed = json.loads(path.read_text())
    except (OSError, ValueError):
        parsed = None
    if not isinstance(parsed, dict):
        parsed = {}
    return {
        "worker": parsed.get("worker", "?"),
        "pid": parsed.get("pid"),
        "generation": int(parsed.get("generation", 0) or 0),
        "token": parsed.get("token"),
        "mtime": stat.st_mtime,
    }


def claim_age(claim: dict, now: float | None = None) -> tuple[float, bool]:
    """``(age_seconds, skewed)`` of a claim read by :func:`read_claim`.

    The clamp mirrors :func:`detailed_status`: a claim stamped by a
    clock running ahead of ours has a negative raw age; its true age
    is unknowable but >= 0, so it reports as ``0.0`` and is flagged
    ``skewed`` — never as evidence of staleness.
    """
    if now is None:
        now = time.time()
    raw_age = now - claim["mtime"]
    return max(0.0, raw_age), raw_age < 0


def steal_claim(
    mdir: pathlib.Path,
    chunk_id: int,
    worker_id: str,
    ttl: float,
    now: float | None = None,
) -> str | None:
    """Take over a stale claim; returns the new token, or ``None``.

    A claim is stale when its clamped age exceeds ``ttl`` — a skewed
    claim (negative raw age: the claimant's clock runs ahead of ours)
    clamps to age 0 and therefore can never be stolen, so a
    slow-clocked observer cannot steal a live worker's chunk.  The
    takeover atomically replaces the claim file with a bumped
    generation and a fresh token; the dethroned worker's late result
    write then fails token validation (:func:`read_chunk_result`) and
    is discarded rather than double-merged.
    """
    if ttl < 0:
        raise ValueError("claim TTL must be >= 0")
    claim = read_claim(mdir, chunk_id)
    if claim is None:
        return None  # nothing to steal: claim it the ordinary way
    age_s, skewed = claim_age(claim, now)
    if skewed or age_s <= ttl:
        return None
    generation = claim["generation"] + 1
    token = _claim_token(worker_id, generation)
    write_atomic(_claim_path(mdir, chunk_id), json_text({
        "worker": worker_id,
        "pid": os.getpid(),
        "generation": generation,
        "token": token,
        "stolen_from": claim["worker"],
    }))
    return token


def claim_next(
    mdir: pathlib.Path,
    n_chunks: int,
    worker_id: str,
    steal_ttl: float | None = None,
    now: float | None = None,
) -> tuple[int, str, bool] | None:
    """Claim the lowest available chunk: ``(chunk_id, token, stolen)``.

    Unclaimed chunks are taken first; with ``steal_ttl`` set, a second
    pass takes over claims older than the TTL (see
    :func:`steal_claim`).  ``None`` when nothing is claimable — which,
    for a stealing worker, does *not* mean the sweep is finished:
    in-flight foreign claims may still fail and age past the TTL
    (:func:`run_chunks` polls for exactly that when asked to wait).
    """
    for chunk_id in range(n_chunks):
        if read_chunk_result(mdir, chunk_id) is not None:
            continue
        if _claim_path(mdir, chunk_id).exists():
            continue
        token = claim_chunk(mdir, chunk_id, worker_id)
        if token:
            return chunk_id, token, False
    if steal_ttl is not None:
        for chunk_id in range(n_chunks):
            if read_chunk_result(mdir, chunk_id) is not None:
                continue
            token = steal_claim(mdir, chunk_id, worker_id, steal_ttl, now)
            if token:
                return chunk_id, token, True
    return None


def chunk_result_path(mdir: pathlib.Path, chunk_id: int) -> pathlib.Path:
    return mdir / "results" / f"{_chunk_name(chunk_id)}.json"


def write_chunk_result(
    mdir: pathlib.Path,
    chunk_id: int,
    spec_hash: str,
    records: list[dict],
    token: str | None = None,
) -> None:
    """Persist one executed chunk's records (atomic, deterministic).

    ``token`` is the claim token the chunk was executed under; results
    whose token no longer matches the live claim were written by a
    worker whose claim was stolen and are discarded on read.
    """
    payload = {
        "version": MANIFEST_VERSION,
        "spec_hash": spec_hash,
        "chunk": chunk_id,
        "records": records,
    }
    if token is not None:
        payload["token"] = token
    write_atomic(chunk_result_path(mdir, chunk_id), json_text(payload))


def read_chunk_result(
    mdir: pathlib.Path, chunk_id: int
) -> list[dict] | None:
    """The chunk's records, or ``None`` while it is missing/in-flight.

    A result carrying a claim token is only valid while that token
    still matches the chunk's live claim: a mismatch means the claim
    was stolen after (or while) the result was written — the writer
    was presumed dead — and the stealer's own result supersedes it.
    Tokenless results (engine-internal execution, pre-takeover
    manifests) are always valid, as are results whose claim file is
    gone (manual recovery deletes claims, never results).
    """
    try:
        payload = json.loads(chunk_result_path(mdir, chunk_id).read_text())
    except (OSError, ValueError):
        return None
    if payload.get("version") != MANIFEST_VERSION:
        return None
    records = payload.get("records")
    if not isinstance(records, list):
        return None
    token = payload.get("token")
    if token is not None:
        claim = read_claim(mdir, chunk_id)
        if (
            claim is not None
            and claim["token"] is not None
            and claim["token"] != token
        ):
            return None  # a dethroned worker's late write
    return records


def reset_failed_chunks(mdir: pathlib.Path, payload: dict) -> int:
    """Make chunks whose stored result captured a failure claimable again.

    The engine deliberately never caches ``ok=False`` records — a
    captured failure may be transient, so it re-runs on the next
    invocation.  Chunk results must honor the same contract: a result
    file containing any failed record is deleted (together with its
    claim) when a new run attaches, so those trials re-execute instead
    of replaying the stale failure forever.  Returns the number of
    chunks reset.

    Only safe while no worker is mid-flight on the chunk, which holds
    at attach time: a chunk with a result file is finished, and the
    worst case of two attaching workers racing here is a benign
    double-execution of a deterministic chunk.
    """
    reset = 0
    for chunk_id in range(len(payload["chunks"])):
        records = read_chunk_result(mdir, chunk_id)
        if records is None:
            continue
        if all(record.get("ok") for record in records):
            continue
        chunk_result_path(mdir, chunk_id).unlink(missing_ok=True)
        _claim_path(mdir, chunk_id).unlink(missing_ok=True)
        reset += 1
    return reset


def manifest_status(mdir: pathlib.Path, payload: dict) -> dict:
    """Progress counters: total/claimed/done chunk counts.

    *Done* means what the claim loop means by it: a valid result
    (:func:`read_chunk_result`), so a dethroned worker's late write or
    an unreadable result file does not count.
    """
    n_chunks = len(payload["chunks"])
    done = sum(
        1 for i in range(n_chunks)
        if read_chunk_result(mdir, i) is not None
    )
    claimed = sum(
        1 for i in range(n_chunks) if _claim_path(mdir, i).exists()
    )
    return {"chunks": n_chunks, "claimed": claimed, "done": done}


def detailed_status(
    mdir: pathlib.Path, payload: dict, now: float | None = None
) -> dict:
    """Per-chunk progress plus the ages of in-flight claims.

    A chunk is *done* when a valid result landed (the claim loop's
    test, :func:`read_chunk_result` — a dethroned worker's late write
    does not count), *in flight* when it is claimed but has no valid
    result yet, and *pending* otherwise.  In-flight
    claims report their age (seconds since the claim file's mtime) and
    the claiming worker — an in-flight claim much older than a chunk's
    expected runtime is a crashed worker whose claim file should be
    deleted (``python -m repro manifest status`` prints exactly this).

    On multi-host sweeps over a shared filesystem the claim mtime is
    stamped by the *worker's* clock; a worker running ahead of the
    observer yields a negative raw age.  Such ages are clamped to zero
    and flagged ``skewed`` instead of being reported as-is — a claim
    "-37s old" would poison the oldest-claim stale diagnostics, and
    takeover (:func:`steal_claim`) applies the identical clamp so a
    skewed claim can never be stolen as "stale".
    """
    if now is None:
        now = time.time()
    n_chunks = len(payload["chunks"])
    done = 0
    pending = 0
    in_flight: list[dict] = []
    for chunk_id in range(n_chunks):
        if read_chunk_result(mdir, chunk_id) is not None:
            done += 1
            continue
        claim = read_claim(mdir, chunk_id)
        if claim is None:
            pending += 1
            continue
        age_s, skewed = claim_age(claim, now)
        in_flight.append({
            "chunk": chunk_id,
            "worker": claim["worker"],
            "generation": claim["generation"],
            "age_s": age_s,
            "skewed": skewed,
        })
    return {
        "chunks": n_chunks,
        "done": done,
        "in_flight": in_flight,
        "pending": pending,
        "total_trials": payload.get("total"),
    }


def scan_manifests(
    root: str | os.PathLike,
) -> list[tuple[str, pathlib.Path, dict]]:
    """Every readable manifest under a store/manifest root.

    Returns ``(spec_hash, manifest_dir, payload)`` triples in
    spec-hash order; unreadable or version-mismatched manifests are
    skipped (exactly as corrupt shards are on load).
    """
    root = pathlib.Path(root)
    if not root.is_dir():
        return []
    out = []
    for entry in sorted(root.iterdir()):
        path = entry / "manifest" / "manifest.json"
        if not path.is_file():
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if payload.get("version") != MANIFEST_VERSION:
            continue
        out.append((entry.name, path.parent, payload))
    return out


def write_metrics_sidecar(
    mdir: pathlib.Path, worker_id: str, snapshot: dict
) -> pathlib.Path:
    """Persist one participant's metrics snapshot next to the manifest.

    Sidecars live under ``<manifest>/metrics/<worker_id>.json`` — the
    layout :func:`repro.metrics.snapshot.find_sidecars` globs for — so
    ``python -m repro merge --metrics`` can fold every participant of
    a multi-host sweep into one fleet-wide snapshot.
    """
    sidecar_dir = mdir / "metrics"
    sidecar_dir.mkdir(parents=True, exist_ok=True)
    path = sidecar_dir / f"{worker_id}.json"
    _metrics_snapshot.write_snapshot(path, snapshot)
    return path


def execute_chunk(
    spec_hash: str,
    keys: list[str],
    by_key: dict,
    provider: UXSProvider,
) -> list[dict]:
    """Execute one chunk's trials in manifest order.

    ``spec_hash`` names the manifest the keys come from; every key is
    known to be in ``by_key`` because :func:`ensure_manifest` checked
    the chunks against the spec's grid at attach time.
    """
    return [
        execute_trial(by_key[key], provider=provider).record()
        for key in keys
    ]


def run_chunks(
    mdir: pathlib.Path,
    payload: dict,
    spec: ExperimentSpec,
    provider: UXSProvider,
    worker_id: str,
    *,
    steal_ttl: float | None = None,
    wait: bool = True,
    timeout: float = 600.0,
    poll_interval: float = 0.2,
    max_chunks: int | None = None,
) -> Iterator[tuple[int, list[dict], bool | None]]:
    """The claim loop every manifest participant runs.

    Claims chunks (:func:`claim_next`, stealing claims older than
    ``steal_ttl`` when set), announces each with a
    ``BackendChunkClaimed`` event, executes it, writes its result and
    yields ``(chunk_id, records, stolen)``.  Once nothing is claimable
    (or ``max_chunks`` were claimed) it collects the results other
    workers landed, yielding ``(chunk_id, records, None)`` for each.

    Without ``wait`` (or after ``max_chunks``) that one collect pass
    ends the loop.  With ``wait`` it re-tries claims and collects
    every ``poll_interval`` seconds until every chunk has a result,
    and raises :class:`ManifestError` once ``timeout`` seconds pass
    with no chunk claimed and no result newly landed.  Attached
    metrics: the ``runner.manifest.claim_seconds`` timer and the
    ``runner.manifest.chunks.{claimed,stolen,collected}`` counters.
    """
    chunks: list[list[str]] = payload["chunks"]
    spec_hash = payload["spec_hash"]
    by_key = {t.key: t for t in spec.trials()}
    emit = _event_stream.current()
    reg = _metrics_registry.current()
    claim_timer = (
        contextlib.nullcontext if reg is None
        else lambda: reg.timer("runner.manifest.claim_seconds")
    )
    seen: set[int] = set()
    claimed = 0
    deadline = time.monotonic() + timeout
    while True:
        claim = None
        if max_chunks is None or claimed < max_chunks:
            with claim_timer():
                claim = claim_next(
                    mdir, len(chunks), worker_id, steal_ttl=steal_ttl
                )
        if claim is not None:
            chunk_id, token, stolen = claim
            claimed += 1
            if reg is not None:
                reg.counter("runner.manifest.chunks.claimed").value += 1
                if stolen:
                    reg.counter("runner.manifest.chunks.stolen").value += 1
            if emit is not None:
                emit.emit(_EvBackendChunkClaimed(
                    chunk=chunk_id,
                    chunks=len(chunks),
                    worker=worker_id,
                    spec_hash=spec_hash,
                ))
            records = execute_chunk(
                spec_hash, chunks[chunk_id], by_key, provider
            )
            write_chunk_result(
                mdir, chunk_id, spec_hash, records, token=token
            )
            seen.add(chunk_id)
            deadline = time.monotonic() + timeout
            yield chunk_id, records, stolen
            continue
        for chunk_id in range(len(chunks)):
            if chunk_id in seen:
                continue
            records = read_chunk_result(mdir, chunk_id)
            if records is None:
                continue
            seen.add(chunk_id)
            deadline = time.monotonic() + timeout
            if reg is not None:
                reg.counter("runner.manifest.chunks.collected").value += 1
            yield chunk_id, records, None
        if not wait or len(seen) == len(chunks) or claimed == max_chunks:
            return
        if time.monotonic() > deadline:
            missing = sorted(set(range(len(chunks))) - seen)
            raise ManifestError(
                f"timed out: {len(missing)} chunk(s) claimed by other "
                f"workers made no progress for {timeout:g}s: {missing}; "
                "if a worker crashed, re-run with a steal TTL (worker "
                "--steal) or delete its stale claims/ file(s) under "
                f"{mdir} and re-run"
            )
        time.sleep(poll_interval)


class ManifestBackend:
    """Claim chunks from the store's manifest; wait for the rest."""

    name = "manifest"

    def execute(self, ctx: BackendContext) -> Iterator[dict]:
        store = ctx.store
        if store is None or not hasattr(store, "root"):
            raise BackendError(
                "the manifest backend coordinates through a result "
                "store directory; pass store=<dir> (and leave caching "
                "enabled)"
            )
        chunk_size = ctx.options.get("chunk_size", _DEFAULT_CHUNK_SIZE)
        if chunk_size in (None, "auto"):
            chunk_size = None  # plan from the spec's cost estimate
        else:
            chunk_size = int(chunk_size)
        worker_id = str(
            ctx.options.get("worker_id", f"engine-{os.getpid()}")
        )
        steal_ttl = ctx.options.get("steal_ttl")
        mdir, payload = ensure_manifest(store.root, ctx.spec, chunk_size)
        reset_failed_chunks(mdir, payload)
        # The engine only wants records for what it considers pending;
        # chunks may also contain locally-cached trials (the manifest
        # covers the full grid so all hosts agree on chunk identity).
        pending_keys = {t.key for t in ctx.pending}
        reg = _metrics_registry.current()
        for _, records, stolen in run_chunks(
            mdir, payload, ctx.spec, UXSProvider(**ctx.provider_args),
            worker_id,
            steal_ttl=None if steal_ttl is None else float(steal_ttl),
            wait=True,
            timeout=float(ctx.options.get("timeout", 600.0)),
            poll_interval=float(ctx.options.get("poll_interval", 0.2)),
        ):
            for record in records:
                if record["key"] not in pending_keys:
                    continue
                if stolen is None:
                    ctx.collected += 1
                elif reg is not None:
                    reg.counter(
                        "runner.backend.records", backend="manifest"
                    ).value += 1
                yield record
        if reg is not None:
            # One sidecar per participant; the merge CLI folds them
            # into a single fleet-wide snapshot.
            write_metrics_sidecar(mdir, worker_id, reg.snapshot())
