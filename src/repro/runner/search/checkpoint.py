"""Resumable search checkpoints (the sidecar behind ``--resume``).

A deep search dies with its worker unless its *trajectory state*
survives: the store's eval records alone only enable cache *replay*
(recomputing every round from the start), which is cheap but still
linear in the finished prefix.  The checkpoint sidecar makes
resumption O(1): after every round the engine persists the strategy's
full proposal state (RNG, seen-set, per-strategy private state — see
:meth:`repro.runner.search.strategies._Strategy.state_dict`), the
driver counters and the incumbent to
``<store>/<spec_hash>/search-checkpoint.json``, and a ``--resume`` run
restores all of it and continues the loop mid-trajectory.

Byte-identity is the contract: because strategies are deterministic in
``(seed, observed values)`` and the restored state is exactly the
state the uninterrupted run had at the same round boundary, the
resumed run proposes the identical candidates, persists the identical
records, and leaves a store byte-identical to an uninterrupted run's
(``tests/test_search_checkpoint.py`` asserts this for every
strategy).

The sidecar lives *next to* the shards, outside the shard namespace,
so :meth:`~repro.runner.store.ResultStore.save` and ``compact`` never
touch it.  It names the spec hash it belongs to and the checkpoint
format version; a mismatch on either makes ``load_checkpoint`` return
``None`` — a stale checkpoint silently degrades to plain cache
replay, never to a corrupted trajectory.
"""

from __future__ import annotations

import json
import pathlib

from ..store import ResultStore, json_text, write_atomic
from .space import point_from_json, point_to_json
from .spec import SearchSpec
from .strategies import _Strategy

CHECKPOINT_VERSION = 1
CHECKPOINT_NAME = "search-checkpoint.json"


def checkpoint_path(store: ResultStore, spec: SearchSpec) -> pathlib.Path:
    """Where the spec's checkpoint sidecar lives in ``store``."""
    return store.sidecar_path(spec, CHECKPOINT_NAME)


def build_checkpoint(
    spec: SearchSpec,
    strategy: _Strategy,
    attempts: int,
    rounds: int,
    best_point,
    best_value,
) -> dict:
    """Assemble one round boundary's full resumable state.

    Deliberately *excludes* execution counters (simulated/cached/
    failed): they describe how an invocation happened to satisfy the
    trajectory (live simulation vs cache hits), not the trajectory
    itself — and the checkpoint must be a pure function of the
    trajectory so that fresh, replayed, interrupted-and-resumed and
    cross-backend runs all leave byte-identical store directories.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "spec_hash": spec.spec_hash(),
        "attempts": int(attempts),
        "rounds": int(rounds),
        "best_point": point_to_json(best_point),
        "best_value": best_value,
        "strategy": strategy.state_dict(),
    }


def write_checkpoint(
    store: ResultStore, spec: SearchSpec, payload: dict
) -> pathlib.Path:
    """Atomically persist a checkpoint."""
    path = checkpoint_path(store, spec)
    write_atomic(path, json_text(payload))
    return path


def load_checkpoint(store: ResultStore, spec: SearchSpec) -> dict | None:
    """The spec's checkpoint, or ``None`` if absent/stale/unreadable.

    Validation is deliberately strict-but-silent: a checkpoint with
    the wrong version or spec hash (the package version changed under
    it, or the store directory was moved across specs) is treated as
    absent — resumption then falls back to the store's cache-replay
    path, which is always correct.
    """
    path = store.dir_for(spec) / CHECKPOINT_NAME
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != CHECKPOINT_VERSION:
        return None
    if payload.get("spec_hash") != spec.spec_hash():
        return None
    if not isinstance(payload.get("strategy"), dict):
        return None
    return payload


def clear_checkpoint(store: ResultStore, spec: SearchSpec) -> bool:
    """Remove the spec's checkpoint; ``True`` if one existed."""
    path = store.dir_for(spec) / CHECKPOINT_NAME
    try:
        path.unlink()
    except OSError:
        return False
    return True


def restore(checkpoint: dict, strategy: _Strategy) -> dict:
    """Load a checkpoint into ``strategy``.

    Returns the ``start`` dict
    :func:`~repro.runner.search.strategies.drive_search` continues
    from.  Execution counters are *not* part of a checkpoint (see
    :func:`build_checkpoint`): a resumed invocation reports only its
    own simulations, while ``attempts`` continues the trajectory's
    running total.
    """
    strategy.load_state(checkpoint["strategy"])
    return {
        "attempts": checkpoint["attempts"],
        "rounds": checkpoint["rounds"],
        "best_point": point_from_json(checkpoint["best_point"]),
        "best_value": checkpoint["best_value"],
    }
