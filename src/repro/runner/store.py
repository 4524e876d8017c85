"""On-disk memoization of completed trials (sharded, queryable).

Version 2 of the result store keeps one *directory* per experiment,
named by the spec hash::

    <root>/<spec_hash>/
        spec.json          canonical spec dict + hash
        index.json         shard -> record count, totals
        shard-0000.json    up to ``shard_size`` records, sorted keys
        shard-0001.json    ...

Records are chunked over the lexicographically sorted trial keys, so
the shard layout is a pure function of the record *set*: a store
produced by a parallel run is byte-identical to one produced serially,
and :meth:`ResultStore.compact` is idempotent.  A corrupt shard is
skipped on load (its trials simply re-run) and healed by the next
``save``/``compact``.

Version 1 stores (one monolithic ``<spec_hash>.json`` per experiment)
are still readable: ``load`` falls back to the legacy file when no v2
directory exists, and the next ``save`` migrates it to the sharded
layout and removes the old file.

All files are written atomically (:func:`write_atomic`) with sorted
keys, and rewrites are skipped when the content is unchanged.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import warnings
from typing import Iterator, Sequence

from ..metrics import registry as _metrics_registry
from .spec import ExperimentSpec

_FORMAT_VERSION = 2
_LEGACY_VERSION = 1
_DEFAULT_SHARD_SIZE = 256
# Kept in sync with repro.runner.search.checkpoint.CHECKPOINT_NAME
# (importing it here would invert the store <- search layering).
_CHECKPOINT_NAME = "search-checkpoint.json"


class MergeWarning(UserWarning):
    """A store merge lost information it could not reconcile."""


def json_text(payload: dict) -> str:
    """The on-disk form of every runner JSON file: sorted keys, indent 1."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_atomic(path: pathlib.Path, text: str) -> None:
    """Replace ``path``'s content with ``text`` atomically.

    The temp name is unique per process and thread, so concurrent
    writers of one file never truncate or rename away each other's
    temp file (the last ``os.replace`` wins).  It ends in ``.tmp`` so
    :meth:`ResultStore.compact` sweeps one a crash left behind.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    tmp.write_text(text)
    os.replace(tmp, path)


def _shard_name(index: int) -> str:
    return f"shard-{index:04d}.json"


def _read_shard(path: pathlib.Path, reg) -> dict | None:
    """Read and parse one shard, counting scans/bytes/corruption.

    Returns ``None`` for an unreadable or unparsable shard — the
    caller skips it (its trials simply re-run) and the next
    ``save``/``compact`` heals it.
    """
    try:
        text = path.read_text()
    except OSError:
        if reg is not None:
            reg.counter("store.shards.corrupt").value += 1
        return None
    if reg is not None:
        reg.counter("store.shards.read").value += 1
        reg.counter("store.bytes.read").value += len(text)
    try:
        payload = json.loads(text)
    except ValueError:
        if reg is not None:
            reg.counter("store.shards.corrupt").value += 1
        return None
    if not isinstance(payload, dict):
        if reg is not None:
            reg.counter("store.shards.corrupt").value += 1
        return None
    return payload


def spec_from_payload(payload: dict):
    """Rebuild the spec object a ``spec.json`` sidecar describes.

    Experiment and search stores share one on-disk layout; the search
    sidecar carries ``"kind": "search"`` and rebuilds into a
    :class:`~repro.runner.search.spec.SearchSpec`, everything else
    into an :class:`ExperimentSpec` — so ``compact`` and
    ``merge_from`` treat both kinds of store uniformly.
    """
    if isinstance(payload, dict) and payload.get("kind") == "search":
        # Imported lazily: the search package imports this module.
        from .search.spec import SearchSpec

        return SearchSpec.from_dict(payload)
    return ExperimentSpec.from_dict(payload)


class ResultStore:
    """Directory of per-spec sharded result directories."""

    def __init__(
        self,
        root: str | os.PathLike,
        shard_size: int = _DEFAULT_SHARD_SIZE,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.root = pathlib.Path(root)
        self.shard_size = shard_size

    # ------------------------------------------------------------------
    # Paths.
    # ------------------------------------------------------------------

    @staticmethod
    def _hash_of(spec: ExperimentSpec | str) -> str:
        if isinstance(spec, str):
            return spec
        return spec.spec_hash()

    def dir_for(self, spec: ExperimentSpec | str) -> pathlib.Path:
        """The v2 shard directory of ``spec`` (or a spec hash)."""
        return self.root / self._hash_of(spec)

    def legacy_path_for(self, spec: ExperimentSpec | str) -> pathlib.Path:
        """The v1 single-file location of ``spec`` (or a spec hash)."""
        return self.root / f"{self._hash_of(spec)}.json"

    def sidecar_path(
        self, spec: ExperimentSpec | str, name: str
    ) -> pathlib.Path:
        """A named sidecar file inside the spec's store directory.

        Sidecars (e.g. the search engine's resumable checkpoint) live
        next to the shards but outside the shard namespace —
        :meth:`save` only prunes ``shard-*.json`` files and
        :meth:`compact` rewrites shards in place, so sidecars survive
        both.  The directory is created on demand; whether the file
        exists is the caller's business.
        """
        directory = self.dir_for(spec)
        directory.mkdir(parents=True, exist_ok=True)
        return directory / name

    # ------------------------------------------------------------------
    # Load.
    # ------------------------------------------------------------------

    def load(self, spec: ExperimentSpec | str) -> dict[str, dict]:
        """Completed trial records for ``spec``, keyed by trial key.

        Reads the sharded layout when present, otherwise falls back to
        a legacy v1 single-file store.  Missing, unreadable or
        version-mismatched shards are treated as absent (their trials
        simply re-run).
        """
        directory = self.dir_for(spec)
        if directory.is_dir():
            records = self._load_shards(directory)
        else:
            records = self._load_legacy(self.legacy_path_for(spec))
        return self._backfill_scenario_fields(records)

    @staticmethod
    def _backfill_record(record: dict) -> dict:
        """Default the scenario axes on one pre-scenario-matrix record.

        Records cached before the wake/placement/adversary axes
        existed (legacy v1 stores, or shards migrated from them) lack
        those keys; the defaults reproduce what those trials actually
        ran, so the table renderer and ``query`` filters treat old and
        new records uniformly.
        """
        record.setdefault("placement", "default")
        record.setdefault("wake_schedule", "simultaneous")
        record.setdefault("adversary", "fixed")
        return record

    @classmethod
    def _backfill_scenario_fields(
        cls, records: dict[str, dict]
    ) -> dict[str, dict]:
        """Backfill every record of a loaded map (see above)."""
        for record in records.values():
            cls._backfill_record(record)
        return records

    def _load_shards(self, directory: pathlib.Path) -> dict[str, dict]:
        reg = _metrics_registry.current()
        records: dict[str, dict] = {}
        for path in sorted(directory.glob("shard-*.json")):
            payload = _read_shard(path, reg)
            if payload is None:
                continue  # corrupt shard: its trials re-run
            if payload.get("version") != _FORMAT_VERSION:
                continue
            trials = payload.get("trials")
            if isinstance(trials, dict):
                records.update(trials)
        return records

    @staticmethod
    def _load_legacy(path: pathlib.Path) -> dict[str, dict]:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return {}
        if payload.get("version") != _LEGACY_VERSION:
            return {}
        trials = payload.get("trials")
        return dict(trials) if isinstance(trials, dict) else {}

    # ------------------------------------------------------------------
    # Save.
    # ------------------------------------------------------------------

    def save(
        self,
        spec: ExperimentSpec,
        records: dict[str, dict],
        spec_hash: str | None = None,
    ) -> None:
        """Persist the full record map for ``spec``, sharded.

        Chunks the lexicographically sorted keys into shards of
        ``shard_size``, removes shards that fell out of range, writes
        the index and spec sidecars, and unlinks any legacy v1 file
        (completing the migration).  Only changed files are rewritten.
        ``spec_hash`` overrides the recomputed hash — :meth:`compact`
        uses it to rewrite a store in place even when a package
        version bump has since changed what the spec would hash to.
        """
        if spec_hash is None:
            spec_hash = spec.spec_hash()
        reg = _metrics_registry.current()
        if reg is not None:
            reg.counter("store.saves").value += 1
        directory = self.dir_for(spec_hash)
        directory.mkdir(parents=True, exist_ok=True)
        keys = sorted(records)
        expected: dict[str, int] = {}
        for start in range(0, len(keys), self.shard_size):
            chunk = keys[start:start + self.shard_size]
            index = start // self.shard_size
            name = _shard_name(index)
            expected[name] = len(chunk)
            self._write_json(directory / name, {
                "version": _FORMAT_VERSION,
                "spec_hash": spec_hash,
                "shard": index,
                "trials": {k: records[k] for k in chunk},
            })
        for path in directory.glob("shard-*.json"):
            if path.name not in expected:
                path.unlink()
        self._write_json(directory / "index.json", {
            "version": _FORMAT_VERSION,
            "spec_hash": spec_hash,
            "shard_size": self.shard_size,
            "total": len(keys),
            "shards": expected,
        })
        self._write_json(directory / "spec.json", {
            "version": _FORMAT_VERSION,
            "spec_hash": spec_hash,
            "spec": spec.to_dict(),
        })
        legacy = self.legacy_path_for(spec_hash)
        if legacy.exists():
            legacy.unlink()

    @staticmethod
    def _write_json(path: pathlib.Path, payload: dict) -> None:
        text = json_text(payload)
        try:
            if path.read_text() == text:
                return  # unchanged: keep the old bytes and mtime
        except (OSError, ValueError):
            pass
        write_atomic(path, text)

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def compact(self, spec: ExperimentSpec | None = None) -> dict:
        """Rewrite stores into canonical shards; heal corruption.

        With a ``spec``, compacts that experiment only; without one,
        compacts every v2 directory whose ``spec.json`` is readable.
        Re-chunks records, drops unreadable shards and stale ``.tmp``
        files, and rewrites the index.  Idempotent: a second call is a
        byte-for-byte no-op.  Returns ``{"specs", "records",
        "removed"}`` counters.
        """
        targets: list[tuple[ExperimentSpec, str]]
        if spec is not None:
            spec_hash = spec.spec_hash()
            if (
                not self.dir_for(spec_hash).is_dir()
                and not self.legacy_path_for(spec_hash).exists()
            ):
                # A version bump changes what the spec hashes to; find
                # the store actually on disk via its spec sidecar, the
                # same way the no-arg path does.
                wanted = spec.to_dict()
                for entry in self.list_specs():
                    if entry.get("spec") == wanted:
                        spec_hash = entry["spec_hash"]
                        break
            targets = [(spec, spec_hash)]
        else:
            # Keyed by the *on-disk* hash, not a recomputed one: a
            # package version bump changes what a spec would hash to,
            # and compaction must still rewrite the store it found.
            targets = []
            for entry in self.list_specs():
                payload = entry.get("spec")
                if payload is None:
                    continue
                try:
                    rebuilt = spec_from_payload(payload)
                except (KeyError, ValueError, TypeError):
                    continue
                targets.append((rebuilt, entry["spec_hash"]))
            targets.sort(key=lambda t: t[1])
        removed = 0
        records_total = 0
        compacted = 0
        for item, item_hash in targets:
            directory = self.dir_for(item_hash)
            if (
                not directory.is_dir()
                and not self.legacy_path_for(item_hash).exists()
            ):
                continue  # never swept: don't fabricate an empty store
            compacted += 1
            legacy = self.legacy_path_for(item_hash)
            had_legacy = legacy.exists()
            before: set[str] = set()
            if directory.is_dir():
                before = {p.name for p in directory.iterdir()}
                for path in directory.glob("*.tmp"):
                    path.unlink()
                    removed += 1
            records = self.load(item_hash)
            records_total += len(records)
            self.save(item, records, spec_hash=item_hash)
            after = {p.name for p in directory.iterdir()}
            removed += len(before - after - {
                name for name in before if name.endswith(".tmp")
            })
            if had_legacy and not legacy.exists():
                removed += 1  # the migrated-away v1 single file
        return {
            "specs": compacted,
            "records": records_total,
            "removed": removed,
        }

    # ------------------------------------------------------------------
    # Enumeration (the query API's substrate).
    # ------------------------------------------------------------------

    def list_specs(self) -> list[dict]:
        """Cached experiments: ``{"spec_hash", "spec", "trials"}``.

        ``spec`` is the canonical spec dict (``None`` when the sidecar
        is unreadable); ``trials`` is the stored record count.  Both v2
        directories and legacy v1 files are reported.
        """
        if not self.root.is_dir():
            return []
        out = []
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir():
                spec_payload = None
                try:
                    sidecar = json.loads((entry / "spec.json").read_text())
                    spec_payload = sidecar.get("spec")
                except (OSError, ValueError):
                    pass
                # The index carries the record count, so listing a
                # million-trial store never parses its shards; fall
                # back to a shard scan when the index is damaged.
                total = None
                try:
                    index = json.loads((entry / "index.json").read_text())
                    if index.get("version") == _FORMAT_VERSION:
                        total = index.get("total")
                except (OSError, ValueError):
                    pass
                if not isinstance(total, int):
                    total = len(self._load_shards(entry))
                if total == 0 and spec_payload is None:
                    continue  # not a store directory
                out.append({
                    "spec_hash": entry.name,
                    "spec": spec_payload,
                    "trials": total,
                })
            elif entry.suffix == ".json":
                if (self.root / entry.stem).is_dir():
                    # Interrupted migration: the v2 directory exists
                    # and takes precedence (matching load()); listing
                    # the leftover legacy file too would double-count
                    # the spec.
                    continue
                try:
                    payload = json.loads(entry.read_text())
                except (OSError, ValueError):
                    continue
                if payload.get("version") != _LEGACY_VERSION:
                    continue
                trials = payload.get("trials")
                if not isinstance(trials, dict) or not trials:
                    continue
                out.append({
                    "spec_hash": entry.stem,
                    "spec": payload.get("spec"),
                    "trials": len(trials),
                })
        return out

    def iter_spec_records(self, spec_hash: str) -> Iterator[dict]:
        """Stream one spec's records shard by shard.

        Unlike :meth:`load`, at most one shard's records are in memory
        at a time — this is what lets ``python -m repro query``
        aggregate million-trial studies without materializing them.
        Canonical stores chunk lexicographically sorted keys into
        shards, so streaming shards in name order with sorted keys
        inside yields the same global order :meth:`load` would.
        Corrupt or version-mismatched shards are skipped, exactly as
        in :meth:`load`.

        Every key is yielded exactly once even when an interrupted
        ``save`` left overlapping shards (only the key set is kept in
        memory, never records).  On such overlap the *first* shard in
        name order wins — the one a completed ``save`` wrote last —
        whereas :meth:`load` lets the stale later shard win; the next
        ``compact`` heals the store and removes the difference.
        """
        directory = self.dir_for(spec_hash)
        if not directory.is_dir():
            legacy = self._load_legacy(self.legacy_path_for(spec_hash))
            for key in sorted(legacy):
                yield self._backfill_record(legacy[key])
            return
        reg = _metrics_registry.current()
        seen: set[str] = set()
        for path in sorted(directory.glob("shard-*.json")):
            payload = _read_shard(path, reg)
            if payload is None:
                continue  # corrupt shard: its trials re-run
            if payload.get("version") != _FORMAT_VERSION:
                continue
            trials = payload.get("trials")
            if not isinstance(trials, dict):
                continue
            for key in sorted(trials):
                if key in seen:
                    continue
                seen.add(key)
                yield self._backfill_record(trials[key])

    def iter_records(
        self, spec_hash: str | None = None
    ) -> Iterator[dict]:
        """Yield stored records, optionally restricted to one spec.

        ``spec_hash`` may be a unique prefix of a stored hash; an
        ambiguous or unmatched prefix raises :class:`ValueError`
        rather than silently merging experiments or reporting an
        empty (typo'd) study as having no data.  Records stream shard
        by shard (see :meth:`iter_spec_records`): iteration never
        holds a whole spec's records in memory.
        """
        entries = self.list_specs()
        if spec_hash is not None:
            entries = [
                e for e in entries if e["spec_hash"].startswith(spec_hash)
            ]
            if len(entries) > 1:
                matches = ", ".join(e["spec_hash"] for e in entries)
                raise ValueError(
                    f"spec prefix {spec_hash!r} is ambiguous: {matches}"
                )
            if not entries:
                raise ValueError(
                    f"no cached spec matches prefix {spec_hash!r}"
                )
        for entry in entries:
            yield from self.iter_spec_records(entry["spec_hash"])

    # ------------------------------------------------------------------
    # Merge (multi-host sweeps).
    # ------------------------------------------------------------------

    def merge_from(
        self, sources: Sequence["ResultStore | str | os.PathLike"]
    ) -> dict:
        """Union sibling stores into this one, spec by spec.

        The multi-host recipe: every ``python -m repro worker`` writes
        ordinary v2 shards into its own store directory, and this
        method unions them (CLI: ``python -m repro merge``).  For each
        spec hash found in any source:

        * records are unioned in source order, **last write wins** on
          duplicate trial keys — a :class:`MergeWarning` reports how
          many duplicates disagreed (identical duplicates are the
          normal overlap of workers that both covered a chunk and stay
          silent);
        * corrupt shards in a source are skipped (their records are
          simply absent, exactly as on load);
        * legacy v1 single-file sources are read and land as v2
          shards — merging *is* the migration;
        * this store's own records participate as the base layer, so
          merging is incremental and idempotent;
        * a search spec's ``search-checkpoint.json`` sidecar rides
          along — the source with the furthest frontier (most rounds,
          then attempts) wins, so a resume from the merged store
          continues from the most-advanced worker's state.

        Specs whose sidecar is unreadable in every source cannot be
        re-saved (no canonical spec dict) and are skipped with a
        :class:`MergeWarning`.  Returns ``{"specs", "records",
        "duplicates", "skipped"}`` counters.
        """
        union: dict[str, dict] = {}

        def ingest(store: "ResultStore", warn_duplicates: bool) -> int:
            disagreements = 0
            for entry in store.list_specs():
                spec_hash = entry["spec_hash"]
                bucket = union.setdefault(
                    spec_hash, {"spec": None, "records": {}, "ckpt": None}
                )
                if bucket["spec"] is None:
                    bucket["spec"] = entry["spec"]
                records = bucket["records"]
                for key, record in sorted(store.load(spec_hash).items()):
                    if (
                        warn_duplicates
                        and key in records
                        and records[key] != record
                    ):
                        disagreements += 1
                    records[key] = record
                # Search checkpoints ride along: keep the furthest
                # frontier so resuming from the merged store continues
                # where the most-advanced source stopped.  (Complete
                # runs write identical bytes, so a merge of finished
                # stores stays byte-canonical.)
                ckpt_path = store.dir_for(spec_hash) / _CHECKPOINT_NAME
                try:
                    raw = ckpt_path.read_bytes()
                    payload = json.loads(raw)
                    rank = (payload["rounds"], payload["attempts"])
                except (OSError, ValueError, KeyError, TypeError):
                    continue
                if bucket["ckpt"] is None or rank > bucket["ckpt"][0]:
                    bucket["ckpt"] = (rank, raw)
            return disagreements

        ingest(self, warn_duplicates=False)  # base layer: own records
        duplicates = 0
        for source in sources:
            if not isinstance(source, ResultStore):
                source = ResultStore(source)
            duplicates += ingest(source, warn_duplicates=True)
        if duplicates:
            warnings.warn(
                f"{duplicates} duplicate trial key(s) disagreed across "
                "sources; kept the last source's records",
                MergeWarning,
                stacklevel=2,
            )
        merged_specs = 0
        merged_records = 0
        skipped = 0
        for spec_hash in sorted(union):
            bucket = union[spec_hash]
            payload = bucket["spec"]
            try:
                spec = spec_from_payload(payload or {})
            except (KeyError, ValueError, TypeError):
                skipped += 1
                warnings.warn(
                    f"spec {spec_hash} has no readable spec.json in any "
                    "source; skipping (its records cannot be re-keyed)",
                    MergeWarning,
                    stacklevel=2,
                )
                continue
            self.save(spec, bucket["records"], spec_hash=spec_hash)
            if bucket["ckpt"] is not None:
                self.sidecar_path(spec_hash, _CHECKPOINT_NAME).write_bytes(
                    bucket["ckpt"][1]
                )
            merged_specs += 1
            merged_records += len(bucket["records"])
        return {
            "specs": merged_specs,
            "records": merged_records,
            "duplicates": duplicates,
            "skipped": skipped,
        }
