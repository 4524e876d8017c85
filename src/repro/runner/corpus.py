"""The versioned worst-case scenario corpus.

Adaptive searches (``python -m repro search``) spend their budgets
discovering adversarial scenarios — placements and wake schedules
that maximize (or minimize) a metric for one algorithm on one graph.
Those discoveries are too valuable to leave in a scratch result
store: committed as a *corpus*, they become a regression grid that
every future change replays.

``python -m repro corpus export`` distils a result store's search
records into corpus files: for each search spec it ranks the
successful eval records by the search's own metric/objective and
keeps the top scenarios, each as a fully-resolved trial payload
(explicit graph seed, ``nodes:``/``explicit:`` scenario axes) plus
the metrics it produced and the provenance of its discovery.
``python -m repro corpus replay`` re-executes every entry serially —
records are pure functions of their trial specs, so a clean replay
reproduces the committed metrics byte-for-byte — and classifies each:

* ``ok`` — all expected metrics reproduced exactly;
* ``regression`` — the provenance metric moved *in the adversary's
  objective direction* (the committed worst case got worse), or a
  robustness field drifted (``survivors_gathered``,
  ``crashed_labels``, ``partial_groups``, ``timed_out``: a faulted
  entry whose survivors no longer gather, or whose crash schedule
  resolves differently, is a correctness break even when the round
  count looks fine);
* ``changed`` — metrics differ but the primary metric did not worsen
  and no robustness field drifted (e.g. an intended algorithm
  improvement — re-export with ``--update`` after reviewing);
* ``error`` — the trial failed or no longer carries the metric.

Faulted entries carry their ``faults``/``dynamics`` axes inside the
trial payload (``TrialSpec.from_dict`` restores them) and echo the
search's fault strategy in the provenance block.

The committed corpus lives under ``benchmarks/corpus/*.json``; CI
replays it on every push (see ``docs/ci.md``).
"""

from __future__ import annotations

import argparse
import json
import pathlib

from .spec import TrialSpec
from .store import ResultStore, json_text, write_atomic
from .trial import execute_trial

CORPUS_SCHEMA = "repro.corpus"
CORPUS_VERSION = 1
DEFAULT_CORPUS_DIR = "benchmarks/corpus"

# The trial-identity fields a corpus entry persists — exactly
# TrialSpec.to_dict()'s always-present keys, lifted from the stored
# eval record.
_TRIAL_FIELDS = (
    "key", "algorithm", "family", "n", "n_bound", "labels", "messages",
    "seed", "graph_seed", "placement", "wake_schedule", "adversary",
    "algorithm_params",
)

# Conditionally-emitted trial axes (present in records only when
# non-default); lifted when present, never required by validation.
_OPTIONAL_TRIAL_FIELDS = ("faults", "dynamics")

# Robustness metrics whose drift on replay is a regression outright —
# a survivors-gathered flip or a different resolved crash schedule is
# a correctness break regardless of the primary metric's direction.
_ROBUSTNESS_FIELDS = (
    "survivors_gathered", "crashed_labels", "partial_groups",
    "timed_out",
)


class CorpusError(ValueError):
    """A malformed corpus file or an unexportable store."""


# ----------------------------------------------------------------------
# Files.
# ----------------------------------------------------------------------

def load_corpus(path: pathlib.Path | str) -> dict:
    """Parse and validate one corpus file."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    except ValueError as exc:
        raise CorpusError(f"corpus {path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorpusError(f"corpus {path} must be a JSON object")
    if payload.get("schema") != CORPUS_SCHEMA:
        raise CorpusError(
            f"corpus {path} has schema {payload.get('schema')!r}, "
            f"expected {CORPUS_SCHEMA!r}"
        )
    if payload.get("version") != CORPUS_VERSION:
        raise CorpusError(
            f"corpus {path} has version {payload.get('version')!r}, "
            f"expected {CORPUS_VERSION}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise CorpusError(f"corpus {path} has no entry list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CorpusError(f"corpus {path} entry {i} is not an object")
        for field in ("id", "trial", "expected", "provenance"):
            if field not in entry:
                raise CorpusError(
                    f"corpus {path} entry {i} lacks {field!r}"
                )
        missing = [
            f for f in _TRIAL_FIELDS if f not in entry["trial"]
        ]
        if missing:
            raise CorpusError(
                f"corpus {path} entry {entry['id']!r} trial lacks "
                f"{missing}"
            )
    return payload


def write_corpus(path: pathlib.Path | str, payload: dict) -> None:
    """Atomically persist a corpus file (stable key order)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json_text(payload))


def corpus_files(directory: pathlib.Path | str) -> list[pathlib.Path]:
    """The corpus files under ``directory``, in stable order."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))


# ----------------------------------------------------------------------
# Export: result store -> corpus entries.
# ----------------------------------------------------------------------

def _rankable(record: dict, metric: str) -> bool:
    if record.get("kind") != "eval" or not record.get("ok"):
        return False
    value = (record.get("metrics") or {}).get(metric)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def export_entries(
    store: ResultStore,
    spec_prefix: str | None = None,
    top: int = 2,
) -> list[dict]:
    """Corpus entries from the store's search specs.

    Scans every cached search (optionally restricted to one spec hash
    or unique prefix), ranks its successful eval records by the
    search's own metric in its objective direction, and keeps the
    ``top`` scenarios per search.
    """
    if top < 1:
        raise CorpusError("--top must be >= 1")
    matched = False
    entries: list[dict] = []
    for item in store.list_specs():
        spec_hash = item["spec_hash"]
        payload = item.get("spec")
        if spec_prefix is not None and not spec_hash.startswith(
            spec_prefix
        ):
            continue
        if not isinstance(payload, dict) or payload.get("kind") != "search":
            continue
        matched = True
        metric = payload["metric"]
        objective = payload.get("objective", "worst")
        records = [
            rec
            for rec in store.load(spec_hash).values()
            if _rankable(rec, metric)
        ]
        records.sort(
            key=lambda rec: (
                rec["metrics"][metric], rec["key"]
            ),
            reverse=(objective == "worst"),
        )
        for rec in records[:top]:
            trial = {f: rec[f] for f in _TRIAL_FIELDS}
            for f in _OPTIONAL_TRIAL_FIELDS:
                if f in rec:
                    trial[f] = rec[f]
            provenance = {
                "spec_hash": spec_hash,
                "strategy": payload["strategy"],
                "budget": payload["budget"],
                "objective": objective,
                "metric": metric,
            }
            for f in _OPTIONAL_TRIAL_FIELDS:
                if payload.get(f, "none") != "none":
                    provenance[f] = payload[f]
            entries.append({
                "id": rec["key"],
                "trial": trial,
                "expected": dict(rec["metrics"]),
                "provenance": provenance,
            })
    if spec_prefix is not None and not matched:
        raise CorpusError(
            f"no cached search spec matches {spec_prefix!r}"
        )
    entries.sort(key=lambda e: e["id"])
    return entries


def build_corpus(name: str, entries: list[dict]) -> dict:
    return {
        "schema": CORPUS_SCHEMA,
        "version": CORPUS_VERSION,
        "name": name,
        "entries": entries,
    }


# ----------------------------------------------------------------------
# Replay: corpus entries -> regression verdicts.
# ----------------------------------------------------------------------

def _worsened(objective: str, expected, actual) -> bool:
    """Did the primary metric move in the adversary's direction?"""
    try:
        if objective == "best":
            return actual < expected
        return actual > expected
    except TypeError:
        return False


def replay_entry(entry: dict) -> dict:
    """Re-execute one corpus entry and classify the outcome.

    Returns ``{"id", "status", "metric", "expected", "actual",
    "detail"}`` with status ``ok`` / ``regression`` / ``changed`` /
    ``error`` (see the module docstring for the classification).
    """
    provenance = entry["provenance"]
    metric = provenance["metric"]
    objective = provenance.get("objective", "worst")
    expected = entry["expected"]
    expected_primary = expected.get(metric)
    base = {
        "id": entry["id"],
        "metric": metric,
        "expected": expected_primary,
        "actual": None,
    }
    try:
        trial = TrialSpec.from_dict(entry["trial"])
    except (KeyError, TypeError, ValueError) as exc:
        return {**base, "status": "error",
                "detail": f"unreadable trial: {exc}"}
    result = execute_trial(trial)
    if not result.ok:
        return {**base, "status": "error",
                "detail": f"trial failed: {result.error}"}
    actual = result.metrics
    base["actual"] = actual.get(metric)
    if metric not in actual:
        return {**base, "status": "error",
                "detail": f"record no longer carries metric {metric!r}"}
    if actual == expected:
        return {**base, "status": "ok", "detail": None}
    if _worsened(objective, expected_primary, actual.get(metric)):
        return {
            **base, "status": "regression",
            "detail": (
                f"{metric} worsened: {expected_primary!r} -> "
                f"{actual.get(metric)!r} (objective {objective})"
            ),
        }
    drifted = [
        f for f in _ROBUSTNESS_FIELDS
        if f in expected and expected.get(f) != actual.get(f)
    ]
    if drifted:
        return {
            **base, "status": "regression",
            "detail": (
                "robustness drift: "
                + ", ".join(
                    f"{f} {expected.get(f)!r} -> {actual.get(f)!r}"
                    for f in drifted
                )
            ),
        }
    diff_keys = sorted(
        k for k in set(expected) | set(actual)
        if expected.get(k) != actual.get(k)
    )
    return {
        **base, "status": "changed",
        "detail": f"metrics differ without worsening: {diff_keys}",
    }


def replay_corpus(payload: dict) -> list[dict]:
    """Replay every entry of one parsed corpus file."""
    return [replay_entry(entry) for entry in payload["entries"]]


def apply_update(payload: dict, results: list[dict]) -> int:
    """Fold replayed metrics back into ``payload``'s expectations.

    Only ``regression``/``changed`` entries are rewritten (their
    replays succeeded with different metrics); returns how many
    entries changed.  The caller decides whether to persist.
    """
    by_id = {res["id"]: res for res in results}
    updated = 0
    for entry in payload["entries"]:
        res = by_id.get(entry["id"])
        if res is None or res["status"] not in ("regression", "changed"):
            continue
        trial = TrialSpec.from_dict(entry["trial"])
        result = execute_trial(trial)
        if result.ok:
            entry["expected"] = dict(result.metrics)
            updated += 1
    return updated


# ----------------------------------------------------------------------
# ``python -m repro corpus`` — the CLI.
# ----------------------------------------------------------------------

def build_corpus_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro corpus",
        description="Persist search-discovered worst-case scenarios as "
                    "a committed regression corpus, and replay them: "
                    "'export' distils a result store's search records "
                    "into corpus JSON, 'replay' re-executes committed "
                    "scenarios and fails on any regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser(
        "export",
        help="distil a result store's searches into a corpus file",
    )
    export.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-store directory to scan (default: .repro-cache)",
    )
    export.add_argument(
        "--spec", default=None, metavar="HASH",
        help="restrict to one search spec (hash or unique prefix)",
    )
    export.add_argument(
        "--out", required=True, metavar="FILE",
        help="corpus file to write",
    )
    export.add_argument(
        "--top", type=int, default=2, metavar="K",
        help="scenarios kept per search (default: 2)",
    )
    export.add_argument(
        "--name", default=None,
        help="corpus name (default: the output file stem)",
    )

    replay = sub.add_parser(
        "replay",
        help="re-execute committed scenarios and classify regressions",
    )
    replay.add_argument(
        "files", nargs="*", metavar="FILE",
        help="corpus files (default: every *.json in --corpus-dir)",
    )
    replay.add_argument(
        "--corpus-dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
        help=f"corpus directory to scan when no files are given "
             f"(default: {DEFAULT_CORPUS_DIR})",
    )
    replay.add_argument(
        "--json", action="store_true",
        help="emit one JSON object per corpus file instead of a table",
    )
    replay.add_argument(
        "--update", action="store_true",
        help="rewrite the expectations of changed entries in place",
    )
    return parser


def _export_main(args) -> int:
    store = ResultStore(args.cache_dir)
    try:
        entries = export_entries(store, args.spec, args.top)
    except CorpusError as exc:
        print(f"error: {exc}")
        return 2
    if not entries:
        print(
            f"error: no exportable search records in {args.cache_dir} "
            "(run 'python -m repro search' first)"
        )
        return 2
    out = pathlib.Path(args.out)
    name = args.name if args.name is not None else out.stem
    write_corpus(out, build_corpus(name, entries))
    searches = len({e["provenance"]["spec_hash"] for e in entries})
    print(
        f"corpus {name!r}: wrote {len(entries)} scenario(s) from "
        f"{searches} search(es) to {out}"
    )
    return 0


def _replay_main(args) -> int:
    from ..analysis.tables import ResultTable

    if args.files:
        files = [pathlib.Path(f) for f in args.files]
    else:
        files = corpus_files(args.corpus_dir)
        if not files:
            print(
                f"error: no corpus files under {args.corpus_dir}"
            )
            return 2

    totals = {"ok": 0, "regression": 0, "changed": 0, "error": 0}
    reports = []
    for path in files:
        try:
            payload = load_corpus(path)
        except CorpusError as exc:
            print(f"error: {exc}")
            return 2
        results = replay_corpus(payload)
        updated = 0
        if args.update:
            updated = apply_update(payload, results)
            if updated:
                write_corpus(path, payload)
        for res in results:
            totals[res["status"]] += 1
        reports.append((path, payload, results, updated))

    if args.json:
        for path, payload, results, updated in reports:
            print(json.dumps({
                "corpus": payload.get("name"),
                "file": str(path),
                "entries": results,
                "updated": updated,
            }, sort_keys=True))
    else:
        for path, payload, results, updated in reports:
            table = ResultTable(
                f"corpus {payload.get('name')!r} ({path})",
                ["scenario", "status", "metric", "expected", "actual"],
            )
            for res in results:
                table.add_row(
                    res["id"], res["status"], res["metric"],
                    *(
                        "-" if v is None else v
                        for v in (res["expected"], res["actual"])
                    ),
                )
            table.emit()
            for res in results:
                if res["status"] != "ok" and res.get("detail"):
                    print(f"  {res['id']}: {res['detail']}")
            if updated:
                print(f"  rewrote {updated} expectation(s) in {path}")
    clean = totals["regression"] == totals["changed"] == totals["error"] == 0
    print(
        f"replayed {sum(totals.values())} scenario(s): "
        f"{totals['ok']} ok, {totals['regression']} regression(s), "
        f"{totals['changed']} changed, {totals['error']} error(s)"
    )
    if args.update:
        # Post-update the corpus matches reality by construction; the
        # caller asked for new expectations, not a verdict on old ones.
        return 0
    return 0 if clean else 1


def corpus_main(argv: list[str]) -> int:
    args = build_corpus_parser().parse_args(argv)
    if args.command == "export":
        return _export_main(args)
    return _replay_main(args)
