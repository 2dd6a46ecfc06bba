"""End-to-end discovery run: the four methods in sequence with a
resumable on-disk state file and per-stage count tables. A bad aggregator
template, or a published list of an unknown archive or format, fails when
the pipeline is built, before any request.

The state file holds the stage, the Method 1 scan index, the collected
records and the per-stage tables. It is rewritten atomically after every
stage, every ``checkpoint_every`` scanned candidates and every archive
that Methods 2-4 grew, so an interrupted run resumed from disk converges
to the same final state as an uninterrupted one (fetches must be
deterministic, e.g. fixture-backed, for byte equality). Method 1's
selection is not stored apart: its URI-Rs are the records that carry a
source tag, and resuming counts them again under the config's
``quota_per_bucket``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

from .client import DEFAULT_AGGREGATOR_TEMPLATE, ArchiveClient, FetchPolicy, Transport, open_transport
from .discovery import (
    LIST_FORMATS,
    MementoCollection,
    ScreenResult,
    SelectionState,
    interleave_sources,
    ingest_published_list,
    load_source_file,
    method2_expand,
    method4_direct,
    select_initial,
)
from .linkformat import write_compact
from .model import (
    Memento,
    OriginalResource,
    PathBucket,
    Provenance,
    SelectionConstraints,
    TimeMapRecord,
    compact14,
    load_registry,
    parse_compact14,
)
from .reports import write_csv, write_urir_table

STAGES = ("method1", "method2", "method3", "method4", "done")


@dataclass
class RunConfig:
    """Everything one discovery run needs, loadable from a JSON file."""

    out_dir: Path
    registry_path: Path | None = None
    aggregator_endpoint: str | None = None
    moz_path: Path | None = None
    damage_path: Path | None = None
    httparchive_path: Path | None = None
    wahr_paths: dict[str, Path] = field(default_factory=dict)
    published_lists: list[dict] = field(default_factory=list)
    constraints: SelectionConstraints = field(default_factory=SelectionConstraints)
    target: int = 10_000
    quota_per_bucket: int = 2_000
    fixtures_dir: Path | None = None
    record_dir: Path | None = None
    seed: int = 0
    min_request_interval: float = 1.0
    timeout: float = 30.0
    retries: int = 3
    checkpoint_every: int = 25

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        raw = json.loads(path.read_text("utf-8"))
        base = path.parent

        def resolve(p):
            return (base / p).resolve() if p else None

        sources = raw.get("sources", {})
        constraints_raw = raw.get("constraints", {})
        constraints = SelectionConstraints(
            min_urirs_per_archive=constraints_raw.get("min_urirs_per_archive", 200),
            max_urims_per_archive=constraints_raw.get("max_urims_per_archive", 1600),
            download_budget=timedelta(
                hours=constraints_raw.get("download_budget_hours", 40)
            ),
        )
        config = cls(
            out_dir=resolve(raw.get("out_dir", "out")),
            registry_path=resolve(raw.get("registry")),
            aggregator_endpoint=raw.get("aggregator_endpoint"),
            moz_path=resolve(sources.get("moz")),
            damage_path=resolve(sources.get("memento_damage")),
            httparchive_path=resolve(sources.get("httparchive")),
            wahr_paths={t: resolve(p) for t, p in sources.get("wahr", {}).items()},
            published_lists=[
                {**entry, "path": str(resolve(entry["path"]))}
                for entry in raw.get("published_lists", [])
            ],
            constraints=constraints,
            target=raw.get("target", 10_000),
            quota_per_bucket=raw.get("quota_per_bucket", 2_000),
            fixtures_dir=resolve(raw.get("fixtures")),
            record_dir=resolve(raw.get("record")),
            seed=raw.get("seed", 0),
            min_request_interval=raw.get("min_request_interval", 1.0),
            timeout=raw.get("timeout", 30.0),
            retries=raw.get("retries", 3),
            checkpoint_every=raw.get("checkpoint_every", 25),
        )
        for p in (
            config.registry_path,
            config.moz_path,
            config.damage_path,
            config.httparchive_path,
            *config.wahr_paths.values(),
            *(Path(e["path"]) for e in config.published_lists),
        ):
            if p is not None and not Path(p).exists():
                raise FileNotFoundError(f"configured file missing: {p}")
        return config


def _resource_to_dict(r: OriginalResource) -> dict:
    return {
        "uri": r.uri,
        "canonical_key": r.canonical_key,
        "final_uri": r.final_uri,
        "path_bucket": r.path_bucket.value,
        "source": r.source,
        "live_status": r.live_status,
    }


def _resource_from_dict(d: dict) -> OriginalResource:
    return OriginalResource(
        uri=d["uri"],
        canonical_key=d["canonical_key"],
        final_uri=d["final_uri"],
        path_bucket=PathBucket(d["path_bucket"]),
        source=d.get("source"),
        live_status=d.get("live_status"),
    )


def _record_to_dict(record: TimeMapRecord) -> dict:
    return {
        "urir": _resource_to_dict(record.urir),
        "provenance": record.provenance.value,
        "fetched_at": compact14(record.fetched_at),
        "mementos": [
            [compact14(m.memento_datetime), m.urim, m.archive_id, m.raw_urim]
            for m in record.mementos
        ],
    }


def _record_from_dict(d: dict) -> TimeMapRecord:
    urir = _resource_from_dict(d["urir"])
    mementos = tuple(
        Memento(
            urim=urim,
            memento_datetime=parse_compact14(stamp),
            urir_key=urir.canonical_key,
            archive_id=archive_id,
            raw_urim=raw,
        )
        for stamp, urim, archive_id, raw in d["mementos"]
    )
    return TimeMapRecord(
        urir=urir,
        mementos=mementos,
        fetched_at=parse_compact14(d["fetched_at"]),
        provenance=Provenance(d["provenance"]),
    )


class DiscoveryPipeline:
    """Runs Methods 1-4 over configured sources. Resumable."""

    def __init__(
        self,
        config: RunConfig,
        transport: Transport | None = None,
        clock: Callable[[], datetime] | None = None,
    ):
        self.config = config
        self.registry = load_registry(config.registry_path)
        for entry in config.published_lists:
            self.registry.get(entry["archive"])  # UnknownArchive if it is not registered
            if entry["format"] not in LIST_FORMATS:
                raise ValueError(f"published list in unknown format {entry['format']!r}")
        if transport is None:
            transport = open_transport(config.fixtures_dir, config.record_dir, config.timeout)
        if clock is None and config.fixtures_dir:
            # Hermetic replays must be byte-reproducible, fetch stamps included.
            clock = lambda: datetime(2000, 1, 1, tzinfo=timezone.utc)  # noqa: E731
        policy = FetchPolicy(
            min_request_interval=config.min_request_interval,
            retries=config.retries,
            timeout=config.timeout,
        )
        template = config.aggregator_endpoint or DEFAULT_AGGREGATOR_TEMPLATE
        self.client = ArchiveClient(self.registry, policy, transport, template, clock)

        self.stage = "method1"
        self.scan_index = 0
        self.selection_state = SelectionState(quota_per_bucket=config.quota_per_bucket)
        self.collection = MementoCollection()
        self.method_tables: dict[str, dict[str, list[int]]] = {}

    @property
    def accepted(self) -> list[OriginalResource]:
        """Method 1's URI-Rs in acceptance order. Only they come from a
        source list, and Method 1 adds its records before any other stage."""
        return [r.urir for r in self.collection.records() if r.urir.source is not None]

    # -- state persistence -------------------------------------------------

    @property
    def state_path(self) -> Path:
        return self.config.out_dir / "state.json"

    def save_state(self) -> None:
        self.config.out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "stage": self.stage,
            "scan_index": self.scan_index,
            "records": [_record_to_dict(r) for r in self.collection.records()],
            "method_tables": self.method_tables,
        }
        tmp = self.state_path.with_suffix(".json.tmp")
        # Compact separators keep json on its C encoder; load_state reads
        # indented files from earlier versions just the same.
        tmp.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")), "utf-8")
        os.replace(tmp, self.state_path)

    def load_state(self) -> bool:
        if not self.state_path.exists():
            return False
        payload = json.loads(self.state_path.read_text("utf-8"))
        self.stage = payload["stage"]
        self.scan_index = payload["scan_index"]
        self.collection = MementoCollection()
        for d in payload["records"]:
            self.collection.add(_record_from_dict(d))
        self.method_tables = payload["method_tables"]
        # Files that also hold "accepted" and "selection_state" load the
        # same: the selection is rebuilt from the records.
        self.selection_state = SelectionState.from_resources(
            self.accepted, self.config.quota_per_bucket
        )
        return True

    # -- stages ------------------------------------------------------------

    def _stream(self) -> list[tuple[str, str]]:
        def load(path):
            return load_source_file(path).uris if path else ()

        wahr = {tag: load(p) for tag, p in self.config.wahr_paths.items()}
        return interleave_sources(
            load(self.config.moz_path),
            load(self.config.damage_path),
            load(self.config.httparchive_path),
            wahr,
        )

    def _snapshot_table(self, stage: str) -> None:
        self.method_tables[stage] = {
            a: [urims, urirs] for a, (urims, urirs) in self.collection.totals().items()
        }
        table = [["archive", "urims", "urirs"]]
        for archive_id, (urims, urirs) in sorted(
            self.collection.totals().items(), key=lambda kv: (-kv[1][0], kv[0])
        ):
            table.append([archive_id, str(urims), str(urirs)])
        self.config.out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(table, self.config.out_dir / f"counts_{stage}.csv")

    def _run_method1(self, max_candidates: int | None) -> bool:
        """Returns True when the stage completed (False: interrupted)."""
        stream = self._stream()
        end = len(stream) if max_candidates is None else self.scan_index + max_candidates

        def committed(result: ScreenResult) -> None:
            # Candidates commit in stream order, so scan_index stays a resume
            # point: candidates resolved ahead but not committed are redone.
            self.scan_index += 1
            if self.scan_index % self.config.checkpoint_every == 0:
                self.save_state()

        select_initial(
            stream[self.scan_index : end], self.client, self.selection_state,
            self.config.target - len(self.accepted), self.collection.add, committed,
        )
        completed = (
            self.selection_state.all_full()
            or len(self.accepted) >= self.config.target
            or self.scan_index == len(stream)
        )
        if not completed:
            self.save_state()  # cut at max_candidates
        return completed

    def _run_method2(self) -> None:
        minimum = self.config.constraints.min_urirs_per_archive
        for archive in self.registry:
            if method2_expand(archive, self.collection, self.client, minimum):
                self.save_state()

    def _run_method3(self) -> None:
        minimum = self.config.constraints.min_urirs_per_archive
        for entry in self.config.published_lists:
            archive = self.registry.get(entry["archive"])
            if ingest_published_list(
                entry["path"], entry["format"], archive, self.collection, self.client, minimum
            ):
                self.save_state()

    def _run_method4(self) -> None:
        minimum = self.config.constraints.min_urirs_per_archive
        for archive in self.registry:
            if method4_direct(archive, self.collection, self.client, minimum):
                self.save_state()

    def _write_outputs(self) -> None:
        out = self.config.out_dir
        out.mkdir(parents=True, exist_ok=True)
        write_urir_table(self.accepted, out / "urirs.tsv")
        timemap_dir = out / "timemaps"
        timemap_dir.mkdir(exist_ok=True)
        for i, record in enumerate(self.collection.records()):
            write_compact(timemap_dir / f"{i:06d}.txt", record.mementos, record.urir.uri)

    def run(
        self,
        resume: bool = True,
        stop_after: str | None = None,
        max_candidates: int | None = None,
    ) -> str:
        """Advance the pipeline; returns the stage it stopped at."""
        if resume:
            self.load_state()
        for stage, following in zip(STAGES, STAGES[1:]):
            if self.stage != stage:
                continue
            if stage == "method1":
                if not self._run_method1(max_candidates):
                    return self.stage  # interrupted mid-scan
            else:
                getattr(self, f"_run_{stage}")()
            self._snapshot_table(stage)
            self.stage = following
            self.save_state()
            if stop_after == stage and following != "done":
                return self.stage
        self._write_outputs()
        return self.stage
