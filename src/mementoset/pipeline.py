"""End-to-end discovery run: the four methods in sequence with a
resumable on-disk state file and per-stage count tables. A bad aggregator
template, or a published list of an unknown archive or format, fails when
the pipeline is built, before any request.

The state is the stage, the Method 1 scan index and the collected
records, each memento as [stamp, URI-M, archive, null]: the client
derives the raw URI-M, and one an earlier version stored there is
ignored. It is saved every ``CHECKPOINT_EVERY`` scanned candidates, after
every archive that Methods 2-4 grew and at every stage boundary, so an
interrupted run resumed from disk converges to the same final state as an
uninterrupted one (fetches must be deterministic, e.g. fixture-backed, for
byte equality). A save within a stage appends the records changed since
the last save and a cursor line to the journal ``state.jsonl``; the
snapshot ``state.json`` is rewritten atomically, and the journal removed,
at the first save of each stage, so a run that finishes or stops at a
stage boundary leaves ``state.json`` alone. A Method 1 cut after
``max_candidates`` is an ordinary checkpoint: it appends like any other,
and resuming replays the journal, as after a crash. A save with no
changed record and the cursor as saved appends nothing, so a cut that
lands on a checkpoint writes no second cursor line. A checkpoint's CPU,
like its bytes, grows only with what changed: each stored record's JSON
text is kept while the collection holds that record, so a save encodes
only the records changed since the last, and a snapshot streams the kept
texts to the file one after another, so no text of the whole state is
built. A loaded record, in whatever layout it was read, is encoded once,
at the next snapshot. Method 1's selection is not stored apart: its
URI-Rs are the records that carry a source tag, and resuming counts them
again under the config's ``quota_per_bucket``. Their ``final_uri`` and
``live_status`` also give a resumed Method 1's client the end of each
stored redirect walk (see ``load_state``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .client import ArchiveClient, FetchPolicy, Transport, open_transport
from .discovery import (
    LIST_FORMATS,
    TARGET,
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
from .errors import MalformedUri, ParseError
from .linkformat import write_compact
from .model import (
    Memento,
    OriginalResource,
    PathBucket,
    Provenance,
    SelectionConstraints,
    TimeMapRecord,
    absolute_uri,
    check_fields,
    compact14,
    json_kwargs,
    kept_uri,
    load_registry,
    parse_compact14,
    parse_http_uri,
)
from .reports import write_csv, write_urir_table
from .sampler import SEED
from .tsv import read_utf8

STAGES = ("method1", "method2", "method3", "method4", "done")
CHECKPOINT_EVERY = 25  # Method 1 saves after this many committed candidates


# Config keys that fill a RunConfig field of another name: at the top level,
# and in the "sources" object. Every other top-level key is a field's name.
_RENAMED = {"registry": "registry_path", "fixtures": "fixtures_dir", "record": "record_dir"}
_SOURCES = {
    "moz": "moz_path",
    "memento_damage": "damage_path",
    "httparchive": "httparchive_path",
    "wahr": "wahr_paths",
}
_PATHS = {"out_dir", "moz_path", "damage_path", "httparchive_path", *_RENAMED.values()}
_LIST_KEYS = {"archive": "archive", "path": "path", "format": "format"}


@dataclass
class RunConfig:
    """Everything one discovery run needs, loadable from a JSON file.

    ``seed`` and the constraints' ``max_urims_per_archive`` and
    ``download_budget`` are read by the downsampling, not by ``discover``."""

    out_dir: Path = Path("out")
    registry_path: Path | None = None
    aggregator_endpoint: str | None = None  # None: the client's default template
    moz_path: Path | None = None
    damage_path: Path | None = None
    httparchive_path: Path | None = None
    wahr_paths: dict[str, Path] = field(default_factory=dict)
    published_lists: list[dict] = field(default_factory=list)
    constraints: SelectionConstraints = field(default_factory=SelectionConstraints)
    target: int = TARGET
    quota_per_bucket: int = SelectionState.quota_per_bucket
    fixtures_dir: Path | None = None
    record_dir: Path | None = None
    seed: int = SEED
    min_request_interval: float = FetchPolicy.min_request_interval
    timeout: float = FetchPolicy.timeout
    retries: int = FetchPolicy.retries

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise ValueError naming the first field of the wrong type or out
        of range, a ``wahr`` hashtag holding a tab, CR or LF (it becomes the
        ``source`` cell ``wahr:<hashtag>`` of the URI-R table), or the first
        bad key of a published list: one not among ``archive``, ``path``
        and ``format`` or left out, a value that is not a string (``path``
        may be a Path), or an unknown format. ``FetchPolicy`` checks the
        fetch settings' ranges, and the pipeline that the archives are
        registered."""
        check_fields(self, positive=("target", "quota_per_bucket"))
        for tag in self.wahr_paths:
            if "\t" in tag or "\r" in tag or "\n" in tag:
                raise ValueError(f"wahr: hashtag {tag!r} holds a tab, CR or LF")
        for i, entry in enumerate(self.published_lists):
            where = f"published_lists[{i}]"
            json_kwargs(entry, _LIST_KEYS, where)
            for key in _LIST_KEYS:
                if key not in entry:
                    raise ValueError(f"{where}: missing key {key!r}")
                value = entry[key]
                if not isinstance(value, (str, Path) if key == "path" else str):
                    raise ValueError(f"{where}: {key}: expected a string, got {value!r}")
            if entry["format"] not in LIST_FORMATS:
                raise ValueError(f"{where}: unknown format {entry['format']!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """The run in the JSON file at ``path``, its paths relative to the
        file. A key fills the field of its name, or the one ``_RENAMED`` or
        ``_SOURCES`` maps it to, and a key left out keeps the field's
        default. An unknown key, or a value of the wrong type or out of
        range, is a ValueError naming the key; the first file named but
        missing, in field order, is a FileNotFoundError."""
        path = Path(path)
        hidden = {*_RENAMED.values(), *_SOURCES.values()}
        keys = {f.name: f.name for f in fields(cls) if f.name not in hidden}
        raw = json.loads(read_utf8(path, str(path)))
        kwargs = json_kwargs(raw, {**keys, **_RENAMED, "sources": "sources"}, "config")
        kwargs |= json_kwargs(kwargs.pop("sources", {}), _SOURCES, "sources")
        if "constraints" in kwargs:
            kwargs["constraints"] = SelectionConstraints.from_dict(kwargs["constraints"])

        def resolve(p, key):
            if not isinstance(p, (str, Path)):
                raise ValueError(f"{key}: expected a path, got {p!r}")
            resolved = (path.parent / p).resolve()
            if key not in ("out_dir", "fixtures", "record") and not resolved.exists():
                raise FileNotFoundError(f"configured file missing: {resolved}")
            return resolved

        key_of = {name: key for key, name in {**_RENAMED, **_SOURCES}.items()}
        for name in (f.name for f in fields(cls) if f.name in _PATHS):
            if kwargs.get(name) is not None:
                kwargs[name] = resolve(kwargs[name], key_of.get(name, name))
        wahr = kwargs.get("wahr_paths")
        if isinstance(wahr, dict):
            kwargs["wahr_paths"] = {tag: resolve(p, f"wahr {tag!r}") for tag, p in wahr.items()}
        config = cls(**kwargs)
        config.out_dir = resolve(config.out_dir, "out_dir")  # the default, too
        for entry in config.published_lists:
            entry["path"] = str(resolve(entry["path"], "path"))
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


# The types a stored URI-R's fields may hold, tested with type(): a bool is
# no int here. Plain tests, as a resume decodes every record.
_STR, _STR_OR_NULL = {str}, {str, type(None)}
_RESOURCE_TYPES = dict(
    uri=_STR, canonical_key=_STR, final_uri=_STR,
    source=_STR_OR_NULL, live_status={int, type(None)},
)


def _resource_from_dict(d: dict) -> OriginalResource:
    resource = OriginalResource(
        uri=d["uri"],
        canonical_key=d["canonical_key"],
        final_uri=d["final_uri"],
        path_bucket=PathBucket(d["path_bucket"]),
        source=d.get("source"),
        live_status=d.get("live_status"),
    )
    for name, types in _RESOURCE_TYPES.items():
        value = getattr(resource, name)
        if type(value) not in types:
            raise TypeError(f"the URI-R's {name!r} has the wrong type: {value!r}")
    absolute_uri(resource.uri)  # MalformedUri unless it reads as a URI-R is written,
    parse_http_uri(resource.final_uri)  # and as the client sends a URI
    status = resource.live_status
    if status is not None and not 100 <= status <= 999:  # the statuses http.client reads
        raise ValueError(f"the URI-R's 'live_status' is not an HTTP status: {status!r}")
    return resource


def _record_to_dict(record: TimeMapRecord) -> dict:
    return {
        "urir": _resource_to_dict(record.urir),
        "provenance": record.provenance.value,
        "fetched_at": compact14(record.fetched_at),
        "mementos": [
            [compact14(m.memento_datetime), m.urim, m.archive_id, None] for m in record.mementos
        ],
    }


def _record_from_dict(d: dict) -> TimeMapRecord:
    urir = _resource_from_dict(d["urir"])
    key = urir.canonical_key
    mementos = []
    for m in d["mementos"]:
        if (  # parse_compact14 checks the stamp
            type(m) is not list
            or len(m) != 4
            or type(m[1]) is not str
            or type(m[2]) is not str
            or type(m[3]) not in _STR_OR_NULL
        ):
            raise TypeError(f"a memento is not [stamp, URI-M, archive, null|raw URI-M]: {m!r}")
        stamp, urim, archive_id, _ = m  # the raw URI-M of earlier versions, derived at download
        when = parse_compact14(stamp)
        if not kept_uri(urim):
            continue  # a URI-M the TimeMap reader would not have kept
        # Positional: a frozen dataclass takes keywords at twice the cost.
        mementos.append(Memento(urim, when, key, archive_id))
    return TimeMapRecord(
        urir=urir,
        mementos=tuple(mementos),
        fetched_at=parse_compact14(d["fetched_at"]),
        provenance=Provenance(d["provenance"]),
    )


# json.dumps(payload, sort_keys=True, separators=(",", ":")) without
# building an encoder per call. Compact separators keep json on its C
# encoder; load_state reads indented files from earlier versions just the same.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encode(record: TimeMapRecord) -> str:
    """The state file text of ``record``: the one place a record is encoded."""
    return _dumps(_record_to_dict(record))


@contextmanager
def _decoding(path: Path, line: int | None = None):
    """Turn a decoding fault of the state file at ``path`` (its 1-based
    ``line`` for the journal) into a ParseError that names it."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{path} lacks the key {exc}", line) from None
    except (ValueError, TypeError, MalformedUri) as exc:  # not UTF-8 or JSON, or a wrong value
        raise ParseError(f"{path} does not decode: {exc}", line) from None


class DiscoveryPipeline:
    """Runs Methods 1-4 over configured sources. Resumable."""

    def __init__(
        self,
        config: RunConfig,
        transport: Transport | None = None,
        clock: Callable[[], datetime] | None = None,
    ):
        self.config = config
        config.check()  # again: a config's fields may have been set since it was built
        self.registry = load_registry(config.registry_path)
        for entry in config.published_lists:
            self.registry.get(entry["archive"])  # UnknownArchive if it is not registered
        if transport is None:
            transport = open_transport(config.fixtures_dir, config.record_dir, config.timeout)
        if clock is None and config.fixtures_dir:
            # Hermetic replays must be byte-reproducible, fetch stamps included.
            clock = lambda: datetime(2000, 1, 1, tzinfo=timezone.utc)  # noqa: E731
        policy = FetchPolicy(config.min_request_interval, config.retries, config.timeout)
        self.client = ArchiveClient(
            self.registry, policy, transport, config.aggregator_endpoint, clock
        )

        self.stage = "method1"
        self.scan_index = 0
        self.selection_state = SelectionState(quota_per_bucket=config.quota_per_bucket)
        self.collection = MementoCollection()
        self._snapshot_stage: str | None = None  # the stage of the snapshot the journal extends
        self._saved_cursor = ""  # the last cursor the snapshot or the journal holds
        self._texts: dict[str, tuple[TimeMapRecord, str]] = {}  # key -> a record and its text

    @property
    def accepted(self) -> list[OriginalResource]:
        """Method 1's URI-Rs in acceptance order. Only they come from a
        source list, and Method 1 adds its records before any other stage."""
        return [r.urir for r in self.collection.records() if r.urir.source is not None]

    # -- state persistence -------------------------------------------------

    @property
    def state_path(self) -> Path:
        return self.config.out_dir / "state.json"

    @property
    def journal_path(self) -> Path:
        return self.config.out_dir / "state.jsonl"

    def save_state(self) -> None:
        """Append the records changed since the last save and a cursor line
        (stage, scan index) to the journal; with no changed record and the
        cursor as saved, append nothing. Write a snapshot instead while
        this pipeline has written or loaded none of the current stage."""
        changed = self.collection.take_changed()
        if self._snapshot_stage != self.stage:
            self._write_snapshot()
            return
        cursor = self._cursor()
        if not changed and cursor == self._saved_cursor:
            return  # a cut that lands on a checkpoint
        lines = [self._text(r) for r in changed]
        lines.append(cursor)
        with self.journal_path.open("a", encoding="utf-8") as journal:
            journal.write("\n".join(lines) + "\n")
        self._saved_cursor = cursor

    def _write_snapshot(self) -> None:
        """Write ``_dumps`` of the whole state to the snapshot, streamed:
        one kept record text at a time, so no text of the whole state is
        built. With keys sorted, "records" comes before the cursor's."""
        self.config.out_dir.mkdir(parents=True, exist_ok=True)
        cursor = self._cursor()
        tmp = self.state_path.with_suffix(".json.tmp")
        try:
            with tmp.open("w", encoding="utf-8") as out:
                out.write('{"records":[')
                separator = ""
                for record in self.collection.records():
                    out.write(separator)
                    out.write(self._text(record))
                    separator = ","
                out.write("]," + cursor[1:])
            # The journal goes before the old snapshot does: replayed over the
            # new one, it would put back records as they were before it.
            self.journal_path.unlink(missing_ok=True)
            os.replace(tmp, self.state_path)
        finally:
            tmp.unlink(missing_ok=True)  # left by a write or replace that failed
        self._snapshot_stage, self._saved_cursor = self.stage, cursor

    def _cursor(self) -> str:
        return _dumps({"stage": self.stage, "scan_index": self.scan_index})

    def _text(self, record: TimeMapRecord) -> str:
        """``_encode(record)``, kept while the collection holds this very
        record: records are frozen, and ``add`` stores a new one on every
        change."""
        key = record.urir.canonical_key
        kept = self._texts.get(key)
        if kept is None or kept[0] is not record:
            kept = self._texts[key] = record, _encode(record)
        return kept[1]

    def load_state(self) -> bool:
        """Load the snapshot ``state.json`` when it exists, then replay the
        journal ``state.jsonl`` over it: the one a Method 1 cut or a crash
        left. A journal save takes effect with its cursor line, so lines
        after the last cursor, a truncated last line among them, are
        dropped, and the next save writes a snapshot. Every layout loads
        the same way, and no text is kept: a loaded record is encoded once,
        at the next snapshot. A file that does not decode, lacks a key,
        holds a value of the wrong type, names no stage of ``STAGES`` or
        holds a ``scan_index`` that is not a non-negative int, or a
        ``live_status`` that is not null or an int in 100-999, is a
        ParseError that names it, as is a ``uri`` that ``model.absolute_uri``
        refuses or a ``final_uri`` that ``model.parse_http_uri`` refuses; a
        memento whose URI-M ``model.kept_uri`` refuses is dropped, as the
        TimeMap reader drops one.

        Loaded inside Method 1, the one stage that resolves redirects, each
        stored URI-R with a ``live_status`` (Method 1's) gives the client
        the answer that ended its walk (``ArchiveClient.remember_resolved``),
        so a later candidate whose walk reaches an equivalent URI sends no
        request there, as in the uninterrupted process. Nothing is written
        for it: the state already holds each ``final_uri`` and status."""
        if not self.state_path.exists():
            return False  # a journal without its snapshot is stale: the first save removes it
        with _decoding(self.state_path):
            payload = json.loads(self.state_path.read_text("utf-8"))
            self._load_cursor(self.state_path, payload)
            records = [_record_from_dict(d) for d in payload["records"]]
        self.collection = MementoCollection()
        self._texts = {}
        for record in records:
            self.collection.add(record)
        self._snapshot_stage = self.stage
        if self.journal_path.exists():
            self._replay_journal()
        self.collection.take_changed()
        self._saved_cursor = self._cursor()
        if self.stage == "method1":
            for record in self.collection.records():
                urir = record.urir
                if urir.live_status is not None:
                    self.client.remember_resolved(urir.final_uri, urir.live_status)
        # Files that also hold "accepted", "selection_state" or "method_tables"
        # load the same: the selection is rebuilt from the records.
        self.selection_state = SelectionState.from_resources(
            self.accepted, self.config.quota_per_bucket
        )
        return True

    def _load_cursor(self, path: Path, entry: dict) -> None:
        stage, scan_index = entry["stage"], entry["scan_index"]
        if stage not in STAGES:
            raise ParseError(f"{path} has an invalid 'stage': {stage!r}")
        if type(scan_index) is not int or scan_index < 0:
            raise ParseError(f"{path} has an invalid 'scan_index': {scan_index!r}")
        self.stage, self.scan_index = stage, scan_index

    def _replay_journal(self) -> None:
        path = self.journal_path
        *lines, torn = path.read_bytes().split(b"\n")  # torn: b"" after a whole last line
        pending: list[TimeMapRecord] = []
        for number, line in enumerate(lines, 1):
            with _decoding(path, number):
                entry = json.loads(line)
                if "stage" in entry:
                    self._load_cursor(path, entry)
                    for record in pending:
                        self.collection.add(record)
                    pending = []
                else:
                    pending.append(_record_from_dict(entry))
        if pending or torn:
            self._snapshot_stage = None  # appending after a torn save would join it

    # -- stages ------------------------------------------------------------

    def _stream(self) -> list[tuple[str, str]]:
        def load(path):
            return load_source_file(path) if path else ()

        wahr = {tag: load(p) for tag, p in self.config.wahr_paths.items()}
        return interleave_sources(
            load(self.config.moz_path),
            load(self.config.damage_path),
            load(self.config.httparchive_path),
            wahr,
        )

    def _snapshot_table(self, stage: str) -> None:
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
            if result.accepted is not None:
                self.collection.add(result.record)
            self.scan_index += 1
            if self.scan_index % CHECKPOINT_EVERY == 0:
                self.save_state()

        select_initial(
            stream[self.scan_index : end], self.client, self.selection_state,
            self.config.target - len(self.accepted), committed,
        )
        completed = (
            self.selection_state.all_full()
            or len(self.accepted) >= self.config.target
            or self.scan_index >= len(stream)  # the source lists may shrink between runs
        )
        if not completed:  # cut at max_candidates: a checkpoint like any other
            self.save_state()
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
        # An earlier run with more records left files past the last one.
        for path in timemap_dir.glob("[0-9]" * 6 + ".txt"):
            if int(path.stem) >= len(self.collection):
                path.unlink()

    def run(
        self,
        resume: bool = True,
        stop_after: str | None = None,
        max_candidates: int | None = None,
    ) -> str:
        """Run the stages up to ``stop_after`` at most; returns the stage it stopped at."""
        if stop_after is not None and stop_after not in STAGES:
            raise ValueError(f"no stage {stop_after!r}: stages are {', '.join(STAGES)}")
        if resume:
            self.load_state()
        start = STAGES.index(self.stage)
        if stop_after is not None and STAGES.index(stop_after) < start:
            return self.stage
        for stage, following in zip(STAGES[start:], STAGES[start + 1 :]):
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
