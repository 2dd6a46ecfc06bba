"""The code that built and reduced memento records before
``linkformat.TimeMapReader`` and its subclass ``TimeMapReducer`` became the
only code that does, kept verbatim as a reference.

``record_from_entries``, ``compact_record`` and ``_build_memento`` (with
the ``_attribute`` it called) are the previous full-record builders of
``mementoset.linkformat``: a record of every memento of parsed link-format
entries, or of (datetime, URI-M) pairs. ``dedupe`` and
``yearly_first_filter`` are its previous reduction functions.
``reference_add`` is the previous body of ``MementoCollection.add``, its
``_reduce`` and ``_add_tally`` inlined: it merges a full record, of every
memento a TimeMap lists, into the record stored under its key and reduces
the union. The tests hold the reader, the reducer, and the collection
storing what the reducer returns, to them. One rule came after them, and
``record_from_entries`` and ``compact_record`` state it too: a memento
whose URI-M holds whitespace or a control character is read but not kept
(``kept``).
"""

import logging
from datetime import datetime, timezone
from typing import Iterable

from mementoset import (
    ArchiveDescriptor,
    ArchiveRegistry,
    MalformedUri,
    Memento,
    MissingOriginal,
    ParseError,
    Provenance,
    TimeMapRecord,
    UnknownArchive,
    archive_of,
    raw_variant,
)
from mementoset.canonical import original_resource
from mementoset.linkformat import LinkEntry, _timemap_original

logger = logging.getLogger(__name__)


def _attribute(urim: str, registry: ArchiveRegistry | None) -> ArchiveDescriptor | None:
    if registry is None:
        return None
    try:
        return archive_of(urim, registry)
    except (UnknownArchive, MalformedUri):
        logger.debug("no registered archive for %s", urim)
        return None


def _build_memento(
    urim: str, dt: datetime, urir_key: str, registry: ArchiveRegistry | None
) -> Memento:
    archive = _attribute(urim, registry)
    if archive is None:
        return Memento(urim, dt, urir_key)
    return Memento(urim, dt, urir_key, archive.id)


def kept(urim: str) -> bool:
    """Whether a memento of ``urim`` is kept: a URI-M holding a character
    that ``str.isspace`` accepts, or one of category Cc (U+0000-001F,
    U+007F-009F), is read, never kept."""
    return not any(c.isspace() or ord(c) < 0x20 or 0x7F <= ord(c) <= 0x9F for c in urim)


def reference_raw_urim(memento: Memento, registry: ArchiveRegistry) -> str | None:
    """The raw URI-M the previous code stored with ``memento``: the Wayback
    variant of its URI-M under its archive's scheme, None without one."""
    if memento.archive_id is None:
        return None
    return raw_variant(memento.urim, registry.get(memento.archive_id).raw_scheme)


def record_from_entries(
    entries: Iterable[LinkEntry],
    urir_hint: str | None = None,
    registry: ArchiveRegistry | None = None,
    provenance: Provenance = Provenance.AGGREGATOR,
    fetched_at: datetime | None = None,
) -> TimeMapRecord:
    """Assemble a TimeMapRecord from parsed entries.

    The rel="original" entry names the URI-R; ``urir_hint`` is used when
    absent. Every entry whose rel includes "memento" (also "first
    memento"/"last memento") becomes one Memento, in document order, but
    one whose URI-M holds a tab, CR or LF.
    """
    entries = list(entries)
    original = next((e.target for e in entries if "original" in e.rel), None)
    if original is None and urir_hint is None:
        raise MissingOriginal("no rel=original entry and no URI-R hint")
    resource = _timemap_original(original) if original is not None else original_resource(urir_hint)
    mementos = []
    for e in entries:
        if not e.is_memento():
            continue
        if e.datetime is None:
            raise ParseError(f"memento {e.target!r} lacks a datetime attribute")
        if not kept(e.target):
            continue
        mementos.append(_build_memento(e.target, e.datetime, resource.canonical_key, registry))
    return TimeMapRecord(
        urir=resource,
        mementos=tuple(mementos),
        fetched_at=fetched_at or datetime.now(timezone.utc),
        provenance=provenance,
    )


def compact_record(
    mementos: Iterable[tuple[datetime, str]],
    urir: str,
    registry: ArchiveRegistry | None = None,
    provenance: Provenance = Provenance.PUBLISHED_LIST,
    fetched_at: datetime | None = None,
) -> TimeMapRecord:
    """Build a record for ``urir`` from (datetime, URI-M) pairs, order
    preserved, but those whose URI-M holds a tab, CR or LF."""
    resource = original_resource(urir)
    built = [
        _build_memento(urim, dt, resource.canonical_key, registry)
        for dt, urim in mementos
        if kept(urim)
    ]
    return TimeMapRecord(resource, tuple(built), fetched_at or datetime.now(timezone.utc), provenance)


def dedupe(record: TimeMapRecord) -> TimeMapRecord:
    """Drop mementos with an already-seen URI-M string, keeping the first."""
    seen: set[str] = set()
    kept = []
    for m in record.mementos:
        if m.urim in seen:
            continue
        seen.add(m.urim)
        kept.append(m)
    return record.with_mementos(kept)


def yearly_first_filter(record: TimeMapRecord) -> TimeMapRecord:
    """Keep the earliest memento per (archive, UTC year).

    Ties on datetime break toward the lexicographically smallest URI-M.
    Output groups archives in order of first appearance, years ascending
    within each archive, which makes the filter idempotent.
    """
    winners: dict[str, dict[int, Memento]] = {}
    for m in record.mementos:
        if m.archive_id is None:
            raise UnknownArchive(m.urim, "URI-M")
        years = winners.setdefault(m.archive_id, {})
        best = years.get(m.year)
        if best is None or (m.memento_datetime, m.urim) < (best.memento_datetime, best.urim):
            years[m.year] = m
    kept = [
        years[year]
        for years in winners.values()
        for year in sorted(years)
    ]
    return record.with_mementos(kept)


def reference_add(collection, record: TimeMapRecord) -> TimeMapRecord:
    """Merge a record into ``collection`` and return the stored form: its
    mementos of no registered archive dropped, then deduplicated and
    filtered to the first per archive per year."""
    key = record.urir.canonical_key
    existing = collection._records.get(key)
    if existing is not None:
        # Merging never loses an archive: the reduced union keeps at
        # least one memento per (archive, year) group already present.
        for m in existing.mementos:
            collection._urims[m.archive_id] -= 1
        record = existing.with_mementos(existing.mementos + record.mementos)
    attributed = [m for m in record.mementos if m.archive_id is not None]
    reduced = yearly_first_filter(dedupe(record.with_mementos(attributed)))
    collection._records[key] = reduced
    for m in reduced.mementos:
        collection._urims[m.archive_id] = collection._urims.get(m.archive_id, 0) + 1
    for archive_id in {m.archive_id for m in reduced.mementos}:
        collection._urirs.setdefault(archive_id, set()).add(key)
    return reduced
