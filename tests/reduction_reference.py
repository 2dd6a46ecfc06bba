"""The reduction the collection made before ``TimeMapReducer`` became the
only code that reduces mementos, kept verbatim as a reference.

``dedupe`` and ``yearly_first_filter`` are the previous functions of
``mementoset.linkformat``. ``reference_add`` is the previous body of
``MementoCollection.add``, its ``_reduce`` and ``_add_tally`` inlined: it
merges a full record, of every memento a TimeMap lists, into the record
stored under its key and reduces the union. The tests hold the reducer,
and the collection storing what the reducer returns, to it.
"""

from mementoset import Memento, TimeMapRecord, UnknownArchive


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
