"""Plot-ready CSV tables over manifests and URI-R selection tables.

All tables carry their own totals row/column so consumers can check that
rows and columns reconcile.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from .canonical import path_length
from .model import OriginalResource, PathBucket
from .sampler import ManifestRow
from .tsv import read_tsv, write_tsv

Table = list[list[str]]

DEFAULT_YEAR_RANGE = (1996, 2017)

def write_csv(table: Table, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(table)


def build_urims_per_year(rows: Sequence[ManifestRow]) -> Table:
    """Per-archive memento counts by capture year, plus a Total row.

    The year range comes from the data and falls back to 1996-2017 for an
    empty manifest. Archives are ordered by descending total.
    """
    counts: dict[str, Counter[int]] = {}
    for r in rows:
        counts.setdefault(r.archive_id, Counter())[r.memento_datetime.year] += 1
    if counts:
        years_seen = [y for c in counts.values() for y in c]
        years = list(range(min(years_seen), max(years_seen) + 1))
    else:
        years = list(range(DEFAULT_YEAR_RANGE[0], DEFAULT_YEAR_RANGE[1] + 1))
    table: Table = [["archive", "total", *(str(y) for y in years)]]
    ordered = sorted(counts.items(), key=lambda kv: (-sum(kv[1].values()), kv[0]))
    for archive_id, by_year in ordered:
        table.append(
            [archive_id, str(sum(by_year.values())), *(str(by_year.get(y, 0)) for y in years)]
        )
    table.append(
        [
            "Total",
            str(len(rows)),
            *(str(sum(c.get(y, 0) for c in counts.values())) for y in years),
        ]
    )
    return table


def build_archive_totals(rows: Sequence[ManifestRow]) -> Table:
    """Final per-archive URI-R and URI-M counts, largest URI-R set first."""
    urims: Counter[str] = Counter()
    urirs: dict[str, set[str]] = {}
    for r in rows:
        urims[r.archive_id] += 1
        urirs.setdefault(r.archive_id, set()).add(r.urir)
    table: Table = [["archive", "urirs", "urims"]]
    ordered = sorted(urims, key=lambda a: (-len(urirs[a]), a))
    for archive_id in ordered:
        table.append([archive_id, str(len(urirs[archive_id])), str(urims[archive_id])])
    all_urirs = {r.urir for r in rows}
    table.append(["Total", str(len(all_urirs)), str(len(rows))])
    return table


def build_path_histogram(rows: Sequence[ManifestRow]) -> Table:
    """Unique URI-Rs per path-length bucket."""
    buckets = Counter(path_length(u) for u in {r.urir for r in rows})
    table: Table = [["path", "urirs"]]
    for b in PathBucket:
        table.append([b.value, str(buckets.get(b, 0))])
    table.append(["Total", str(sum(buckets.values()))])
    return table


def build_source_bucket_table(resources: Sequence[OriginalResource]) -> Table:
    """Selected URI-Rs per source by path-length bucket."""
    counts: dict[str, Counter[PathBucket]] = {}
    order: list[str] = []
    for r in resources:
        tag = r.source or "unknown"
        if tag not in counts:
            counts[tag] = Counter()
            order.append(tag)
        counts[tag][r.path_bucket] += 1
    table: Table = [["source", *(b.value for b in PathBucket), "total"]]
    for tag in order:
        row = [tag, *(str(counts[tag].get(b, 0)) for b in PathBucket)]
        row.append(str(sum(counts[tag].values())))
        table.append(row)
    totals = [
        str(sum(counts[tag].get(b, 0) for tag in order)) for b in PathBucket
    ]
    table.append(["Total", *totals, str(len(resources))])
    return table


def build_status_table(resources: Sequence[OriginalResource]) -> Table:
    """Live HTTP status of selected URI-Rs per bucket: 200 vs 4xx/5xx."""
    ok: Counter[PathBucket] = Counter()
    err: Counter[PathBucket] = Counter()
    other: Counter[PathBucket] = Counter()
    for r in resources:
        if r.live_status == 200:
            ok[r.path_bucket] += 1
        elif r.live_status is not None and 400 <= r.live_status <= 599:
            err[r.path_bucket] += 1
        else:
            other[r.path_bucket] += 1
    table: Table = [["path", "status_200", "status_4xx_5xx", "other", "total"]]
    for b in PathBucket:
        table.append(
            [
                b.value,
                str(ok.get(b, 0)),
                str(err.get(b, 0)),
                str(other.get(b, 0)),
                str(ok.get(b, 0) + err.get(b, 0) + other.get(b, 0)),
            ]
        )
    table.append(
        [
            "Total",
            str(sum(ok.values())),
            str(sum(err.values())),
            str(sum(other.values())),
            str(len(resources)),
        ]
    )
    return table


URIR_TABLE_HEADER = ("uri", "canonical_key", "final_uri", "path", "source", "live_status")


def write_urir_table(resources: Iterable[OriginalResource], path: str | Path) -> None:
    """Persist selected URI-Rs as a tab-delimited table."""
    write_tsv(path, URIR_TABLE_HEADER, (
        (r.uri, r.canonical_key, r.final_uri, r.path_bucket.value, r.source or "",
         "" if r.live_status is None else str(r.live_status))
        for r in resources
    ))


def _urir_row(cells: list[str]) -> OriginalResource:
    uri, key, final_uri, bucket, source, status = cells
    status = int(status) if status else None
    return OriginalResource(uri, key, final_uri, PathBucket(bucket), source or None, status)


def read_urir_table(path: str | Path) -> list[OriginalResource]:
    return read_tsv(path, URIR_TABLE_HEADER, _urir_row, "URI-R table")
