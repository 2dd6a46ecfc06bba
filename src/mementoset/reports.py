"""Plot-ready CSV tables over manifests and URI-R selection tables.

Every table carries its own total column and Total row so consumers can
check that rows and columns reconcile. One function, ``_margins``, computes
them for every count table: each row's total, the column sums and the
grand total. The manifest tables take their numbers from
``sampler.summarize``, the counter ``sampler.finalize`` uses too.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TypeVar

from .canonical import path_length
from .model import OriginalResource, PathBucket
from .sampler import DatasetSummary, ManifestRow, summarize
from .tsv import read_tsv, write_tsv

Table = list[list[str]]
Column = TypeVar("Column")

DEFAULT_YEAR_RANGE = (1996, 2017)

def write_csv(table: Table, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(table)


def _margins(
    columns: Sequence[Column], rows: Iterable[tuple[str, Mapping[Column, int]]]
) -> list[tuple[str, list[int], int]]:
    """Each (label, counts) row as (label, its cells in ``columns`` order,
    its total), then the Total row: the column sums and the grand total."""
    margins: list[tuple[str, list[int], int]] = []
    sums = [0] * len(columns)
    for label, counts in rows:
        cells = [counts.get(c, 0) for c in columns]
        margins.append((label, cells, sum(cells)))
        sums = [s + c for s, c in zip(sums, cells)]
    margins.append(("Total", sums, sum(sums)))
    return margins


def _summary(rows: Sequence[ManifestRow]) -> DatasetSummary:
    pairs: dict[str, list[tuple[str, int]]] = {}
    for r in rows:
        pairs.setdefault(r.archive_id, []).append((r.urir, r.memento_datetime.year))
    return summarize(pairs, path_length)


def build_urims_per_year(rows: Sequence[ManifestRow]) -> Table:
    """Per-archive memento counts by capture year, plus a Total row.

    The year range comes from the data and falls back to 1996-2017 for an
    empty manifest. Archives are ordered by descending total.
    """
    summary = _summary(rows)
    first, last = DEFAULT_YEAR_RANGE
    if summary.per_year:
        first, last = min(summary.per_year), max(summary.per_year)
    years = range(first, last + 1)
    ordered = sorted(summary.per_archive, key=lambda a: (-summary.per_archive[a][1], a))
    by_year = ((a, summary.per_archive_year[a]) for a in ordered)
    table: Table = [["archive", "total", *(str(y) for y in years)]]
    for label, cells, total in _margins(years, by_year):
        table.append([label, str(total), *map(str, cells)])
    return table


def build_archive_totals(rows: Sequence[ManifestRow]) -> Table:
    """Final per-archive URI-R and URI-M counts, largest URI-R set first."""
    summary = _summary(rows)
    table: Table = [["archive", "urirs", "urims"]]
    for archive_id in sorted(summary.per_archive, key=lambda a: (-summary.per_archive[a][0], a)):
        urirs, urims = summary.per_archive[archive_id]
        table.append([archive_id, str(urirs), str(urims)])
    table.append(["Total", str(summary.total_unique_urirs), str(summary.total_urims)])
    return table


def build_path_histogram(rows: Sequence[ManifestRow]) -> Table:
    """Unique URI-Rs per path-length bucket."""
    summary = _summary(rows)
    table: Table = [["path", "urirs"]]
    for b, count in summary.path_histogram.items():
        table.append([b.value, str(count)])
    table.append(["Total", str(summary.total_unique_urirs)])
    return table


def build_source_bucket_table(resources: Sequence[OriginalResource]) -> Table:
    """Selected URI-Rs per source by path-length bucket."""
    counts: dict[str, Counter[PathBucket]] = {}
    for r in resources:
        counts.setdefault(r.source or "unknown", Counter())[r.path_bucket] += 1
    table: Table = [["source", *(b.value for b in PathBucket), "total"]]
    for label, cells, total in _margins(list(PathBucket), counts.items()):
        table.append([label, *map(str, cells), str(total)])
    return table


def build_status_table(resources: Sequence[OriginalResource]) -> Table:
    """Live HTTP status of selected URI-Rs per bucket: 200 vs 4xx/5xx."""
    counts: dict[PathBucket, Counter[str]] = {b: Counter() for b in PathBucket}
    for r in resources:
        if r.live_status == 200:
            column = "status_200"
        elif r.live_status is not None and 400 <= r.live_status <= 599:
            column = "status_4xx_5xx"
        else:
            column = "other"
        counts[r.path_bucket][column] += 1
    classes = ["status_200", "status_4xx_5xx", "other"]
    table: Table = [["path", *classes, "total"]]
    for label, cells, total in _margins(classes, ((b.value, c) for b, c in counts.items())):
        table.append([label, *map(str, cells), str(total)])
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
