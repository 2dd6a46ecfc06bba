"""Downsampling: per-archive download budgets, the memento cap,
non-archival error pruning, and final dataset summaries.

A "selection" here is a mapping of archive id to that archive's chosen
mementos. The persisted form is one compact two-column file per archive
plus a tab-delimited manifest of (archive, URI-R, URI-M, datetime,
classification) rows.
"""

from __future__ import annotations

import logging
import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .canonical import path_length, unsurt
from .errors import EmptyProbe, MementosetError
from .linkformat import write_compact
from .model import (
    Classification,
    Memento,
    PathBucket,
    SelectionConstraints,
    TimeMapRecord,
    compact14,
    parse_compact14,
)
from .tsv import read_tsv, write_tsv

logger = logging.getLogger(__name__)

Selection = dict[str, list[Memento]]
SEED = 0  # seeds cap_mementos' draws unless it is given another seed


@dataclass(frozen=True, slots=True)
class ArchiveBudget:
    """How many mementos one archive may contribute under the time budget."""

    archive_id: str
    probe_mean_cost: float  # seconds per memento
    allowed_count: int


def estimate_budget(
    archive_id: str,
    probe: Sequence[float],
    constraints: SelectionConstraints,
) -> ArchiveBudget:
    """Derive the per-archive cap from measured download costs.

    ``probe`` holds wall-clock durations in seconds (the ``elapsed`` of
    ``fetch_raw_memento`` results; a remembered download's is that of the
    download the run made). The allowance is the download budget divided
    by the mean cost, never above the configured per-archive maximum.
    """
    if not probe:
        raise EmptyProbe(f"no probe downloads for {archive_id}")
    mean = sum(probe) / len(probe)
    budget = constraints.download_budget.total_seconds()
    if mean <= 0:
        allowed = constraints.max_urims_per_archive
    else:
        allowed = min(math.floor(budget / mean), constraints.max_urims_per_archive)
    return ArchiveBudget(archive_id, mean, max(allowed, 0))


def group_by_archive(records: Iterable[TimeMapRecord]) -> Selection:
    """Flatten records into per-archive memento lists, order preserved."""
    selection: Selection = {}
    for record in records:
        for m in record.mementos:
            if m.archive_id is None:
                continue
            selection.setdefault(m.archive_id, []).append(m)
    return selection


PROBE_SIZE = 20  # mementos timed per archive to estimate download cost
# Probe threads; at least the 17 bundled archives, so each gets its own.
PROBE_WORKERS = 17


def probe_archives(
    client,
    selection: Selection,
    per_archive: int = PROBE_SIZE,
) -> tuple[dict[str, list[float]], dict[str, Classification]]:
    """Timed raw downloads of each archive's first mementos.

    Runs one worker per archive, at most ``PROBE_WORKERS`` at a time (the
    client's lanes keep each archive serial and spaced). Returns
    wall-clock durations per archive for budget estimation plus the
    response classification of every probed URI-M, both in selection
    order whichever archive finishes first. A memento the client
    downloaded before in the run is not downloaded again: its duration
    and classification are those of the download the run made. Mementos
    without raw access or with failing downloads are skipped and logged;
    an archive with none downloaded has no durations.
    """

    def worker(archive_id: str) -> list[tuple[str, float, Classification]]:
        downloads = []
        for m in selection[archive_id][:per_archive]:
            try:
                raw = client.fetch_raw_memento(m)
            except MementosetError as exc:
                logger.info("probe failed for %s: %s", m.urim, exc)
                continue
            downloads.append((m.urim, raw.elapsed, raw.classification))
        return downloads

    durations: dict[str, list[float]] = {}
    classifications: dict[str, Classification] = {}
    if selection:
        with ThreadPoolExecutor(max_workers=min(len(selection), PROBE_WORKERS)) as pool:
            probed = list(pool.map(worker, selection))
        for archive_id, downloads in zip(selection, probed):
            if downloads:
                durations[archive_id] = [elapsed for _, elapsed, _ in downloads]
            for urim, _, classification in downloads:
                classifications[urim] = classification
    return durations, classifications


def _cap_one(mementos: list[Memento], allowed: int, rng: random.Random) -> list[Memento]:
    # Dedupe by URI-M defensively; order of first occurrence.
    seen: set[str] = set()
    pool = [m for m in mementos if not (m.urim in seen or seen.add(m.urim))]
    if len(pool) <= allowed:
        return sorted(pool, key=lambda m: (m.memento_datetime, m.urim))
    if allowed <= 0:
        return []

    by_urir: dict[str, list[Memento]] = {}
    for m in pool:
        by_urir.setdefault(m.urir_key, []).append(m)
    for ms in by_urir.values():
        ms.sort(key=lambda m: (m.memento_datetime, m.urim))

    urirs = sorted(by_urir)
    rng.shuffle(urirs)

    chosen: list[Memento] = []
    chosen_urims: set[str] = set()
    year_counts: Counter[int] = Counter()

    # Pass 1: one memento per URI-R, favoring years not covered yet.
    for key in urirs:
        if len(chosen) >= allowed:
            break
        candidates = by_urir[key]
        pick = next((m for m in candidates if m.year not in year_counts), candidates[0])
        chosen.append(pick)
        chosen_urims.add(pick.urim)
        year_counts[pick.year] += 1

    # Pass 2: fill remaining slots from the least-covered years.
    by_year: dict[int, list[Memento]] = {}
    for m in pool:
        if m.urim not in chosen_urims:
            by_year.setdefault(m.year, []).append(m)
    for ms in by_year.values():
        ms.sort(key=lambda m: (m.memento_datetime, m.urim))
    while len(chosen) < allowed and by_year:
        year = min(by_year, key=lambda y: (year_counts[y], y))
        pick = by_year[year].pop(0)
        if not by_year[year]:
            del by_year[year]
        chosen.append(pick)
        year_counts[year] += 1

    return sorted(chosen, key=lambda m: (m.memento_datetime, m.urim))


def cap_mementos(
    selection: Selection,
    budgets: Mapping[str, ArchiveBudget],
    seed: int = SEED,
) -> Selection:
    """Trim each archive to its budgeted allowance.

    Keeps at least one memento per URI-R whenever the allowance permits,
    then spreads remaining slots across capture years. Deterministic for
    a given seed; each archive's output is sorted by (datetime, URI-M).
    """
    capped: Selection = {}
    for archive_id, mementos in selection.items():
        budget = budgets[archive_id]
        rng = random.Random(f"{seed}:{archive_id}")
        capped[archive_id] = _cap_one(mementos, budget.allowed_count, rng)
    return capped


def prune_non_archival(
    selection: Selection,
    probe_results: Mapping[str, Classification],
    keep_quota: int = 0,
) -> Selection:
    """Remove mementos whose responses were non-archival 4xx/5xx.

    ``keep_quota`` of them survive for tracking, chosen deterministically
    (ordered by archive, then URI-M). Archival responses, including
    archival error pages, are always kept.
    """
    missing = [
        m.urim
        for mementos in selection.values()
        for m in mementos
        if m.urim not in probe_results
    ]
    if missing:
        raise ValueError(f"{len(missing)} mementos lack a classification: {missing[:3]}")
    non_archival = sorted(
        (archive_id, m.urim)
        for archive_id, mementos in selection.items()
        for m in mementos
        if probe_results[m.urim] is Classification.NON_ARCHIVAL_ERROR
    )
    tracked = {urim for _, urim in non_archival[:keep_quota]}
    pruned: Selection = {}
    for archive_id, mementos in selection.items():
        pruned[archive_id] = [
            m
            for m in mementos
            if probe_results[m.urim] is not Classification.NON_ARCHIVAL_ERROR
            or m.urim in tracked
        ]
    return pruned


@dataclass(frozen=True, slots=True)
class DatasetSummary:
    """Counts the final selection is reported with."""

    per_archive: dict[str, tuple[int, int]]  # archive -> (urirs, urims)
    per_year: dict[int, int]
    per_archive_year: dict[str, dict[int, int]]
    path_histogram: dict[PathBucket, int]  # unique URI-Rs per bucket
    total_urims: int
    total_unique_urirs: int


def summarize(
    pairs: Mapping[str, Sequence[tuple[str, int]]],
    bucket_of: Callable[[str], PathBucket],
) -> DatasetSummary:
    """Count a dataset from each archive's (URI-R identity, year) pairs, one
    per memento; ``bucket_of`` maps an identity to its path-length bucket.
    Totals reconcile by construction."""
    per_archive: dict[str, tuple[int, int]] = {}
    per_year: Counter[int] = Counter()
    per_archive_year: dict[str, dict[int, int]] = {}
    identities: set[str] = set()
    for archive_id, archive_pairs in pairs.items():
        keys = {key for key, _ in archive_pairs}
        identities |= keys
        per_archive[archive_id] = (len(keys), len(archive_pairs))
        years: Counter[int] = Counter(year for _, year in archive_pairs)
        per_archive_year[archive_id] = dict(sorted(years.items()))
        per_year.update(years)
    histogram = Counter(bucket_of(key) for key in identities)
    return DatasetSummary(
        per_archive=per_archive,
        per_year=dict(sorted(per_year.items())),
        per_archive_year=per_archive_year,
        path_histogram={b: histogram.get(b, 0) for b in PathBucket},
        total_urims=sum(per_year.values()),
        total_unique_urirs=len(identities),
    )


def finalize(selection: Selection) -> DatasetSummary:
    """Summarize a pruned selection by URI-R key, with the counter the
    ``mementoset stats`` tables share; an empty archive counts (0, 0)."""
    pairs = {a: [(m.urir_key, m.year) for m in ms] for a, ms in selection.items()}
    return summarize(pairs, lambda key: path_length(unsurt(key)))


@dataclass(frozen=True, slots=True)
class ManifestRow:
    archive_id: str
    urir: str
    urim: str
    memento_datetime: datetime
    classification: Classification


MANIFEST_HEADER = ("archive", "urir", "urim", "datetime", "classification")


def rows_from_selection(
    selection: Selection,
    urir_by_key: Mapping[str, str],
    classifications: Mapping[str, Classification],
) -> list[ManifestRow]:
    rows = []
    for archive_id in sorted(selection):
        for m in selection[archive_id]:
            rows.append(
                ManifestRow(
                    archive_id=archive_id,
                    urir=urir_by_key.get(m.urir_key, unsurt(m.urir_key)),
                    urim=m.urim,
                    memento_datetime=m.memento_datetime,
                    classification=classifications[m.urim],
                )
            )
    return rows


def write_manifest(rows: Iterable[ManifestRow], path: str | Path) -> None:
    """Tab-delimited manifest; a kept URI holds no tab or LF (``model.kept_uri``)."""
    write_tsv(path, MANIFEST_HEADER, (
        (r.archive_id, r.urir, r.urim, compact14(r.memento_datetime), r.classification.value)
        for r in rows
    ))


def _manifest_row(cells: list[str]) -> ManifestRow:
    archive_id, urir, urim, stamp, classification = cells
    return ManifestRow(
        archive_id, urir, urim, parse_compact14(stamp), Classification(classification)
    )


def read_manifest(path: str | Path) -> list[ManifestRow]:
    return read_tsv(path, MANIFEST_HEADER, _manifest_row, "manifest")


def write_compact_files(selection: Selection, out_dir: str | Path) -> list[Path]:
    """One compact two-column file per archive."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for archive_id in sorted(selection):
        path = out_dir / f"{archive_id}.txt"
        write_compact(path, selection[archive_id])
        written.append(path)
    return written
