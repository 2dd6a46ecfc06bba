"""Checks of the program's outputs against values computed apart from it.

Every checker returns a list of problems, one string per wrong output;
an empty list means the output passed. The checkers read the files the
program wrote (``state.json``, the manifest, the CSVs) with their own
parsers and recompute each expected value from the generated inputs and
the transport log, never through ``mementoset`` code.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from urllib.parse import urlsplit

BUCKETS = ("s0", "s1", "s2", "s3", "s4plus")


def check_selection(accepted: list[str], expected: list[str]) -> list[str]:
    """The Method 1 accepted URI-Rs, in order, against the brute-force scan."""
    problems = [f"accepted but not expected: {u}" for u in accepted if u not in set(expected)]
    problems += [f"expected but not accepted: {u}" for u in expected if u not in set(accepted)]
    if not problems and accepted != expected:
        problems.append("accepted URI-Rs are out of stream order")
    return problems


def load_records(state_path: Path) -> list[dict]:
    return json.loads(state_path.read_text("utf-8"))["records"]


def check_records(
    records: list[dict],
    served: dict[str, list[tuple[str, str]]],
    planted_archive: dict[str, str | None],
    published: dict[str, tuple[tuple[str, str], ...]] | None = None,
) -> list[str]:
    """Stored mementos against the TimeMaps served for each URI-R.

    ``served`` maps a URI-R to every ``(urim, stamp)`` entry the transport
    log shows was served for it. Each record must hold, for every
    (planted archive, year) among those entries, exactly the earliest
    ``(stamp, urim)``, and every stored memento must carry its planted
    archive.
    """
    problems = []
    for record in records:
        urir = record["urir"]["final_uri"]
        entries = list(served.get(urir, ()))
        if record["provenance"] == "published_list":
            entries += (published or {}).get(urir, ())
        best: dict[tuple[str, str], tuple[str, str]] = {}
        for urim, stamp in entries:
            archive = planted_archive.get(urim)
            if archive is None:
                continue
            group = (archive, stamp[:4])
            if group not in best or (stamp, urim) < best[group]:
                best[group] = (stamp, urim)
        expected = {urim for _, urim in best.values()}
        groups: Counter[tuple[str, str]] = Counter()
        for stamp, urim, archive, _raw in record["mementos"]:
            if planted_archive.get(urim) != archive:
                problems.append(f"{urim} attributed to {archive}, planted in {planted_archive.get(urim)}")
            groups[(archive, stamp[:4])] += 1
        problems += [
            f"{urir}: {n} mementos for {archive} in {year}"
            for (archive, year), n in groups.items() if n > 1
        ]
        stored = {m[1] for m in record["mementos"]}
        if stored != expected:
            problems.append(
                f"{urir}: {len(stored - expected)} stored mementos not earliest in their group,"
                f" {len(expected - stored)} earliest missing"
            )
    return problems


def totals_of(records: list[dict]) -> dict[str, tuple[int, int]]:
    """archive -> (URI-Ms, URI-Rs) recomputed from stored records."""
    urims: Counter[str] = Counter()
    urirs: Counter[str] = Counter()
    for record in records:
        archives = [m[2] for m in record["mementos"]]
        urims.update(archives)
        urirs.update(set(archives))
    return {a: (urims[a], urirs[a]) for a in urims}


def check_totals(records: list[dict], totals: dict, counts_csv: Path) -> list[str]:
    """``collection.totals()`` and a ``counts_<stage>.csv`` against the records."""
    expected = totals_of(records)
    problems = []
    if dict(totals) != expected:
        problems.append(f"collection totals differ from the records: {_diff(dict(totals), expected)}")
    rows = list(csv.reader(io.StringIO(counts_csv.read_text("utf-8"))))
    from_csv = {a: (int(m), int(r)) for a, m, r in rows[1:]}
    if from_csv != expected:
        problems.append(f"{counts_csv.name} differs from the records: {_diff(from_csv, expected)}")
    return problems


def _diff(got: dict, want: dict) -> str:
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return ", ".join(f"{k}: {got.get(k)} != {want.get(k)}" for k in keys[:4])


def allowed_count(durations: list[float], budget_s: float, max_urims: int) -> int:
    mean = sum(durations) / len(durations)
    if mean <= 0:
        return max_urims
    return max(0, min(math.floor(budget_s / mean), max_urims))


def check_cap(
    pools: dict[str, set[str]],
    durations: dict[str, list[float]],
    capped: dict[str, list[str]],
    budget_s: float,
    max_urims: int,
) -> list[str]:
    """Each archive with probe durations is capped to min(pool, allowed).

    Every archive of the selection that was probed must be capped, and no
    archive that was not probed may be.
    """
    problems = [f"{a}: capped without probe durations" for a in capped if a not in durations]
    for archive, pool in pools.items():
        if archive not in durations:
            continue
        kept = capped.get(archive, [])
        want = min(len(pool), allowed_count(durations[archive], budget_s, max_urims))
        if len(kept) != want:
            problems.append(f"{archive}: capped to {len(kept)}, expected {want}")
        if not set(kept) <= pool:
            problems.append(f"{archive}: capped mementos outside its pool")
    return problems


def check_failed_caps(failed: list[str], selection, no_raw) -> list[str]:
    """The failed ``cap_mementos`` calls are exactly the selected archives
    without raw access, whose probes can never succeed."""
    expected = {a for a in selection if a in no_raw}
    if set(failed) != expected:
        return [f"cap_mementos failed for {sorted(failed)}, expected {sorted(expected)}"]
    return []


def check_prune(
    capped: dict[str, list[str]],
    manifest_urims: list[str],
    non_archival: set[str],
    keep_quota: int,
) -> list[str]:
    """Non-archival mementos beyond ``keep_quota`` are gone; nothing else is."""
    problems = []
    kept_bad = [u for u in manifest_urims if u in non_archival]
    if len(kept_bad) > keep_quota:
        problems.append(f"{len(kept_bad)} non-archival mementos kept, quota {keep_quota}")
    capped_all = [u for kept in capped.values() for u in kept]
    bad = sum(1 for u in capped_all if u in non_archival)
    want = len(capped_all) - max(0, bad - keep_quota)
    if len(manifest_urims) != want:
        problems.append(f"manifest has {len(manifest_urims)} rows, expected {want}")
    if not set(manifest_urims) <= set(capped_all):
        problems.append("manifest holds mementos that were not capped in")
    return problems


# -- report tables -----------------------------------------------------------


def read_tsv(path: Path) -> list[list[str]]:
    lines = path.read_text("utf-8").splitlines()
    return [line.split("\t") for line in lines[1:] if line.strip()]


def _bucket(uri: str) -> str:
    segments = [s for s in urlsplit(uri).path.split("/") if s]
    return BUCKETS[min(len(segments), 4)]


def expected_tables(manifest: list[list[str]], urirs: list[list[str]]) -> dict[str, list[list[str]]]:
    """The five ``stats`` tables, recomputed from manifest and URI-R rows.

    Manifest rows are (archive, urir, urim, stamp, classification); URI-R
    rows are (uri, key, final_uri, bucket, source, live_status).
    """
    by_archive: dict[str, Counter[int]] = defaultdict(Counter)
    urirs_of: dict[str, set[str]] = defaultdict(set)
    for archive, urir, _urim, stamp, _cls in manifest:
        by_archive[archive][int(stamp[:4])] += 1
        urirs_of[archive].add(urir)
    years_seen = [y for c in by_archive.values() for y in c] or [1996, 2017]
    years = range(min(years_seen), max(years_seen) + 1)
    order = sorted(by_archive, key=lambda a: (-sum(by_archive[a].values()), a))
    per_year = [["archive", "total", *map(str, years)]]
    per_year += [[a, str(sum(by_archive[a].values())), *(str(by_archive[a][y]) for y in years)] for a in order]
    per_year.append(["Total", str(len(manifest)), *(str(sum(c[y] for c in by_archive.values())) for y in years)])

    order = sorted(by_archive, key=lambda a: (-len(urirs_of[a]), a))
    totals = [["archive", "urirs", "urims"]]
    totals += [[a, str(len(urirs_of[a])), str(sum(by_archive[a].values()))] for a in order]
    all_urirs = {row[1] for row in manifest}
    totals.append(["Total", str(len(all_urirs)), str(len(manifest))])

    buckets = Counter(_bucket(u) for u in all_urirs)
    histogram = [["path", "urirs"], *([b, str(buckets[b])] for b in BUCKETS)]
    histogram.append(["Total", str(sum(buckets.values()))])

    sources: dict[str, Counter[str]] = {}
    ok, err, other = Counter(), Counter(), Counter()
    for _uri, _key, _final, bucket, source, status in urirs:
        sources.setdefault(source or "unknown", Counter())[bucket] += 1
        code = int(status) if status else None
        target = ok if code == 200 else err if code and 400 <= code <= 599 else other
        target[bucket] += 1
    source_table = [["source", *BUCKETS, "total"]]
    for tag, counts in sources.items():
        source_table.append([tag, *(str(counts[b]) for b in BUCKETS), str(sum(counts.values()))])
    source_table.append(
        ["Total", *(str(sum(c[b] for c in sources.values())) for b in BUCKETS), str(len(urirs))]
    )
    status = [["path", "status_200", "status_4xx_5xx", "other", "total"]]
    for b in BUCKETS:
        status.append([b, str(ok[b]), str(err[b]), str(other[b]), str(ok[b] + err[b] + other[b])])
    status.append(
        ["Total", str(sum(ok.values())), str(sum(err.values())), str(sum(other.values())), str(len(urirs))]
    )
    return {
        "urims-per-year.csv": per_year,
        "archive-totals.csv": totals,
        "path-histogram.csv": histogram,
        "source-buckets.csv": source_table,
        "live-status.csv": status,
    }


def check_reports(manifest: Path, urirs: Path, report_dir: Path) -> list[str]:
    """Each ``stats`` CSV equals its table recomputed from the inputs."""
    problems = []
    for name, table in expected_tables(read_tsv(manifest), read_tsv(urirs)).items():
        path = report_dir / name
        if not path.exists():
            problems.append(f"{name} missing")
            continue
        got = list(csv.reader(io.StringIO(path.read_text("utf-8"))))
        if got != table:
            problems.append(f"{name} differs from the table recomputed from the manifest")
    return problems


def _comparable_state(path: Path) -> dict:
    # Records ingested from a compact published list are stamped with the
    # wall clock, not the pipeline's clock, so their fetched_at differs
    # between any two runs; every other byte must match.
    state = json.loads(path.read_text("utf-8"))
    for record in state["records"]:
        if record["provenance"] == "published_list":
            record["fetched_at"] = None
    return state


def check_same_outputs(out: Path, reference: Path) -> list[str]:
    """Equality of every file a run wrote, against a reference run."""
    problems = []
    ours = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    theirs = sorted(p.relative_to(reference) for p in reference.rglob("*") if p.is_file())
    if ours != theirs:
        problems.append(f"file sets differ: {sorted(set(ours) ^ set(theirs))[:4]}")
    for rel in sorted(set(ours) & set(theirs)):
        if rel.name == "state.json":
            same = _comparable_state(out / rel) == _comparable_state(reference / rel)
        else:
            same = (out / rel).read_bytes() == (reference / rel).read_bytes()
        if not same:
            problems.append(f"{rel} differs from the uninterrupted run")
    return problems
