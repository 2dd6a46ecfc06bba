"""Totals reconcile: every report table's row totals equal their cells'
sums and its Total row equals its column sums, and ``finalize`` reports
the numbers ``mementoset stats`` prints for the manifest written from the
same selection."""

import tempfile
from datetime import datetime, timezone
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from mementoset import Classification, Memento, finalize
from mementoset.canonical import surt
from mementoset.model import OriginalResource, PathBucket
from mementoset.reports import (
    build_archive_totals,
    build_path_histogram,
    build_source_bucket_table,
    build_status_table,
    build_urims_per_year,
)
from mementoset.sampler import ManifestRow, read_manifest, rows_from_selection, write_manifest

ARCHIVES = st.sampled_from(["a.org", "b.org", "c.org", "web.archive.org"])
# URI-Rs of every path-length bucket, with the forms surt rewrites: a www
# host, a trailing slash, a query.
URIR = st.sampled_from([
    f"http://{host}.example/{path}{query}"
    for host in ("h0", "www.h1")
    for path in ("", "a", "a/", "a/b9", "a/b/c/", "a/b/c/d", "x/y/z/1/2/")
    for query in ("", "?b=2&a=1")
])
DATETIME = st.datetimes(
    datetime(1996, 1, 1), datetime(2019, 12, 31), timezones=st.just(timezone.utc)
).map(lambda d: d.replace(microsecond=0))
MANIFEST_ROW = st.builds(
    lambda archive, urir, when, i: ManifestRow(
        archive, urir, f"http://{archive}/{i}/{urir}", when, Classification.ARCHIVAL_OK
    ),
    ARCHIVES, URIR, DATETIME, st.integers(0, 10**6),
)
RESOURCE = st.builds(
    lambda uri, bucket, source, status: OriginalResource(uri, uri, uri, bucket, source, status),
    URIR,
    st.sampled_from(list(PathBucket)),
    st.sampled_from([None, "moz", "httparchive", "wahr:#paris"]),
    st.sampled_from([None, 0, 200, 301, 399, 400, 404, 503, 599, 600]),
)


def numbers(row: list[str]) -> list[int]:
    return [int(cell) for cell in row[1:]]


def assert_margins(table: list[list[str]], total_at: int) -> None:
    """Rows and columns of a count table whose total column is ``total_at``
    among the numbers (0 for first, -1 for last) reconcile."""
    header, *body, total_row = table
    assert total_row[0] == "Total"
    assert all(len(row) == len(header) for row in table)
    split = [(n.pop(total_at), n) for n in map(numbers, [*body, total_row])]
    assert all(total == sum(cells) for total, cells in split)
    column_sums = [sum(cells) for cells in zip(*(cells for _, cells in split[:-1]))]
    assert split[-1][1] == (column_sums or [0] * (len(header) - 2))


class TestTablesReconcile:
    @given(st.lists(MANIFEST_ROW, max_size=30))
    def test_manifest_tables(self, rows):
        per_year = build_urims_per_year(rows)
        assert_margins(per_year, 0)
        assert per_year[-1][1] == str(len(rows))

        archive_header, *archives, archive_total = build_archive_totals(rows)
        assert archive_total == ["Total", str(len({r.urir for r in rows})), str(len(rows))]
        assert sum(int(urims) for _, _, urims in archives) == len(rows)
        urirs_of: dict[str, set[str]] = {}
        for r in rows:
            urirs_of.setdefault(r.archive_id, set()).add(r.urir)
        assert {a: int(n) for a, n, _ in archives} == {a: len(u) for a, u in urirs_of.items()}

        _, *buckets, bucket_total = build_path_histogram(rows)
        assert [b for b, _ in buckets] == [b.value for b in PathBucket]
        assert sum(int(n) for _, n in buckets) == int(bucket_total[1])
        assert bucket_total[1] == archive_total[1]

    @given(st.lists(RESOURCE, max_size=30))
    def test_urir_tables(self, resources):
        for table in (build_source_bucket_table(resources), build_status_table(resources)):
            assert_margins(table, -1)
            assert table[-1][-1] == str(len(resources))


class TestFinalizeMatchesTheManifest:
    @given(st.dictionaries(ARCHIVES, st.lists(st.tuples(URIR, DATETIME), max_size=12)))
    def test_finalize_prints_what_stats_prints(self, chosen):
        selection = {
            archive: [
                Memento(f"http://{archive}/{i}/{uri}", when, surt(uri), archive)
                for i, (uri, when) in enumerate(pairs)
            ]
            for archive, pairs in chosen.items()
        }
        urir_by_key = {surt(uri): uri for pairs in chosen.values() for uri, _ in pairs}
        classes = {m.urim: Classification.ARCHIVAL_OK for ms in selection.values() for m in ms}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.tsv"
            write_manifest(rows_from_selection(selection, urir_by_key, classes), path)
            rows = read_manifest(path)
        summary = finalize(selection)
        # An archive left with no mementos has no manifest row.
        listed = {a: n for a, n in summary.per_archive.items() if n[1]}

        ordered = sorted(listed, key=lambda a: (-listed[a][0], a))
        assert build_archive_totals(rows) == [
            ["archive", "urirs", "urims"],
            *([a, str(listed[a][0]), str(listed[a][1])] for a in ordered),
            ["Total", str(summary.total_unique_urirs), str(summary.total_urims)],
        ]
        assert build_path_histogram(rows) == [
            ["path", "urirs"],
            *([b.value, str(n)] for b, n in summary.path_histogram.items()),
            ["Total", str(summary.total_unique_urirs)],
        ]
        header, *body = build_urims_per_year(rows)
        years = [int(y) for y in header[2:]]
        if summary.per_year:
            assert (years[0], years[-1]) == (min(summary.per_year), max(summary.per_year))
        by_archive = {row[0]: numbers(row) for row in body}
        total = by_archive.pop("Total")
        assert total == [summary.total_urims, *(summary.per_year.get(y, 0) for y in years)]
        assert by_archive == {
            a: [listed[a][1], *(summary.per_archive_year[a].get(y, 0) for y in years)]
            for a in listed
        }
