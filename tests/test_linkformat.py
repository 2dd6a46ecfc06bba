import random
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest

from mementoset import (
    ArchiveDescriptor,
    ArchiveRegistry,
    Memento,
    MissingOriginal,
    ParseError,
    Provenance,
    Purpose,
    TimeMapRecord,
    TimeMapReducer,
    default_registry,
    parse_compact,
    parse_timemap,
    serialize_compact,
    serialize_linkformat,
)
from mementoset.canonical import original_resource
from mementoset.linkformat import TimeMapReader
from mementoset.model import Classification, compact14, format_http_datetime
from mementoset.sampler import ManifestRow, read_manifest, write_manifest

URIR_FOM = "http://www.futureofmusic.org/about/positions.cfm"
FIXED_NOW = datetime(2017, 11, 15, tzinfo=timezone.utc)
# The hosts of the synthetic records below, each its own archive.
SYNTHETIC_REGISTRY = ArchiveRegistry(
    ArchiveDescriptor(host, host, (host,), Purpose.GENERAL)
    for host in ["a.example", *(f"arch{i}.example" for i in range(8))]
)


def reduce_record(record: TimeMapRecord, registry=SYNTHETIC_REGISTRY) -> TimeMapRecord:
    """What a reducer keeps of ``record``'s mementos, offered in order."""
    reducer = TimeMapReducer(registry)
    for m in record.mementos:
        reducer.offer(m.memento_datetime, m.urim)
    return reducer.record(record.urir.uri, record.provenance, record.fetched_at)


class TestParseTimemap:
    def test_ia_excerpt(self, cnn_timemap, registry):
        record = parse_timemap(cnn_timemap, registry=registry)
        assert record.urir.uri == "http://cnn.com:80/"
        assert record.urir.canonical_key == "com,cnn)/"  # :80 is a default port
        assert len(record.mementos) == 3
        assert all(m.archive_id == "web.archive.org" for m in record.mementos)
        first = record.mementos[0]
        assert first.memento_datetime == datetime(2000, 6, 20, 18, 2, 59, tzinfo=timezone.utc)
        assert first.urim == "http://web.archive.org/web/20000620180259/http://cnn.com:80/"
        # "first memento" rel still counts as a memento.
        assert record.mementos[0].urim == record.mementos[1].urim

    def test_perma_timemap(self, perma_timemap, registry):
        record = parse_timemap(perma_timemap, registry=registry)
        assert len(record.mementos) == 57
        assert record.urir.uri == "http://www.whitehouse.gov/"
        assert {m.archive_id for m in record.mementos} == {"perma.cc"}

    def test_empty_body(self):
        with pytest.raises(ParseError):
            parse_timemap(b"")

    def test_whitespace_body(self):
        with pytest.raises(ParseError):
            parse_timemap(b"  \n ")

    def test_missing_original_uses_hint(self):
        body = b'<http://a.example/m/1>; rel="memento"; datetime="Tue, 20 Jun 2000 18:02:59 GMT"'
        record = parse_timemap(body, urir_hint="http://orig.example/")
        assert record.urir.uri == "http://orig.example/"

    def test_missing_original_without_hint(self):
        body = b'<http://a.example/m/1>; rel="memento"; datetime="Tue, 20 Jun 2000 18:02:59 GMT"'
        with pytest.raises(MissingOriginal):
            parse_timemap(body)

    def test_unquoted_values_tolerated(self):
        body = b'<http://o/>; rel=original,\n<http://m/1>; rel=memento; datetime="Tue, 20 Jun 2000 18:02:59 GMT"'
        record = parse_timemap(body)
        assert len(record.mementos) == 1

    def test_memento_without_datetime(self):
        body = b'<http://o/>; rel="original",\n<http://m/1>; rel="memento"'
        with pytest.raises(ParseError):
            parse_timemap(body)

    def test_error_carries_byte_offset(self):
        body = b'<http://o/>; rel="original",\nbroken entry'
        with pytest.raises(ParseError) as info:
            parse_timemap(body)
        # Offset marks the malformed member's start, just after the comma.
        assert info.value.offset == body.index(b",\n") + 1

    def test_commas_inside_target_survive(self):
        body = (
            b'<http://o/a,b>; rel="original",\n'
            b'<http://m/x,y>; rel="memento"; datetime="Tue, 20 Jun 2000 18:02:59 GMT"'
        )
        record = parse_timemap(body)
        assert record.mementos[0].urim == "http://m/x,y"

    def test_no_memento_lacks_datetime_property(self, cnn_timemap, perma_timemap, registry):
        for body in (cnn_timemap, perma_timemap):
            record = parse_timemap(body, registry=registry)
            assert all(m.memento_datetime is not None for m in record.mementos)


class TestCompact:
    def test_serialize_single_line(self, registry):
        record = parse_compact(
            "20120328211040 http://www.webcitation.org/66VfNacdz",
            URIR_FOM,
            registry=registry,
        )
        assert serialize_compact(record) == (
            "20120328211040 http://www.webcitation.org/66VfNacdz\n"
        )

    def test_empty_record_serializes_empty(self):
        record = parse_compact("", URIR_FOM)
        assert serialize_compact(record) == ""

    def test_yearly_file_lines(self, fom_yearly_compact, registry):
        record = parse_compact(fom_yearly_compact, URIR_FOM, registry=registry)
        assert len(record.mementos) == 10
        assert {m.archive_id for m in record.mementos} == {
            "webcitation.org", "archive.is", "web.archive.org",
        }

    def test_bad_timestamp_width(self):
        with pytest.raises(ParseError) as info:
            parse_compact("2012 http://x", URIR_FOM)
        assert info.value.offset == 1  # line number

    def test_blank_lines_skipped(self):
        text = "\n20120328211040 http://a/\n\n20130328211040 http://b/\n"
        record = parse_compact(text, URIR_FOM)
        assert len(record.mementos) == 2

    def test_comment_lines_skipped(self):
        text = "# http://a/\n20120328211040 http://a/m\n"
        record = parse_compact(text, URIR_FOM)
        assert len(record.mementos) == 1

    def test_round_trip_on_fixture(self, fom_full_compact, registry):
        record = parse_compact(fom_full_compact, URIR_FOM, registry=registry)
        assert serialize_compact(record) == fom_full_compact

    def test_round_trip_random_records(self, registry):
        rng = random.Random(99)
        hosts = ["web.archive.org", "archive.is", "perma-archives.org"]
        for _ in range(200):
            lines = []
            for _ in range(rng.randint(0, 40)):
                stamp = (
                    f"{rng.randint(1996, 2017)}"
                    f"{rng.randint(1, 12):02d}{rng.randint(1, 28):02d}"
                    f"{rng.randint(0, 23):02d}{rng.randint(0, 59):02d}{rng.randint(0, 59):02d}"
                )
                host = rng.choice(hosts)
                lines.append(f"{stamp} http://{host}/web/{stamp}/http://x.example/")
            text = "\n".join(lines) + ("\n" if lines else "")
            record = parse_compact(text, "http://x.example/", registry=registry)
            assert serialize_compact(record) == text


class TestSerializeLinkformat:
    def test_round_trips_through_parse(self, fom_yearly_compact, registry):
        record = parse_compact(fom_yearly_compact, URIR_FOM, registry=registry)
        body = serialize_linkformat(record)
        reparsed = parse_timemap(body, registry=registry)
        assert [m.urim for m in reparsed.mementos] == [m.urim for m in record.mementos]
        assert [m.memento_datetime for m in reparsed.mementos] == [
            m.memento_datetime for m in record.mementos
        ]
        assert reparsed.urir.uri == URIR_FOM


class TestDedupe:
    def test_known_duplicate_collapses(self, fom_full_compact, registry):
        record = parse_compact(fom_full_compact, URIR_FOM, registry=registry)
        urims = [m.urim for m in record.mementos]
        dup = "https://web.archive.org/web/20070114182707/http://www.futureofmusic.org:80/about/positions.cfm"
        assert urims.count(dup) == 2
        reduced = reduce_record(record, registry)
        assert [m.urim for m in reduced.mementos].count(dup) == 1

    def test_unique_record_unchanged(self, fom_yearly_compact, registry):
        record = parse_compact(fom_yearly_compact, URIR_FOM, registry=registry)
        assert reduce_record(record, registry) == record

    def test_all_identical_collapse_to_one(self):
        line = "20120328211040 http://a.example/m\n" * 7
        record = parse_compact(line, URIR_FOM)
        assert len(reduce_record(record).mementos) == 1


def brute_force_yearly(record: TimeMapRecord) -> list[Memento]:
    """Independent group-by-min oracle for the yearly filter."""
    winners = {}
    for m in record.mementos:
        group = (m.archive_id, m.year)
        if group not in winners or (m.memento_datetime, m.urim) < (
            winners[group].memento_datetime,
            winners[group].urim,
        ):
            winners[group] = m
    archive_order = []
    for m in record.mementos:
        if m.archive_id not in archive_order:
            archive_order.append(m.archive_id)
    out = []
    for archive_id in archive_order:
        for year in sorted(y for (a, y) in winners if a == archive_id):
            out.append(winners[(archive_id, year)])
    return out


def synthetic_record(rng: random.Random, n_archives=5, n_years=3, per_group=4):
    resource = original_resource("http://syn.example/")
    mementos = []
    archives = [f"arch{i}.example" for i in range(n_archives)]
    entries = []
    for a in archives:
        for year in range(2000, 2000 + n_years):
            for k in range(rng.randint(1, per_group)):
                dt = datetime(
                    year, rng.randint(1, 12), rng.randint(1, 28),
                    rng.randint(0, 23), rng.randint(0, 59), tzinfo=timezone.utc,
                )
                entries.append(
                    Memento(
                        urim=f"http://{a}/web/{len(entries)}",
                        memento_datetime=dt,
                        urir_key=resource.canonical_key,
                        archive_id=a,
                    )
                )
    rng.shuffle(entries)
    mementos = tuple(entries)
    return TimeMapRecord(
        urir=resource, mementos=mementos, fetched_at=FIXED_NOW,
        provenance=Provenance.AGGREGATOR,
    )


class TestYearlyFilter:
    def test_full_timemap_reduces_to_yearly_file(self, fom_full_compact, fom_yearly_compact, registry):
        record = parse_compact(fom_full_compact, URIR_FOM, registry=registry)
        assert len(record.mementos) == 64
        filtered = reduce_record(record, registry)
        assert serialize_compact(filtered) == fom_yearly_compact

    def test_idempotent_on_filtered(self, fom_yearly_compact, registry):
        record = parse_compact(fom_yearly_compact, URIR_FOM, registry=registry)
        assert reduce_record(record, registry) == record

    def test_matches_brute_force_on_grid(self):
        rng = random.Random(5)
        record = synthetic_record(rng, n_archives=5, n_years=3, per_group=6)
        got = reduce_record(record).mementos
        assert list(got) == brute_force_yearly(record)
        assert len(got) == 15  # 5 archives x 3 years

    def test_never_grows_and_size_is_group_count(self):
        rng = random.Random(6)
        for _ in range(50):
            record = synthetic_record(
                rng, n_archives=rng.randint(1, 6), n_years=rng.randint(1, 5)
            )
            out = reduce_record(record)
            assert len(out.mementos) <= len(record.mementos)
            groups = {(m.archive_id, m.year) for m in record.mementos}
            assert len(out.mementos) == len(groups)
            assert reduce_record(out) == out

    def test_no_earlier_memento_in_any_group(self):
        rng = random.Random(7)
        record = synthetic_record(rng, n_archives=4, n_years=4)
        kept = {(m.archive_id, m.year): m for m in reduce_record(record).mementos}
        for m in record.mementos:
            winner = kept[(m.archive_id, m.year)]
            assert (winner.memento_datetime, winner.urim) <= (m.memento_datetime, m.urim)

    def test_equal_datetime_tie_breaks_to_smaller_urim(self):
        resource = original_resource("http://t.example/")
        dt = datetime(2019, 3, 7, 1, 30, 3, tzinfo=timezone.utc)
        http_form = Memento(
            "http://a.example/web/1/http://t.example/", dt, resource.canonical_key, "a.example"
        )
        https_form = Memento(
            "https://a.example/web/1/http://t.example/", dt, resource.canonical_key, "a.example"
        )
        for order in ((https_form, http_form), (http_form, https_form)):
            record = TimeMapRecord(resource, order, FIXED_NOW, Provenance.AGGREGATOR)
            assert reduce_record(record).mementos == (http_form,)


class TestUrimsHoldingTabsOrLineBreaks:
    """A memento whose URI-M holds a tab, CR or LF is read but never kept:
    its manifest row would split, and URI parsing drops the character."""

    GOOD = "http://web.archive.org/web/20010101000000/http://a.com/xy"
    WHEN = datetime(2001, 1, 1, tzinfo=timezone.utc)

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"])
    @pytest.mark.parametrize("params", ["", '; type="text/html"'])  # the plain form, or not
    def test_a_timemap_leaves_the_member_out(self, registry, char, params):
        bad = self.GOOD.replace("xy", f"x{char}y")
        members = [
            f'<{urim}>; rel="memento"; datetime="{format_http_datetime(self.WHEN)}"{params}'
            for urim in (bad, self.GOOD)
        ]
        body = ",\n".join(['<http://a.com/>; rel="original"', *members])
        reader, reducer = TimeMapReader(registry), TimeMapReducer(registry)
        for read in (reader, reducer):
            read.read(body)
            assert read.mementos == 2
            assert [m.urim for m in read.record().mementos] == [self.GOOD]

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"])
    def test_an_offered_memento_is_left_out(self, registry, char):
        for reader in (TimeMapReader(registry), TimeMapReducer(registry)):
            reader.offer(self.WHEN, self.GOOD.replace("xy", f"x{char}y"))
            reader.offer(self.WHEN, self.GOOD)
            assert reader.mementos == 2
            assert [m.urim for m in reader.record("http://a.com/").mementos] == [self.GOOD]

    def test_the_manifest_of_a_read_timemap_round_trips(self, registry, tmp_path):
        body = ",\n".join(
            f'<{urim}>; rel="memento"; datetime="{format_http_datetime(self.WHEN + timedelta(days=366 * i))}"'
            for i, urim in enumerate([self.GOOD.replace("xy", f"x{c}y") for c in "\t\r\n"] + [self.GOOD])
        )
        record = parse_timemap(body, "http://a.com/", registry)
        rows = [
            ManifestRow(m.archive_id, record.urir.uri, m.urim, m.memento_datetime, Classification.ARCHIVAL_OK)
            for m in record.mementos
        ]
        write_manifest(rows, tmp_path / "manifest.tsv")
        assert read_manifest(tmp_path / "manifest.tsv") == rows
        assert [row.urim for row in rows] == [self.GOOD]

    # Line breaks to str.splitlines, but none to the manifest: a TSV row ends at LF.
    @pytest.mark.parametrize("char", ["\u2028", "\u0085", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_a_kept_urim_holding_another_line_break_round_trips(self, registry, tmp_path, char):
        urim = self.GOOD.replace("xy", f"x{char}y")
        body = f'<{urim}>; rel="memento"; datetime="{format_http_datetime(self.WHEN)}"'
        (m,) = parse_timemap(body, "http://a.com/", registry).mementos
        rows = [ManifestRow(m.archive_id, "http://a.com/", m.urim, m.memento_datetime,
                            Classification.ARCHIVAL_OK)]
        write_manifest(rows, tmp_path / "manifest.tsv")
        assert read_manifest(tmp_path / "manifest.tsv") == rows
        assert rows[0].urim == urim


class TestReducerMemory:
    URIR = "http://www.example.com/news/2016/11/08/election-results.html"
    # Four archives' URI-M heads and three spellings of the URI-R.
    HEADS = (
        "http://web.archive.org/web/", "https://arquivo.pt/wayback/",
        "https://www.webarchive.org.uk/wayback/archive/", "http://archive.is/",
    )
    SPELLINGS = (URIR, URIR.replace("http:", "https:"), URIR.replace("www.", ""))

    def aggregated_timemap(self, urims: int, per_page: int, overlap: int):
        """``urims`` distinct Wayback-shaped URI-Ms, and the pages of an
        aggregated TimeMap listing them, each page repeating the last
        ``overlap`` members of the page before."""
        start = datetime(1996, 1, 1, tzinfo=timezone.utc)
        listed, members = [], []
        for i in range(urims):
            dt = start + timedelta(minutes=997 * i)
            urim = f"{self.HEADS[i % 4]}{compact14(dt)}/{self.SPELLINGS[i % 3]}"
            listed.append(urim)
            members.append(f'<{urim}>; rel="memento"; datetime="{format_http_datetime(dt)}"')
        original = f'<{self.URIR}>; rel="original"'
        pages = [
            ",\n".join([original, *members[max(0, k - overlap) : k + per_page]]) + "\n"
            for k in range(0, urims, per_page)
        ]
        return listed, pages

    def reduced_peak(self, urims: int):
        """The traced peak of reducing an aggregated TimeMap of ``urims``
        distinct URI-Ms, and what their strings alone take. The pages exist
        before tracing starts, so the peak is beyond their bodies."""
        listed, pages = self.aggregated_timemap(urims, per_page=2_400, overlap=25)
        strings = sum(map(sys.getsizeof, listed))
        del listed
        reducer = TimeMapReducer(default_registry())
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            for page in pages:
                reducer.read(page)
            record = reducer.record()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert reducer.mementos == urims + (len(pages) - 1) * 25
        assert {m.archive_id for m in record.mementos} == {
            "web.archive.org", "arquivo.pt", "webarchive.org.uk", "archive.is"
        }
        return peak, strings

    def test_seen_urims_cost_a_fraction_of_their_strings(self):
        # About 20,000 members on 8 pages. The URI-Ms the reducer must
        # remember are not held as strings: at its peak it holds less than
        # 60 % of what their strings alone take (measured: about 8 %, and
        # at least 100 % when they are kept as strings).
        peak, strings = self.reduced_peak(19_000)
        assert peak <= 0.6 * strings, (peak, strings)

    @pytest.mark.parametrize("urims", [20_000, 200_000])
    def test_seen_urims_past_a_set_table_step_cost_a_fraction_of_their_strings(self, urims):
        # Past 19,661 keys a set's table grows fourfold, to more than ints
        # take (a set of int keys measured 112 % at 20,000). Stamps listed in
        # order are appended to one array per (head, rest) pair, with no
        # table.
        peak, strings = self.reduced_peak(urims)
        assert peak <= 0.6 * strings, (peak, strings)
