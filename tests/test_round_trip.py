"""Every file the crawler writes, it reads back.

One property draws text from all of Unicode, puts it inside a URI-R and a
URI-M, and takes both through each intake and each writer/reader pair:
a TimeMap member through the reducer, then ``write_compact`` and
``parse_compact``; the ``save_state`` snapshot and journal, then
``load_state``; ``write_manifest`` and ``read_manifest``; a source-list
line, then ``write_urir_table`` and ``read_urir_table``; and a line of a
``urirs_and_urims`` published list.

A URI that intake keeps comes back identical from every pair. A URI that
intake refuses is refused there, with its error class: a URI-R is
``MalformedUri``, and a URI-M is read, counted and not kept, so no writer
sees it. The kept rule is restated independently as
``reduction_reference.kept``.
"""

import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mementoset import MalformedUri, ParseError, Provenance
from mementoset.canonical import original_resource
from mementoset.discovery import MementoCollection, ingest_published_list, load_source_file
from mementoset.linkformat import TimeMapReducer, parse_compact, write_compact
from mementoset.model import Classification, default_registry
from mementoset.pipeline import DiscoveryPipeline, RunConfig
from mementoset.reports import read_urir_table, write_urir_table
from mementoset.sampler import ManifestRow, read_manifest, write_manifest
from mockserver import FakeTransport
from reduction_reference import kept
from test_discovery import make_client

REGISTRY = default_registry()
WHEN = datetime(2001, 1, 1, tzinfo=timezone.utc)
FETCHED = datetime(2017, 11, 15, tzinfo=timezone.utc)
DATETIME = 'datetime="Mon, 01 Jan 2001 00:00:00 GMT"'


def uris(text: str, path: str = "x") -> tuple[str, str]:
    """A URI-R holding ``text`` inside its path, and a URI-M of it."""
    urir = f"http://a.example/{path}{text}y"
    return urir, f"http://web.archive.org/web/20010101000000/{urir}"


def reduced(urir: str, urim: str):
    """The record of one memento of ``urim`` offered to a reducer, with
    ``urir`` as its URI-R."""
    reducer = TimeMapReducer(REGISTRY)
    reducer.offer(WHEN, urim)
    assert reducer.mementos == 1
    return reducer.record(urir, Provenance.AGGREGATOR, FETCHED)


def offline(out: Path) -> DiscoveryPipeline:
    return DiscoveryPipeline(RunConfig(out_dir=out), transport=FakeTransport(), clock=lambda: FETCHED)


def check_member(urim: str, out: Path) -> None:
    """A TimeMap member through the reducer and a ``timemaps/`` file."""
    body = f'<http://a.example/>; rel="original",\n<{urim}>; rel="memento"; {DATETIME}'
    reducer = TimeMapReducer(REGISTRY)
    reducer.read(body)
    record = reducer.record()
    assert reducer.mementos == 1
    assert [m.urim for m in record.mementos] == ([urim] if kept(urim) else [])
    write_compact(out / "000000.txt", record.mementos, record.urir.uri)
    back = parse_compact((out / "000000.txt").read_text("utf-8"), record.urir.uri, REGISTRY)
    assert back.mementos == record.mementos


def check_record(text: str, out: Path) -> None:
    """A record of the URI-R and URI-M holding ``text`` through the state
    files and the manifest."""
    urir, urim = uris(text)
    if not kept(urir):
        with pytest.raises(MalformedUri):
            reduced(urir, urim)
        return
    record = reduced(urir, urim)
    assert [m.urim for m in record.mementos] == ([urim] if kept(urim) else [])
    # The first save writes the snapshot; the second appends another
    # record, of another URI-R, to the journal.
    writer = offline(out / "state")
    writer.collection.add(record)
    writer.save_state()
    writer.collection.add(reduced(*uris(text, "z")))
    writer.save_state()
    assert writer.journal_path.exists()
    loaded = offline(out / "state")
    assert loaded.load_state()
    assert list(loaded.collection.records()) == list(writer.collection.records())

    rows = [
        ManifestRow(m.archive_id, urir, m.urim, m.memento_datetime, Classification.ARCHIVAL_OK)
        for m in record.mementos
    ]
    write_manifest(rows, out / "manifest.tsv")
    assert read_manifest(out / "manifest.tsv") == rows


def check_source_line(urir: str, out: Path) -> None:
    """A source-list line, keyed as Method 1 keys it, through the URI-R table."""
    (out / "moz.txt").write_text(f"{urir}\r\n", "utf-8")
    assert load_source_file(out / "moz.txt") == (urir,)
    if not kept(urir):
        with pytest.raises(MalformedUri):
            original_resource(urir)
        return
    resource = original_resource(urir)
    write_urir_table([resource], out / "urirs.tsv")
    assert read_urir_table(out / "urirs.tsv") == [resource]


def check_published_line(urim: str, out: Path) -> None:
    """A ``urirs_and_urims`` line, taken in without a request."""
    (out / "list.txt").write_text(f"20010101000000 {urim}\n", "utf-8")
    transport = FakeTransport()
    added = ingest_published_list(
        out / "list.txt", "urirs_and_urims", REGISTRY.get("web.archive.org"),
        MementoCollection(), make_client(transport, REGISTRY), 10,
    )
    assert transport.requests == []
    assert [m.urim for r in added for m in r.mementos] == ([urim] if kept(urim) else [])


@given(st.text(max_size=6))
# Characters some reader split at or dropped, and ones the rule keeps.
@example(" ")
@example("\u2028")
@example("\x0c")
@example("\x85")
@example("\x1d")
@example("\t")
@example("\u200b")
@example("\u00e9\ufeff")
def test_a_kept_uri_reads_back_from_every_file_and_a_refused_one_is_refused_at_intake(text):
    urir, urim = uris(text)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if ">" not in text:  # a link-format target ends there
            check_member(urim, out)
        check_record(text, out)
        if "\n" not in text:  # a line ends there
            check_source_line(urir, out)
            check_published_line(urim, out)


BOM = "\ufeff"


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as Notepad and Excel save one, is
    not part of a file's first line."""

    def test_a_source_list(self, tmp_path):
        path = tmp_path / "moz.txt"
        path.write_text(f"{BOM}http://www.example.com/page\nhttp://b.example/\n", "utf-8")
        assert load_source_file(path) == ("http://www.example.com/page", "http://b.example/")

    def test_a_manifest(self, tmp_path):
        rows = [ManifestRow("web.archive.org", "http://a.example/", uris("")[1], WHEN,
                            Classification.ARCHIVAL_OK)]
        path = tmp_path / "manifest.tsv"
        write_manifest(rows, path)
        path.write_text(BOM + path.read_text("utf-8"), "utf-8")
        assert read_manifest(path) == rows

    def test_a_urir_table(self, tmp_path):
        resources = [original_resource("http://a.example/")]
        path = tmp_path / "urirs.tsv"
        write_urir_table(resources, path)
        path.write_text(BOM + path.read_text("utf-8"), "utf-8")
        assert read_urir_table(path) == resources

    def test_a_published_list(self, tmp_path):
        (tmp_path / "list.txt").write_text(f"{BOM}20010101000000 {uris('')[1]}\n", "utf-8")
        added = ingest_published_list(
            tmp_path / "list.txt", "urirs_and_urims", REGISTRY.get("web.archive.org"),
            MementoCollection(), make_client(FakeTransport(), REGISTRY), 10,
        )
        assert [r.urir.uri for r in added] == ["http://a.example/xy"]

    def test_a_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(BOM + '{"target": 7}', "utf-8")
        assert RunConfig.from_file(path).target == 7

    def test_a_byte_that_is_not_utf8_is_named_at_its_line(self, tmp_path):
        path = tmp_path / "moz.txt"
        path.write_bytes(BOM.encode() + b"http://a.example/\nhttp://b\xff.example/\n")
        with pytest.raises(ParseError) as info:
            load_source_file(path)
        assert info.value.offset == 2


class TestLines:
    """A line ends at LF only, and one CR before it is dropped."""

    def test_a_source_line_holding_another_line_break_is_one_refused_uri(self, tmp_path):
        path = tmp_path / "moz.txt"
        path.write_text("http://a.example/x\u2028y\nhttp://b.example/x\x0cy\r\n", "utf-8")
        uris_read = load_source_file(path)
        assert uris_read == ("http://a.example/x\u2028y", "http://b.example/x\x0cy")
        for uri in uris_read:
            with pytest.raises(MalformedUri):
                original_resource(uri)

    def test_a_file_with_lone_cr_line_ends_is_one_line(self, tmp_path):
        path = tmp_path / "moz.txt"
        path.write_bytes(b"http://a.example/\rhttp://b.example/\r")
        assert load_source_file(path) == ("http://a.example/\rhttp://b.example/",)

    def test_a_compact_line_number_counts_lfs(self):
        text = "20010101000000 http://web.archive.org/web/20010101000000/http://a.example/\u2028\nbad\n"
        with pytest.raises(ParseError) as info:
            parse_compact(text, "http://a.example/", REGISTRY)
        assert info.value.offset == 2
