"""Malformed URIs and table cells end in MementosetError, never a bare ValueError.

``urlsplit`` raises ``ValueError`` on input such as an unterminated IPv6
host. Each path that meets such input must either reject it as
``MalformedUri`` or skip it, so one bad URI never ends a whole scan, a
whole Method 2 pass or a CLI command with a traceback.
"""

import pytest

from mementoset import (
    MalformedUri,
    ParseError,
    SelectionState,
    archive_of,
    extract_urirs_from_html,
    method2_expand,
    parse_timemap,
    path_length,
    registrable_domain,
    select_initial,
    surt,
)
from mementoset.cli import main
from mementoset.client import FixtureStore, FixtureTransport, TransportResponse
from mementoset.pipeline import DiscoveryPipeline, RunConfig
from mementoset.reports import URIR_TABLE_HEADER, read_urir_table
from mementoset.sampler import write_manifest
from mockserver import FakeTransport
from test_discovery import make_client, multi_archive_timemap, seed_collection
from test_pipeline import AGG, FIXED_NOW, WAYBACK, build_fixture_corpus, linkformat, write_config
from universe import AGG_TEMPLATE, timemap_body

BAD_URI = "http://[::1/x"


class TestMalformedUri:
    @pytest.mark.parametrize("fn", [surt, path_length, registrable_domain])
    def test_canonical_predicates_raise_malformed(self, fn):
        with pytest.raises(MalformedUri):
            fn(BAD_URI)

    def test_archive_of_raises_malformed(self, registry):
        with pytest.raises(MalformedUri):
            archive_of(BAD_URI, registry)

    def test_canon_prints_error_and_exits_one(self, capsys):
        assert main(["canon", BAD_URI]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_scan_rejects_with_error_reason(self, registry):
        transport = FakeTransport()
        results = []
        accepted = select_initial(
            [(BAD_URI, "moz")], make_client(transport, registry), SelectionState(),
            on_commit=results.append,
        )
        assert accepted == []
        [result] = results
        assert result.accepted is None and result.record is None
        assert result.reason.startswith("error:")
        assert transport.requests == []

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "CR", "LF"])
    def test_scan_rejects_a_tab_cr_or_lf_before_any_request(self, registry, char):
        # urlsplit drops the character, so the URI would be keyed as another;
        # it is rejected even when its redirect would lead to a clean URI.
        uri, clean = f"http://a.example/x{char}y", "http://a.example/xy"
        transport = FakeTransport()
        transport.add("HEAD", uri, 301, headers={"Location": clean})
        transport.add("HEAD", clean, 200)
        transport.add("GET", AGG_TEMPLATE.format(uri=clean), 200, body=timemap_body(clean, 1))
        results = []
        accepted = select_initial(
            [(uri, "moz")], make_client(transport, registry), SelectionState(),
            on_commit=results.append,
        )
        assert accepted == []
        assert [r.reason for r in results] == [
            f"error: whitespace or control character in URI: {uri!r}"
        ]
        assert transport.requests == []

    def test_scan_continues_past_malformed_candidate(self, registry):
        transport = FakeTransport()
        good = "http://alive.com/"
        transport.add("HEAD", good, 200)
        transport.add("GET", AGG_TEMPLATE.format(uri=good), 200, body=timemap_body(good, 1))
        client = make_client(transport, registry)
        accepted = select_initial([(BAD_URI, "moz"), (good, "moz")], client, SelectionState())
        assert [r.uri for r in accepted] == [good]

    def test_scan_continues_past_a_timemap_whose_original_is_malformed(self, registry):
        transport = FakeTransport()
        bad, good = "http://a.test/", "http://alive.com/"
        for uri, original in ((bad, "not a uri"), (good, good)):
            transport.add("HEAD", uri, 200)
            transport.add("GET", AGG_TEMPLATE.format(uri=uri), 200, body=timemap_body(original, 1))
        client = make_client(transport, registry)
        results = []
        accepted = select_initial(
            [(bad, "moz"), (good, "moz")], client, SelectionState(), on_commit=results.append
        )
        assert [r.uri for r in accepted] == [good]
        assert results[0].reason == (
            """error: malformed rel="original": """
            "whitespace or control character in URI: 'not a uri'"
        )

    def test_method2_skips_a_timemap_whose_original_is_malformed(self, registry):
        collection = seed_collection(registry, "vefsafn.is", "http://www.w3.org/", ["20041020191800"])
        transport = FakeTransport()
        transport.add(
            "GET", "http://wayback.vefsafn.is/wayback/20041020191800id_/http://www.w3.org/", 200,
            body='<a href="http://bad.example/">b</a> <a href="http://good.example/">g</a>',
        )
        for found, original in (
            ("http://bad.example/", "not a uri"),
            ("http://good.example/", "http://good.example/"),
        ):
            body = multi_archive_timemap(original, ["wayback.vefsafn.is"])
            transport.add("GET", AGG_TEMPLATE.format(uri=found), 200, body=body)
        client = make_client(transport, registry)
        added = method2_expand(registry.get("vefsafn.is"), collection, client, min_urirs=3)
        assert [r.urir.uri for r in added] == ["http://good.example/"]
        assert ("GET", AGG_TEMPLATE.format(uri="http://bad.example/")) in transport.requests

    def test_bad_href_between_good_ones_is_skipped(self):
        html = (
            '<a href="http://one.example/">1</a>'
            f'<a href="{BAD_URI}">bad</a>'
            '<a href="/two">2</a>'
        )
        assert extract_urirs_from_html(html, "http://base.example/") == [
            "http://one.example/",
            "http://base.example/two",
        ]

    def test_timemap_with_malformed_urim_leaves_it_unattributed(self, registry):
        body = (
            '<http://a.com/>; rel="original",\n'
            f'<{BAD_URI}>; rel="memento"; datetime="Sat, 01 Jan 2000 00:00:00 GMT",\n'
            '<http://web.archive.org/web/20010101000000/http://a.com/>; rel="memento"; '
            'datetime="Mon, 01 Jan 2001 00:00:00 GMT"\n'
        )
        record = parse_timemap(body, registry=registry)
        assert [(m.urim, m.archive_id) for m in record.mementos] == [
            (BAD_URI, None),
            ("http://web.archive.org/web/20010101000000/http://a.com/", "web.archive.org"),
        ]


def urir_table(tmp_path, path_cell="s0", status_cell="200"):
    path = tmp_path / "urirs.tsv"
    row = ("http://a/", "a)/", "http://a/", path_cell, "moz", status_cell)
    path.write_text("\t".join(URIR_TABLE_HEADER) + "\n" + "\t".join(row) + "\n")
    return path


class TestStatsOnMalformedUrirTable:
    @pytest.mark.parametrize("cells", [{"path_cell": "s9"}, {"status_cell": "OK"}])
    def test_bad_cell_is_parse_error_with_line(self, tmp_path, cells):
        with pytest.raises(ParseError) as info:
            read_urir_table(urir_table(tmp_path, **cells))
        assert info.value.offset == 2

    @pytest.mark.parametrize("cells", [{"path_cell": "s9"}, {"status_cell": "OK"}])
    def test_stats_prints_error_and_exits_one(self, tmp_path, capsys, cells):
        manifest = tmp_path / "manifest.tsv"
        write_manifest([], manifest)
        code = main([
            "stats", "--manifest", str(manifest), "--urirs", str(urir_table(tmp_path, **cells)),
            "--out", str(tmp_path / "reports"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def test_a_moz_line_with_a_tab_is_rejected_and_the_urir_table_reads_back(
    tmp_path, monkeypatch, corpus_cadence
):
    uri = "http://a.example/x\ty"
    fixtures_dir = tmp_path / "fixtures"
    build_fixture_corpus(fixtures_dir)
    store = FixtureStore(fixtures_dir)  # the URI answers as an archived page would
    store.save("HEAD", uri, TransportResponse(200, {}, b""))
    body = linkformat(uri, [(f"http://{WAYBACK}/web", "20030101000000")])
    store.save("GET", AGG.format(uri=uri), TransportResponse(200, {}, body))
    config = RunConfig.from_file(write_config(tmp_path, fixtures_dir))
    config.moz_path.write_text(f"{uri}\n" + config.moz_path.read_text())
    sent = []
    request = FixtureTransport.request
    monkeypatch.setattr(
        FixtureTransport, "request",
        lambda self, method, target: sent.append(target) or request(self, method, target),
    )
    pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
    assert pipeline.run() == "done"
    assert [u for u in sent if "\t" in u] == []
    assert uri not in [r.uri for r in pipeline.accepted]
    assert read_urir_table(config.out_dir / "urirs.tsv") == pipeline.accepted
