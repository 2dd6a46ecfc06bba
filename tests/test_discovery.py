from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mementoset import (
    ArchiveClient,
    FetchPolicy,
    Memento,
    Provenance,
    TimeMapRecord,
    extract_urirs_from_html,
    ingest_published_list,
    interleave_sources,
    load_source_file,
    method2_expand,
    select_initial,
)
from mementoset.canonical import original_resource, surt
from mementoset.discovery import MementoCollection, SelectionState, embedded_urir
from mementoset.linkformat import TimeMapReducer
from mementoset.model import RawScheme, default_registry, raw_variant
from mockserver import FakeTransport
from reduction_reference import compact_record
from universe import AGG_TEMPLATE, brute_force_select, build_universe, install_universe, timemap_body

FIXED_NOW = datetime(2017, 11, 15, tzinfo=timezone.utc)


def make_client(transport, registry, **kwargs):
    policy = FetchPolicy(min_request_interval=0.0, retries=0, timeout=5.0)
    return ArchiveClient(
        registry, policy, transport, aggregator_template=AGG_TEMPLATE, **kwargs
    )


class TestInterleave:
    def test_toy_round_pattern(self):
        ha = [f"http://c{i}.com/" for i in range(1, 13)]
        wahr = {"#x": [f"http://d{i}.com/" for i in range(1, 13)]}
        stream = interleave_sources(["http://a.com/"], ["http://b.com/"], ha, wahr)
        uris = [u for u, _ in stream]
        expected = (
            ["http://a.com/", "http://b.com/"]
            + [f"http://c{i}.com/" for i in range(1, 11)]
            + [f"http://d{i}.com/" for i in range(1, 11)]
            + ["http://c11.com/", "http://c12.com/"]
            + ["http://d11.com/", "http://d12.com/"]
        )
        assert uris == expected

    def test_moz_leads(self):
        moz = [f"http://m{i}.com/" for i in range(30)]
        ha = [f"http://h{i}.com/" for i in range(100)]
        stream = interleave_sources(moz, [], ha, {})
        assert [u for u, _ in stream[:30]] == moz
        assert all(tag == "moz" for _, tag in stream[:30])

    def test_first_500_outputs_are_moz(self):
        moz = [f"http://top{i:03d}.com/" for i in range(500)]
        damage = [f"http://dmg{i}.com/" for i in range(40)]
        ha = [f"http://ha{i}.com/" for i in range(200)]
        wahr = {"#x": [f"http://wx{i}.com/" for i in range(200)]}
        stream = interleave_sources(moz, damage, ha, wahr)
        assert [u for u, _ in stream[:500]] == moz
        assert stream[500][1] == "memento-damage"

    def test_cross_source_dedup_first_wins(self):
        stream = interleave_sources(
            ["http://a.com/"], ["http://a.com/", "http://b.com/"],
            ["http://b.com/", "http://c.com/"], {"#x": ["http://c.com/", "http://d.com/"]},
        )
        assert [(u, t) for u, t in stream] == [
            ("http://a.com/", "moz"),
            ("http://b.com/", "memento-damage"),
            ("http://c.com/", "httparchive"),
            ("http://d.com/", "wahr:#x"),
        ]

    def test_hashtags_cycle_between_rounds(self):
        ha = [f"http://h{i}.com/" for i in range(20)]
        wahr = {
            "#one": [f"http://one{i}.com/" for i in range(15)],
            "#two": [f"http://two{i}.com/" for i in range(15)],
        }
        stream = interleave_sources([], [], ha, wahr)
        tags = [t for _, t in stream]
        # Round 1: 10 ha + 10 #one; round 2: 10 ha + 10 #two; then leftovers.
        assert tags[:20] == ["httparchive"] * 10 + ["wahr:#one"] * 10
        assert tags[20:40] == ["httparchive"] * 10 + ["wahr:#two"] * 10
        assert tags[40:] == ["wahr:#one"] * 5 + ["wahr:#two"] * 5

    def test_everything_emitted_once(self):
        moz = [f"http://m{i}.com/" for i in range(7)]
        ha = [f"http://h{i}.com/" for i in range(33)]
        wahr = {"#a": [f"http://wa{i}.com/" for i in range(21)],
                "#b": [f"http://wb{i}.com/" for i in range(4)]}
        stream = interleave_sources(moz, [], ha, wahr)
        uris = [u for u, _ in stream]
        assert len(uris) == len(set(uris)) == 7 + 33 + 21 + 4

    def test_every_key_is_a_hashtag(self):
        # A key that already reads "wahr:" is a hashtag too, so it cannot
        # share its tag with another key.
        stream = interleave_sources(
            [], [], [], {"#paris": ["http://a.com/", "http://b.com/"], "wahr:#paris": ["http://c.com/"]}
        )
        assert stream == [
            ("http://a.com/", "wahr:#paris"),
            ("http://b.com/", "wahr:#paris"),
            ("http://c.com/", "wahr:wahr:#paris"),
        ]


class TestLoadSourceFile(object):
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "moz.txt"
        path.write_text("# top sites\nhttp://a.com/\n\nhttp://b.com/\n")
        assert load_source_file(path) == ("http://a.com/", "http://b.com/")


class TestExtractUrirs:
    def test_fixture_page(self, raw_w3_html):
        links = extract_urirs_from_html(raw_w3_html, "http://www.w3.org/")
        assert len(links) == 138
        assert "http://www.inria.fr/" in links
        assert "http://www.google.com/" in links
        assert "http://www.w3.org/People/Raggett/tidy/" in links
        assert len(set(links)) == len(links)
        assert all(l.startswith(("http://", "https://")) for l in links)

    def test_document_order(self):
        html = '<a href="http://b.com/">B</a><a href="http://a.com/">A</a>'
        assert extract_urirs_from_html(html, "http://x/") == ["http://b.com/", "http://a.com/"]

    def test_img_links_ignored(self):
        html = '<img src="http://a.com/x.png"><link href="http://b.com/c.css">'
        assert extract_urirs_from_html(html, "http://x/") == []

    def test_relative_resolution(self):
        assert extract_urirs_from_html('<a href="/x">x</a>', "http://h/") == ["http://h/x"]

    # A document's <base href> is its base URI (HTML's frozen base URL): the
    # first <base> with an href, resolved against the stored URI-R.
    def test_an_absolute_base(self):
        html = b'<base href="http://b.org/dir/"><a href="x.html">x</a>'
        assert extract_urirs_from_html(html, "http://a.com/p/q.html") == ["http://b.org/dir/x.html"]

    def test_a_relative_base(self):
        html = '<head><base target="_top"><base href="../d/"></head><a href="x.html">x</a>'
        assert extract_urirs_from_html(html, "http://a.com/p/q.html") == ["http://a.com/d/x.html"]

    def test_a_base_after_the_links(self):
        html = ('<a href="x.html">x</a><a href="http://c.org/">c</a>'
                '<base href="http://b.org/dir/"><base href="http://e.org/">')
        assert extract_urirs_from_html(html, "http://a.com/p/q.html") == [
            "http://b.org/dir/x.html", "http://c.org/"
        ]

    def test_non_html_yields_nothing(self):
        assert extract_urirs_from_html(b"\x89PNG\r\n\x1a\n garbage", "http://h/") == []

    def test_mailto_and_javascript_dropped(self):
        html = '<a href="mailto:x@y">m</a><a href="javascript:f()">j</a>'
        assert extract_urirs_from_html(html, "http://h/") == []

    def test_unknown_marked_section_keeps_links_before_it(self):
        # html.parser raises AssertionError on an unknown marked-section keyword.
        html = "<a href='/y'><![bogus[ x ]]>"
        assert extract_urirs_from_html(html, "http://h/") == ["http://h/y"]

    @pytest.mark.parametrize("section", ["<![bogus[ x ]]>", "<![ [ x ]]>", "<![if !IE]>"])
    def test_links_after_a_marked_section_are_kept(self, section):
        html = f"<a href='/y'>{section}<a href='/z'>z</a>"
        assert extract_urirs_from_html(html, "http://h/") == ["http://h/y", "http://h/z"]


CAFE = '<a href="caf\u00e9.html">c</a>'
CAFE_LINK = ["http://a.com/caf\u00e9.html"]
HTML = {"Content-Type": "text/html"}


class TestPageEncodingAndBase:
    """A raw page is decoded by WHATWG HTML's sniffing, cut down (a BOM, the
    Content-Type charset, a <meta> charset in the first 1,024 bytes, then
    UTF-8 if it decodes strictly, else windows-1252), and its links resolve
    against its Link: rel="original" when the response carries one."""

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])  # utf-16 writes its BOM
    def test_a_bom(self, encoding):
        page = CAFE.encode(encoding)
        declared = {"Content-Type": "text/html; charset=iso-8859-1"}  # a BOM wins over it
        assert extract_urirs_from_html(page, "http://a.com/", declared) == CAFE_LINK

    def test_the_content_type_charset(self):
        page = CAFE.encode("latin-1")
        declared = {"content-type": 'text/html; Charset="ISO-8859-1"'}
        assert extract_urirs_from_html(page, "http://a.com/", declared) == CAFE_LINK

    @pytest.mark.parametrize("meta", [
        '<meta charset="iso-8859-1">',
        "<META http-equiv='Content-Type' content='text/html; charset=windows-1252'>",
    ])
    def test_a_meta_charset_in_the_first_1024_bytes(self, meta):
        page = (meta + CAFE).encode("latin-1")
        assert extract_urirs_from_html(page, "http://a.com/", HTML) == CAFE_LINK

    def test_a_meta_charset_past_the_first_1024_bytes_is_not_read(self):
        page = (" " * 1024 + '<meta charset="koi8-r">' + CAFE).encode("latin-1")
        assert extract_urirs_from_html(page, "http://a.com/", HTML) == CAFE_LINK  # windows-1252
        assert extract_urirs_from_html(page[1024:], "http://a.com/", HTML) != CAFE_LINK

    def test_utf8_when_it_decodes_strictly(self):
        page = CAFE.encode("utf-8")
        assert extract_urirs_from_html(page, "http://a.com/", HTML) == CAFE_LINK

    def test_windows_1252_when_utf8_does_not_decode(self):
        page = '<a href="\u201cq\u201d.html">q</a>'.encode("windows-1252")
        assert extract_urirs_from_html(page, "http://a.com/") == ["http://a.com/\u201cq\u201d.html"]

    @pytest.mark.parametrize("label", ["x-no-such-charset", "base64", "idna", ""])
    def test_an_unknown_label_falls_through_to_the_next_step(self, label):
        page = ('<meta charset="iso-8859-1">' + CAFE).encode("latin-1")
        declared = {"Content-Type": f"text/html; charset={label}"}
        assert extract_urirs_from_html(page, "http://a.com/", declared) == CAFE_LINK

    def test_a_wrong_declared_charset_is_obeyed(self):
        page = ('<meta charset="windows-1252">' + CAFE).encode("utf-8")
        assert extract_urirs_from_html(page, "http://a.com/", HTML) == ["http://a.com/caf\u00c3\u00a9.html"]

    def test_the_link_header_original_is_the_base(self):
        headers = {"Link": '<http://b.org/d/p.html>; rel="original", '
                           '<http://b.org/tm>; rel="timemap"; type="application/link-format"'}
        page = b'<a href="x.html">x</a>'
        assert extract_urirs_from_html(page, "http://a.com/", headers) == ["http://b.org/d/x.html"]
        page = b'<base href="../e/"><a href="x.html">x</a>'  # resolved against it
        assert extract_urirs_from_html(page, "http://a.com/", headers) == ["http://b.org/e/x.html"]

    @pytest.mark.parametrize("link", ['<http://b.org/>; rel="timemap"', "not link-format", ""])
    def test_a_link_header_without_an_original_leaves_the_base(self, link):
        headers = {"Link": link, "Content-Type": "text/html"}
        assert extract_urirs_from_html(b'<a href="x.html">x</a>', "http://a.com/", headers) == [
            "http://a.com/x.html"
        ]

    def test_method2_reads_the_raw_responses_charset_and_original(self, registry):
        urir = "http://www.w3.org/"
        collection = seed_collection(registry, "vefsafn.is", urir, ["20041020191800"])
        transport = FakeTransport()
        raw_urim = "http://wayback.vefsafn.is/wayback/20041020191800id_/http://www.w3.org/"
        headers = {
            "Memento-Datetime": "Wed, 20 Oct 2004 19:18:00 GMT",
            "Content-Type": "text/html; charset=iso-8859-1",
            "Link": '<http://www.w3.org/Style/>; rel="original"',
        }
        transport.add("GET", raw_urim, 200, headers, CAFE.encode("latin-1"))
        found = "http://www.w3.org/Style/caf\u00e9.html"
        transport.add("GET", AGG_TEMPLATE.format(uri=found), 200,
                      body=multi_archive_timemap(found, ["wayback.vefsafn.is"]))
        client = make_client(transport, registry)
        added = method2_expand(client.registry.get("vefsafn.is"), collection, client, min_urirs=2)
        assert [r.urir.uri for r in added] == [found]
        assert transport.requests == [("GET", raw_urim), ("GET", AGG_TEMPLATE.format(uri=found))]


def keep_accepted(records):
    """An ``on_commit`` callback that appends each accepted candidate's record."""

    def commit(result):
        if result.accepted is not None:
            records.append(result.record)

    return commit


class TestSelectInitial:
    def test_matches_brute_force_on_planted_stream(self, registry):
        universe = build_universe(seed=1213, n=240)
        transport = FakeTransport()
        install_universe(universe, transport.add)
        client = make_client(transport, registry)
        state = SelectionState(quota_per_bucket=12)
        records = []
        accepted = select_initial(
            universe.candidates, client, state, target=60, on_commit=keep_accepted(records)
        )
        expected = brute_force_select(universe, quota=12, target=60)
        assert [(r.uri, r.canonical_key, r.path_bucket.value) for r in accepted] == expected
        assert len(records) == len(accepted)
        # Conditions hold over the output.
        keys = [r.canonical_key for r in accepted]
        assert len(keys) == len(set(keys))
        per_bucket_domains = {}
        for r in accepted:
            domains = per_bucket_domains.setdefault(r.path_bucket, set())
            from mementoset.canonical import registrable_domain

            domain = registrable_domain(r.final_uri)
            assert domain not in domains
            domains.add(domain)

    def test_quota_reached_exactly_when_feasible(self, registry):
        # Plenty of distinct s0 candidates with non-empty TimeMaps.
        transport = FakeTransport()
        candidates = []
        for i in range(40):
            uri = f"http://q{i:02d}.com/"
            transport.add("HEAD", uri, 200)
            transport.add(
                "GET", AGG_TEMPLATE.format(uri=uri), 200, body=timemap_body(uri, 1)
            )
            candidates.append((uri, "moz"))
        client = make_client(transport, registry)
        state = SelectionState(quota_per_bucket=15)
        accepted = select_initial(candidates, client, state, target=1000)
        assert state.bucket_counts[accepted[0].path_bucket] == 15
        assert len(accepted) == 15

    def test_domain_reuse_rejected_within_bucket(self, registry):
        transport = FakeTransport()
        first = "http://www.youtube.com/watch1"
        second = "http://www.youtube.com/watch2"
        for uri in (first, second):
            transport.add("HEAD", uri, 200)
            transport.add(
                "GET", AGG_TEMPLATE.format(uri=uri), 200, body=timemap_body(uri, 2)
            )
        client = make_client(transport, registry)
        accepted = select_initial(
            [(first, "moz"), (second, "moz")], client, SelectionState(quota_per_bucket=10)
        )
        assert [r.uri for r in accepted] == [first]

    def test_empty_timemap_rejected(self, registry):
        transport = FakeTransport()
        uri = "http://nohistory.com/"
        transport.add("HEAD", uri, 200)
        transport.add("GET", AGG_TEMPLATE.format(uri=uri), 404, body=b"")
        client = make_client(transport, registry)
        accepted = select_initial([(uri, "moz")], client, SelectionState())
        assert accepted == []

    def test_network_error_skips_candidate(self, registry):
        transport = FakeTransport()
        good = "http://alive.com/"
        transport.add("HEAD", good, 200)
        transport.add("GET", AGG_TEMPLATE.format(uri=good), 200, body=timemap_body(good, 1))
        client = make_client(transport, registry)
        accepted = select_initial(
            [("http://dead.example/", "moz"), (good, "moz")], client, SelectionState()
        )
        assert [r.uri for r in accepted] == [good]

    def test_live_status_and_source_recorded(self, registry):
        transport = FakeTransport()
        start = "http://moved.com/"
        final = "https://target.com/"
        transport.add("HEAD", start, 301, {"Location": final})
        transport.add("HEAD", final, 200)
        transport.add("GET", AGG_TEMPLATE.format(uri=final), 200, body=timemap_body(final, 1))
        client = make_client(transport, registry)
        accepted = select_initial([(start, "wahr:#paris")], client, SelectionState())
        (resource,) = accepted
        assert resource.uri == start
        assert resource.final_uri == final
        assert resource.live_status == 200
        assert resource.source == "wahr:#paris"

    def test_a_spelling_that_redirects_to_an_accepted_urir_is_a_duplicate(self, registry):
        transport = FakeTransport()
        final = "https://www.facebook.com/"
        transport.add("HEAD", final, 200)
        transport.add("HEAD", "http://www.fb.com/", 301, {"Location": final})
        transport.add("GET", AGG_TEMPLATE.format(uri=final), 200, body=timemap_body(final, 1))
        results = []
        accepted = select_initial(
            [(final, "moz"), ("http://www.fb.com/", "moz")], make_client(transport, registry),
            SelectionState(), on_commit=results.append,
        )
        assert [r.uri for r in accepted] == [final]
        assert [r.reason for r in results] == ["accepted", "duplicate resource"]
        assert results[1].record is None
        # The second spelling's redirect is followed; its TimeMap is not asked for.
        assert transport.requests.count(("GET", AGG_TEMPLATE.format(uri=final))) == 1

    @pytest.mark.parametrize("candidate, absolute", [
        ("www.example.com", "http://www.example.com"),
        ("example.com", "http://example.com"),
        ("//example.com/x", "http://example.com/x"),
        ("example.com:8080/x", "http://example.com:8080/x"),
    ])
    def test_a_bare_host_is_requested_in_the_absolute_form_it_is_keyed_by(
        self, registry, candidate, absolute
    ):
        transport = FakeTransport()
        transport.add("HEAD", absolute, 200)
        transport.add("GET", AGG_TEMPLATE.format(uri=absolute), 200, body=timemap_body(absolute, 1))
        accepted = select_initial(
            [(candidate, "moz")], make_client(transport, registry), SelectionState()
        )
        assert transport.requests == [("HEAD", absolute), ("GET", AGG_TEMPLATE.format(uri=absolute))]
        (resource,) = accepted
        assert (resource.uri, resource.final_uri) == (candidate, absolute)
        assert resource.canonical_key == surt(candidate) == surt(absolute)

    @pytest.mark.parametrize("location, reason", [
        ("http://a.example/x y", "whitespace or control character in URI"),
        ("http://a.example/x\u2028y", "whitespace or control character in URI"),
        ("ftp://files.example/x", "not an absolute http(s) URI"),
        ("http://a..example/x", "not an absolute http(s) URI"),
    ])
    def test_a_location_the_crawler_refuses_is_never_requested(self, registry, location, reason):
        transport = FakeTransport()
        start = "http://a.example/"
        transport.add("HEAD", start, 301, {"Location": location})
        results = []
        select_initial(
            [(start, "moz")], make_client(transport, registry), SelectionState(),
            on_commit=results.append,
        )
        assert transport.requests == [("HEAD", start)]
        (result,) = results
        assert result.accepted is None
        assert result.reason == f"error: {reason}: {location!r}"

    def test_original_keyed_differently_is_rekeyed(self, registry):
        # The aggregator names the URI-R with a trailing slash the candidate lacks.
        transport = FakeTransport()
        uri = "http://a.example/x"
        transport.add("HEAD", uri, 200)
        transport.add("GET", AGG_TEMPLATE.format(uri=uri), 200,
                      body=timemap_body("http://a.example/x/", 2))
        records = []
        accepted = select_initial(
            [(uri, "moz")], make_client(transport, registry), SelectionState(),
            on_commit=keep_accepted(records),
        )
        assert [r.uri for r in accepted] == [uri]
        (record,) = records
        assert record.urir == accepted[0]
        assert len(record.mementos) == 2
        assert {m.urir_key for m in record.mementos} == {"example,a)/x"}


TALLY_HOSTS = ("web.archive.org", "perma.cc", "arquivo.pt", "vefsafn.is")
# (URI-R number, [(host number, year)]): one record to add.
ADDS = st.lists(
    st.tuples(st.integers(0, 2), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5)),
    max_size=10,
)


class TestCollectionTallies:
    @given(ADDS)
    # The same URI-R at the Internet Archive and Perma.cc, then at the
    # Internet Archive alone: Perma.cc holds it no more.
    @example([(0, [(0, 0), (1, 0)]), (0, [(0, 0)])])
    def test_totals_are_a_recount_of_the_records(self, adds):
        registry = default_registry()
        collection = MementoCollection()
        for u, mementos in adds:
            urir = f"http://u{u}.example/"
            pairs = [
                (datetime(2000 + year, 1, 1, tzinfo=timezone.utc),
                 f"http://{TALLY_HOSTS[h]}/web/{2000 + year}0101000000/{urir}")
                for h, year in mementos
            ]
            collection.add(compact_record(pairs, urir, registry))
        urims = Counter(m.archive_id for r in collection.records() for m in r.mementos)
        urirs = Counter(
            a for r in collection.records() for a in {m.archive_id for m in r.mementos}
        )
        assert collection.totals() == {a: (urims[a], urirs[a]) for a in urims}
        for archive_id in TALLY_HOSTS:
            assert collection.urir_count(archive_id) == urirs[archive_id]


def seed_collection(registry, archive_id, urir, stamps):
    """Collection holding one record with mementos in the given archive."""
    collection = MementoCollection()
    resource = original_resource(urir)
    archive = registry.get(archive_id)
    host = archive.domains[0]
    mementos = tuple(
        Memento(
            urim=f"http://wayback.{host}/wayback/{stamp}/{urir}",
            memento_datetime=datetime.strptime(stamp, "%Y%m%d%H%M%S").replace(
                tzinfo=timezone.utc
            ),
            urir_key=resource.canonical_key,
            archive_id=archive_id,
        )
        for stamp in stamps
    )
    record = TimeMapRecord(resource, mementos, FIXED_NOW, Provenance.AGGREGATOR)
    collection.add(record)
    return collection


def multi_archive_timemap(urir, archives_hosts, year0=2005):
    members = [f'<{urir}>; rel="original"']
    from email.utils import format_datetime

    for j, host in enumerate(archives_hosts):
        dt = datetime(year0 + j, 5, 4, 3, 2, 1, tzinfo=timezone.utc)
        stamp = dt.strftime("%Y%m%d%H%M%S")
        members.append(
            f'<http://{host}/web/{stamp}/{urir}>; rel="memento"; '
            f'datetime="{format_datetime(dt, usegmt=True)}"'
        )
    return (",\n".join(members) + "\n").encode()


class TestMethod2:
    def build(self, registry, n_links=8, empty_after=None):
        urir = "http://www.w3.org/"
        collection = seed_collection(registry, "vefsafn.is", urir, ["20041020191800"])
        transport = FakeTransport()
        raw_urim = "http://wayback.vefsafn.is/wayback/20041020191800id_/http://www.w3.org/"
        hrefs = "".join(
            f'<a href="http://found{i}.example/">l</a>' for i in range(n_links)
        )
        transport.add(
            "GET", raw_urim, 200,
            {"Memento-Datetime": "Wed, 20 Oct 2004 19:18:00 GMT"},
            f"<html><body>{hrefs}</body></html>",
        )
        for i in range(n_links):
            found = f"http://found{i}.example/"
            agg = AGG_TEMPLATE.format(uri=found)
            if empty_after is not None and i >= empty_after:
                transport.add("GET", agg, 404, body=b"")
            else:
                transport.add(
                    "GET", agg, 200,
                    body=multi_archive_timemap(
                        found, ["wayback.vefsafn.is", "veebiarhiiv.digar.ee"]
                    ),
                )
        client = make_client(transport, registry)
        return collection, client

    def test_target_reaches_minimum_and_side_effects(self, registry):
        collection, client = self.build(registry)
        vefsafn = client.registry.get("vefsafn.is")
        assert collection.urir_count("digar.ee") == 0
        added = method2_expand(vefsafn, collection, client, min_urirs=4)
        assert collection.urir_count("vefsafn.is") == 4
        # Each pulled TimeMap also grew the other archive.
        assert collection.urir_count("digar.ee") == 3
        assert len(added) == 3

    def test_noop_when_already_satisfied(self, registry):
        collection, client = self.build(registry)
        vefsafn = client.registry.get("vefsafn.is")
        assert method2_expand(vefsafn, collection, client, min_urirs=1) == []

    def test_never_archived_links_add_nothing(self, registry):
        collection, client = self.build(registry, n_links=4, empty_after=0)
        vefsafn = client.registry.get("vefsafn.is")
        added = method2_expand(vefsafn, collection, client, min_urirs=10)
        assert added == []
        assert collection.urir_count("vefsafn.is") == 1

    def test_memento_downloaded_before_is_skipped(self, registry, caplog):
        collection, client = self.build(registry)
        (memento,) = collection.mementos_of("vefsafn.is")
        client.fetch_raw_memento(memento)
        sent = len(client.transport.requests)
        with caplog.at_level("INFO", logger="mementoset.discovery"):
            added = method2_expand(client.registry.get("vefsafn.is"), collection, client, min_urirs=4)
        assert added == []
        assert len(client.transport.requests) == sent == 1
        assert "were read at its first download" in caplog.text

    def test_counts_monotone(self, registry):
        collection, client = self.build(registry)
        before = dict(collection.totals())
        method2_expand(client.registry.get("vefsafn.is"), collection, client, min_urirs=3)
        after = collection.totals()
        for archive_id, (urims, urirs) in before.items():
            assert after[archive_id][0] >= urims
            assert after[archive_id][1] >= urirs


class TestIngestPublishedList:
    def test_urirs_only_screened_and_capped(self, registry, tmp_path):
        ukwa = registry.get("webarchive.org.uk")
        uris = [f"http://uk{i}.example/" for i in range(6)]
        listing = tmp_path / "ukwa.txt"
        listing.write_text("# published list\n" + "\n".join(uris) + "\n")
        transport = FakeTransport()
        for i, uri in enumerate(uris):
            agg = AGG_TEMPLATE.format(uri=uri)
            if i == 2:
                # No memento in the owning archive: must be skipped.
                transport.add("GET", agg, 200, body=multi_archive_timemap(uri, ["web.archive.org"]))
            elif i == 3:
                transport.add("GET", agg, 404, body=b"")
            else:
                transport.add(
                    "GET", agg, 200,
                    body=multi_archive_timemap(uri, ["www.webarchive.org.uk", "web.archive.org"]),
                )
        client = make_client(transport, registry)
        collection = MementoCollection()
        added = ingest_published_list(
            listing, "urirs_only", ukwa, collection, client, min_urirs=3
        )
        assert [r.urir.uri for r in added] == [uris[0], uris[1], uris[4]]
        assert collection.urir_count("webarchive.org.uk") == 3
        # The screened-out TimeMap was not ingested for anyone.
        assert collection.urir_count("web.archive.org") == 3

    def test_line_that_is_not_a_uri_is_skipped_without_a_request(self, registry, tmp_path):
        listing = tmp_path / "ukwa.txt"
        uri = "http://uk0.example/"
        listing.write_text(f"not a uri\n{uri}\n")
        transport = FakeTransport()
        agg = AGG_TEMPLATE.format(uri=uri)
        transport.add("GET", agg, 200, body=multi_archive_timemap(uri, ["www.webarchive.org.uk"]))
        added = ingest_published_list(
            listing, "urirs_only", registry.get("webarchive.org.uk"),
            MementoCollection(), make_client(transport, registry), min_urirs=10,
        )
        assert [r.urir.uri for r in added] == [uri]
        assert transport.requests == [("GET", agg)]

    def test_a_key_is_asked_for_once_per_list(self, registry, tmp_path):
        spellings = ["http://example.com/", "https://www.example.com/", "http://www.example.com/"]
        listing = tmp_path / "list.txt"
        listing.write_text("\n".join(spellings) + "\n")
        transport = FakeTransport()
        for uri in spellings:
            body = multi_archive_timemap(uri, ["web.archive.org"])
            transport.add("GET", AGG_TEMPLATE.format(uri=uri), 200, body=body)
        client = make_client(transport, registry)
        collection = MementoCollection()
        first = [("GET", AGG_TEMPLATE.format(uri=spellings[0]))]
        # The first lookup adds nothing for perma.cc; the other spellings'
        # key has been tried.
        perma = registry.get("perma.cc")
        assert ingest_published_list(listing, "urirs_only", perma, collection, client, 10) == []
        assert transport.requests == first
        assert len(collection) == 0
        # The first lookup adds a record; the other spellings' key is stored.
        transport.requests.clear()
        wayback = registry.get("web.archive.org")
        added = ingest_published_list(listing, "urirs_only", wayback, collection, client, 10)
        assert [r.urir.uri for r in added] == spellings[:1]
        assert transport.requests == first

    def test_owning_archive_is_read_in_the_timemap_not_the_stored_record(
        self, registry, tmp_path
    ):
        # The TimeMap names another URI-R, stored with a vefsafn.is memento,
        # but lists none of vefsafn.is: the list's line adds nothing.
        stored = "http://b.example/"
        collection = seed_collection(registry, "vefsafn.is", stored, ["20041020191800"])
        transport = FakeTransport()
        body = multi_archive_timemap(stored, ["web.archive.org"])
        transport.add("GET", AGG_TEMPLATE.format(uri="http://a.example/"), 200, body=body)
        listing = tmp_path / "list.txt"
        listing.write_text("http://a.example/\n")
        vefsafn = registry.get("vefsafn.is")
        client = make_client(transport, registry)
        assert ingest_published_list(listing, "urirs_only", vefsafn, collection, client, 10) == []
        assert collection.totals() == {"vefsafn.is": (1, 1)}

    def test_urirs_and_urims_built_directly(self, registry, tmp_path):
        canada = registry.get("collectionscanada.gc.ca")
        listing = tmp_path / "canada.txt"
        listing.write_text(
            "20050101000000 http://www.collectionscanada.gc.ca/webarchives/20050101000000/http://site-a.ca/\n"
            "20060101000000 http://www.collectionscanada.gc.ca/webarchives/20060101000000/http://site-a.ca/\n"
            "not a compact line\n"
            "20060501000000 http://www.collectionscanada.gc.ca/webarchives/20060501000000/http://site-b.ca/\n"
        )
        client = make_client(FakeTransport(), registry)
        collection = MementoCollection()
        added = ingest_published_list(
            listing, "urirs_and_urims", canada, collection, client, min_urirs=10
        )
        assert [r.urir.uri for r in added] == ["http://site-a.ca/", "http://site-b.ca/"]
        assert collection.urir_count("collectionscanada.gc.ca") == 2
        assert collection.urim_count("collectionscanada.gc.ca") == 3
        assert all(r.provenance is Provenance.PUBLISHED_LIST for r in added)

    def test_one_slash_scheme_groups_with_its_urir(self, registry, tmp_path):
        canada = registry.get("collectionscanada.gc.ca")
        listing = tmp_path / "canada.txt"
        listing.write_text(
            "20050101000000 http://www.collectionscanada.gc.ca/webarchives/20050101000000/http://site-a.ca/x\n"
            "20060101000000 http://www.collectionscanada.gc.ca/webarchives/20060101000000/http:/site-a.ca/x\n"
        )
        collection = MementoCollection()
        added = ingest_published_list(
            listing, "urirs_and_urims", canada, collection, make_client(FakeTransport(), registry),
            min_urirs=10,
        )
        assert [r.urir.uri for r in added] == ["http://site-a.ca/x"]
        assert len(collection) == 1
        assert collection.urim_count("collectionscanada.gc.ca") == 2

    def test_a_urim_modified_after_its_stamp_is_skipped(self, registry, tmp_path, caplog):
        listing = tmp_path / "ia.txt"
        listing.write_text(
            "20010101000000 http://web.archive.org/web/20010101000000im_/http://a.com/20020202020202/x.png\n"
            "20010101000000 http://web.archive.org/web/20010101000000/http://a.com/\n"
        )
        collection = MementoCollection()
        with caplog.at_level("INFO", logger="mementoset.discovery"):
            added = ingest_published_list(
                listing, "urirs_and_urims", registry.get("web.archive.org"), collection,
                make_client(FakeTransport(), registry), min_urirs=10,
            )
        assert [r.urir.uri for r in added] == ["http://a.com/"]
        assert collection.urim_count("web.archive.org") == 1
        assert "line 1 skipped: no URI-R embedded in" in caplog.text

    def test_stops_at_minimum(self, registry, tmp_path):
        canada = registry.get("collectionscanada.gc.ca")
        lines = [
            f"2005010100000{i} http://www.collectionscanada.gc.ca/webarchives/2005010100000{i}/http://s{i}.ca/"
            for i in range(5)
        ]
        listing = tmp_path / "canada.txt"
        listing.write_text("\n".join(lines) + "\n")
        client = make_client(FakeTransport(), registry)
        collection = MementoCollection()
        added = ingest_published_list(
            listing, "urirs_and_urims", canada, collection, client, min_urirs=2
        )
        assert len(added) == 2

    def test_empty_file(self, registry, tmp_path):
        listing = tmp_path / "empty.txt"
        listing.write_text("")
        client = make_client(FakeTransport(), registry)
        added = ingest_published_list(
            listing, "urirs_only", registry.get("perma.cc"), MementoCollection(), client, 10
        )
        assert added == []

    def test_unknown_format_rejected(self, registry, tmp_path):
        listing = tmp_path / "x.txt"
        listing.write_text("")
        client = make_client(FakeTransport(), registry)
        with pytest.raises(ValueError):
            ingest_published_list(
                listing, "nope", registry.get("perma.cc"), MementoCollection(), client, 10
            )


class TestEmbeddedUrir:
    @pytest.mark.parametrize(
        "urim, urir",
        [
            ("http://web.archive.org/web/20100101000000/http://example.com/a", "http://example.com/a"),
            ("http://web.archive.org/web/20100101000000/http:/example.com/a", "http://example.com/a"),
            ("http://web.archive.org/web/20100101000000id_/HTTPS:/example.com/a", "HTTPS://example.com/a"),
            ("http://web.archive.org/web/20100101000000/example.com/a", "http://example.com/a"),
            ("http://web.archive.org/web/2010/http://example.com/a", None),
            ("http://web.archive.org/web/2010010100000\u0663/http://example.com/a", None),
            ("http://web.archive.org/web/20010101000000im_/http://a.com/20020202020202/x.png", None),
            ("http://web.archive.org/web/20010101000000*/http://a.com/20020202020202/x.png", None),
        ],
    )
    def test_urir_after_the_timestamp(self, urim, urir):
        assert embedded_urir(urim) == urir


# A path segment: a 14-digit run, or letters and digits that may run longer.
_SEGMENTS = st.one_of(st.text("0123456789", min_size=14, max_size=14), st.text("ab0123456789._-"))


@given(
    stamp=st.text("0123456789", min_size=14, max_size=14),
    modifier=st.sampled_from(["", "id_", "im_", "*"]),
    path=st.lists(_SEGMENTS, max_size=4).map("/".join),
)
@example(stamp="20010101000000", modifier="im_", path="20020202020202/x.png")
@example(stamp="20010101000000", modifier="*", path="20020202020202/x.png")
def test_raw_downloads_published_lists_and_the_reducer_use_one_stamp(stamp, modifier, path):
    head, urir = "http://web.archive.org/web", f"http://a.com/{path}"
    urim = f"{head}/{stamp}{modifier}/{urir}"
    raw = raw_variant(urim, RawScheme.WAYBACK_ID_SUFFIX)
    assert raw == (f"{head}/{stamp}id_/{urir}" if modifier == "" else None)
    assert embedded_urir(urim) == (urir if modifier in ("", "id_") else None)
    reducer = TimeMapReducer(default_registry())
    assert reducer._first(urim)
    assert list(reducer._pairs) == [(head, f"{modifier}/{urir}")]
    assert list(reducer._stamps[0]) == [int(stamp)]
