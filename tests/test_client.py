import errno
import re
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mementoset import (
    ArchiveClient,
    ArchiveRegistry,
    Classification,
    EmptyTimeMap,
    FetchPolicy,
    FixtureStore,
    FixtureTransport,
    Memento,
    NetworkError,
    NoTimeMapEndpoint,
    PermanentNetworkError,
    Provenance,
    RawAccessUnsupported,
    RecordingTransport,
    default_registry,
)
from mementoset.client import TransportResponse
from mementoset.model import RawScheme, raw_variant
from mockserver import FakeTransport, Route

AGG = "http://aggregator.test/timemap/link/{uri}"
MD_2004 = {"Memento-Datetime": "Wed, 20 Oct 2004 19:18:00 GMT"}


def raw_of(memento):
    """The raw URI-M of a Wayback-style memento: ``id_`` after its stamp."""
    return re.sub(r"/(\d{14})/", r"/\1id_/", memento.urim, count=1)


def make_client(transport, registry, interval=0.0, retries=3):
    policy = FetchPolicy(min_request_interval=interval, retries=retries, timeout=5.0)
    return ArchiveClient(registry, policy, transport, aggregator_template=AGG)


class TestAggregatorFetch:
    def test_cnn_fixture_replay(self, cnn_timemap, registry):
        transport = FakeTransport()
        urir = "http://www.cnn.com"
        transport.add("GET", AGG.format(uri=urir), 200, body=cnn_timemap)
        client = make_client(transport, registry)
        record = client.fetch_timemap_aggregator(urir)
        # Oracle: the fixture's hand-read contents.
        assert record.provenance is Provenance.AGGREGATOR
        assert record.urir.uri == "http://cnn.com:80/"
        assert [m.urim for m in record.mementos] == [
            "http://web.archive.org/web/20000620180259/http://cnn.com:80/"
        ] * 3
        assert record.mementos[0].memento_datetime == datetime(
            2000, 6, 20, 18, 2, 59, tzinfo=timezone.utc
        )

    def test_aggregated_record_spans_archives(self, inria_timemap, registry):
        transport = FakeTransport()
        urir = "http://www.inria.fr/"
        transport.add("GET", AGG.format(uri=urir), 200, body=inria_timemap)
        client = make_client(transport, registry)
        record = client.fetch_timemap_aggregator(urir)
        archives = {m.archive_id for m in record.mementos}
        assert len(archives) >= 2
        assert "vefsafn.is" in archives and "digar.ee" in archives
        assert any(
            m.archive_id == "arquivo.pt" and "/19961013190926/" in m.urim
            for m in record.mementos
        )

    def test_unknown_uri_is_empty(self, registry):
        transport = FakeTransport()
        urir = "http://never-archived.example/"
        transport.add("GET", AGG.format(uri=urir), 404, body=b"not found")
        client = make_client(transport, registry)
        with pytest.raises(EmptyTimeMap):
            client.fetch_timemap_aggregator(urir)

    def test_zero_memento_body_is_empty(self, registry):
        transport = FakeTransport()
        urir = "http://only-links.example/"
        transport.add(
            "GET", AGG.format(uri=urir), 200,
            body=b'<http://only-links.example/>; rel="original"',
        )
        client = make_client(transport, registry)
        with pytest.raises(EmptyTimeMap):
            client.fetch_timemap_aggregator(urir)

    def test_multipart_following_and_termination(self, registry):
        urir = "http://paged.example/"
        page1 = (
            '<http://paged.example/>; rel="original",\n'
            '<http://agg.test/page2>; rel="timemap"; type="application/link-format",\n'
            '<http://web.archive.org/web/20000101000000/http://paged.example/>; '
            'rel="memento"; datetime="Sat, 01 Jan 2000 00:00:00 GMT"'
        )
        page2 = (
            # Cycle back to page 1: the visited set must stop the walk.
            f'<{AGG.format(uri=urir)}>; rel="timemap"; type="application/link-format",\n'
            '<http://web.archive.org/web/20010101000000/http://paged.example/>; '
            'rel="memento"; datetime="Mon, 01 Jan 2001 00:00:00 GMT"'
        )
        transport = FakeTransport()
        transport.add("GET", AGG.format(uri=urir), 200, body=page1)
        transport.add("GET", "http://agg.test/page2", 200, body=page2)
        client = make_client(transport, registry)
        record = client.fetch_timemap_aggregator(urir)
        assert len(record.mementos) == 2
        # Each page fetched exactly once.
        gets = [u for (m, u) in transport.requests if m == "GET"]
        assert len(gets) == len(set(gets)) == 2

    def test_page_chain_is_bounded(self, registry):
        from mementoset.client import MAX_TIMEMAP_PAGES

        urir = "http://endless.example/"
        transport = FakeTransport()
        pages = [AGG.format(uri=urir)] + [
            f"http://agg.test/page{i}" for i in range(1, MAX_TIMEMAP_PAGES + 5)
        ]
        for i, (uri, following) in enumerate(zip(pages, pages[1:] + ["http://agg.test/end"])):
            body = f'<{following}>; rel="timemap"; type="application/link-format"'
            if i == 0:
                body += (
                    ',\n<http://web.archive.org/web/20000101000000/http://endless.example/>; '
                    'rel="memento"; datetime="Sat, 01 Jan 2000 00:00:00 GMT"'
                )
            transport.add("GET", uri, 200, body=body)
        transport.add("GET", "http://agg.test/end", 404)
        client = make_client(transport, registry)
        with pytest.raises(NetworkError, match="TimeMap pages"):
            client.fetch_timemap_aggregator(urir)
        assert len(transport.requests) == MAX_TIMEMAP_PAGES

    def test_endpoint_needs_placeholder(self, registry):
        # Checked when the client is built, before any request.
        transport = FakeTransport()
        policy = FetchPolicy(min_request_interval=0.0, retries=0, timeout=5.0)
        for template in [
            "http://agg.test/fixed",
            "http://agg.test/{uri}/{x}",
            "http://agg.test/{uri}/{uri}",
            "http://agg.test/{}",
            "http://agg.test/{uri!r}",
            "http://agg.test/{",
        ]:
            with pytest.raises(ValueError, match="one field"):
                ArchiveClient(registry, policy, transport, aggregator_template=template)
        assert transport.requests == []

    def test_server_error_raises_network_error(self, registry):
        transport = FakeTransport()
        urir = "http://flaky.example/"
        transport.add("GET", AGG.format(uri=urir), 500, body=b"boom")
        client = make_client(transport, registry)
        with pytest.raises(NetworkError):
            client.fetch_timemap_aggregator(urir)


class TestDirectFetch:
    def test_perma_fixture(self, perma_timemap, registry):
        perma = registry.get("perma.cc")
        urir = "http://www.whitehouse.gov/"
        transport = FakeTransport()
        transport.add("GET", perma.timemap_template.format(uri=urir), 200, body=perma_timemap)
        client = make_client(transport, registry)
        record = client.fetch_timemap_direct(perma, urir)
        assert len(record.mementos) == 57
        assert record.provenance is Provenance.DIRECT_ARCHIVE
        assert all(m.archive_id == "perma.cc" for m in record.mementos)
        assert all("id_/" in raw_of(m) for m in record.mementos)

    def test_non_native_archive_refused(self, registry):
        webcite = registry.get("webcitation.org")
        client = make_client(FakeTransport(), registry)
        with pytest.raises(NoTimeMapEndpoint):
            client.fetch_timemap_direct(webcite, "http://x/")

    def test_native_without_template_refused(self, registry):
        arquivo = registry.get("arquivo.pt")
        assert arquivo.memento_native and arquivo.timemap_template is None
        client = make_client(FakeTransport(), registry)
        with pytest.raises(NoTimeMapEndpoint):
            client.fetch_timemap_direct(arquivo, "http://x/")

    def test_single_memento_record(self, registry):
        perma = registry.get("perma.cc")
        urir = "http://solo.example/"
        body = (
            '<http://solo.example/>; rel="original",\n'
            '<https://perma-archives.org/warc/20150827171418/http://solo.example/>; '
            'rel="memento"; datetime="Thu, 27 Aug 2015 17:14:18 GMT"'
        )
        transport = FakeTransport()
        transport.add("GET", perma.timemap_template.format(uri=urir), 200, body=body)
        client = make_client(transport, registry)
        record = client.fetch_timemap_direct(perma, urir)
        assert len(record.mementos) == 1


W3_2004 = "http://wayback.vefsafn.is/wayback/20041020191800/http://www.w3.org/"


def vefsafn_memento(registry):
    return Memento(
        urim=W3_2004,
        memento_datetime=datetime(2004, 10, 20, 19, 18, tzinfo=timezone.utc),
        urir_key="org,w3)/",
        archive_id="vefsafn.is",
    )


class TestRawFetch:
    def test_raw_body_and_classification(self, registry, raw_w3_html):
        m = vefsafn_memento(registry)
        transport = FakeTransport()
        transport.add("GET", raw_of(m), 200, MD_2004, raw_w3_html)
        client = make_client(transport, registry)
        result = client.fetch_raw_memento(m)
        assert result.classification is Classification.ARCHIVAL_OK
        assert b'href="http://www.inria.fr/"' in result.body

    def test_unsupported_raw_scheme(self, registry):
        m = Memento(
            urim="http://www.webcitation.org/66VfNacdz",
            memento_datetime=datetime(2012, 3, 28, 21, 10, 40, tzinfo=timezone.utc),
            urir_key="org,futureofmusic)/about/positions.cfm",
            archive_id="webcitation.org",
        )
        client = make_client(FakeTransport(), registry)
        with pytest.raises(RawAccessUnsupported):
            client.fetch_raw_memento(m)

    def test_a_stamp_with_a_non_ascii_digit_has_no_raw_variant(self, registry):
        # "٣" is a digit to \d, but no stamp digit: no id_ URI is requested.
        m = Memento(
            urim="http://web.archive.org/web/2000010100000\u0663/http://a.com/",
            memento_datetime=datetime(2000, 1, 1, tzinfo=timezone.utc),
            urir_key="com,a)/",
            archive_id="web.archive.org",
        )
        transport = FakeTransport()
        client = make_client(transport, registry)
        with pytest.raises(RawAccessUnsupported):
            client.fetch_raw_memento(m)
        assert transport.requests == []

    def test_a_modifier_after_the_stamp_has_no_raw_variant(self, registry):
        # im_ follows the URI-M's stamp; the URI-R's own 14-digit run is no stamp.
        m = Memento(
            urim="http://web.archive.org/web/20010101000000im_/http://a.com/20020202020202/x.png",
            memento_datetime=datetime(2001, 1, 1, tzinfo=timezone.utc),
            urir_key="com,a)/20020202020202/x.png",
            archive_id="web.archive.org",
        )
        transport = FakeTransport()
        with pytest.raises(RawAccessUnsupported):
            make_client(transport, registry).fetch_raw_memento(m)
        assert transport.requests == []

    def test_non_archival_503_body_still_returned(self, registry):
        m = vefsafn_memento(registry)
        transport = FakeTransport()
        transport.add("GET", raw_of(m), 503, {}, b"service unavailable")
        client = make_client(transport, registry, retries=0)
        result = client.fetch_raw_memento(m)
        assert result.classification is Classification.NON_ARCHIVAL_ERROR
        assert result.body == b"service unavailable"

    def test_archival_error_classified(self, registry):
        m = vefsafn_memento(registry)
        transport = FakeTransport()
        transport.add("GET", raw_of(m), 404, MD_2004, b"captured 404 page")
        client = make_client(transport, registry)
        assert client.fetch_raw_memento(m).classification is Classification.ARCHIVAL_ERROR


class TestDownloadElapsed:
    def test_elapsed_lower_bound(self, registry):
        m = vefsafn_memento(registry)
        transport = FakeTransport()
        transport.add("GET", raw_of(m), 200, MD_2004, b"x", delay=0.1)
        client = make_client(transport, registry)
        raw = client.fetch_raw_memento(m)
        assert raw.elapsed >= 0.1
        assert raw.body == b"x"

    def test_batch_produces_k_durations(self, registry):
        transport = FakeTransport()
        mementos = []
        for i in range(5):
            urim = f"http://wayback.vefsafn.is/wayback/2004102019180{i}/http://w{i}.example/"
            m = Memento(
                urim=urim,
                memento_datetime=datetime(2004, 10, 20, 19, 18, i, tzinfo=timezone.utc),
                urir_key=f"example,w{i})/",
                archive_id="vefsafn.is",
            )
            transport.add("GET", raw_of(m), 200, MD_2004, b"y")
            mementos.append(m)
        client = make_client(transport, registry)
        durations = [client.fetch_raw_memento(m).elapsed for m in mementos]
        assert len(durations) == 5
        assert all(d >= 0 for d in durations)


class TestRememberedDownloads:
    """The client downloads a raw URI once per run; failures are tried again."""

    def test_repeat_keeps_the_duration_of_the_download_made(self, registry):
        m = vefsafn_memento(registry)
        transport = FakeTransport()
        transport.add("GET", raw_of(m), 200, MD_2004, b"x", delay=0.1)
        client = make_client(transport, registry)
        first = client.fetch_raw_memento(m)
        repeat = client.fetch_raw_memento(m)
        assert len(transport.requests) == 1
        assert first.body == b"x"
        assert repeat.body is None
        assert repeat.elapsed >= 0.1 and repeat.elapsed == first.elapsed
        assert repeat.classification is Classification.ARCHIVAL_OK
        assert client.fetch_raw_memento(m) == repeat
        assert len(transport.requests) == 1

    def test_answer_still_503_is_not_remembered(self, registry):
        m = vefsafn_memento(registry)
        transport = FakeTransport()
        transport.add_sequence("GET", raw_of(m), [
            Route(503, {}, b"service unavailable"), Route(200, MD_2004, b"page"),
        ])
        client = make_client(transport, registry, retries=0)
        assert client.fetch_raw_memento(m).classification is Classification.NON_ARCHIVAL_ERROR
        second = client.fetch_raw_memento(m)
        assert len(transport.requests) == 2
        assert second.classification is Classification.ARCHIVAL_OK
        assert second.body == b"page"

    def test_network_error_is_not_remembered(self, registry):
        m = vefsafn_memento(registry)
        transport = FakeTransport()
        transport.add_sequence("GET", raw_of(m), [
            NetworkError("connection reset"), Route(200, MD_2004, b"page"),
        ])
        client = make_client(transport, registry, retries=0)
        with pytest.raises(NetworkError):
            client.fetch_raw_memento(m)
        second = client.fetch_raw_memento(m)
        assert len(transport.requests) == 2
        assert second.classification is Classification.ARCHIVAL_OK

    def test_unsupported_raw_access_is_raised_each_time_without_a_request(self, registry):
        m = Memento(
            urim="http://www.webcitation.org/66VfNacdz",
            memento_datetime=datetime(2012, 3, 28, 21, 10, 40, tzinfo=timezone.utc),
            urir_key="org,futureofmusic)/about/positions.cfm",
            archive_id="webcitation.org",
        )
        transport = FakeTransport()
        client = make_client(transport, registry)
        for _ in range(2):
            with pytest.raises(RawAccessUnsupported):
                client.fetch_raw_memento(m)
        assert transport.requests == []

    def test_threads_sharing_a_client_leave_every_download_remembered(self, registry):
        transport = FakeTransport()
        mementos = []
        for i in range(20):
            urim = f"http://wayback.vefsafn.is/wayback/20041020191800/http://w{i}.example/"
            m = Memento(
                urim=urim,
                memento_datetime=datetime(2004, 10, 20, 19, 18, tzinfo=timezone.utc),
                urir_key=f"example,w{i})/",
                archive_id="vefsafn.is",
            )
            transport.add("GET", raw_of(m), 200, MD_2004, b"y")
            mementos.append(m)
        client = make_client(transport, registry)
        errors = []

        def worker(k):
            try:
                for m in mementos[k:] + mementos[:k]:
                    client.fetch_raw_memento(m)
            except NetworkError as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert {uri for _, uri in transport.requests} == {raw_of(m) for m in mementos}
        sent = len(transport.requests)
        assert all(client.fetch_raw_memento(m).body is None for m in mementos)
        assert len(transport.requests) == sent


WAYBACK_ARCHIVES = [a for a in default_registry() if a.raw_scheme is RawScheme.WAYBACK_ID_SUFFIX]
SEGMENT = st.text("abcXYZ019-._~", max_size=8)


class TestRawDerivation:
    """The client derives the raw URI-M when it downloads; no memento stores it."""

    @given(
        archive=st.sampled_from(WAYBACK_ARCHIVES),
        scheme=st.sampled_from(["http", "https"]),
        prefix=st.lists(SEGMENT, max_size=3),
        stamp=st.from_regex(r"[0-9]{14}", fullmatch=True),
        target=st.lists(SEGMENT, max_size=3),
    )
    def test_a_download_requests_the_raw_variant_of_its_urim(
        self, archive, scheme, prefix, stamp, target
    ):
        path = "".join(f"/{p}" for p in prefix)
        urim = f"{scheme}://{archive.domains[-1]}{path}/{stamp}/http://a.example/{'/'.join(target)}"
        m = Memento(urim, datetime(2004, 1, 1, tzinfo=timezone.utc), "example,a)/", archive.id)
        raw = raw_variant(urim, archive.raw_scheme)
        assert raw == raw_of(m)
        transport = FakeTransport()
        transport.add("GET", raw, 200, MD_2004, b"x")
        client = make_client(transport, default_registry(), retries=0)
        assert client.fetch_raw_memento(m).body == b"x"
        assert transport.requests == [("GET", raw)]

    @pytest.mark.parametrize("urim, archive_id, held", [
        pytest.param(W3_2004, None, True, id="no archive"),
        pytest.param(W3_2004, "vefsafn.is", False, id="an archive the registry does not hold"),
        pytest.param("http://www.webcitation.org/66VfNacdz", "webcitation.org", True,
                     id="a scheme of none"),
        pytest.param("http://wayback.vefsafn.is/wayback/2004/http://www.w3.org/", "vefsafn.is",
                     True, id="no 14-digit segment"),
    ])
    def test_no_raw_access_is_refused_before_any_request(self, registry, urim, archive_id, held):
        if not held:
            registry = ArchiveRegistry(a for a in registry if a.id != archive_id)
        m = Memento(urim, datetime(2004, 10, 20, tzinfo=timezone.utc), "org,w3)/", archive_id)
        transport = FakeTransport()
        client = make_client(transport, registry)
        with pytest.raises(RawAccessUnsupported, match="no raw-access variant"):
            client.fetch_raw_memento(m)
        assert transport.requests == []


class TestRetries:
    def test_transport_failure_then_success(self, registry):
        transport = FakeTransport()
        uri = AGG.format(uri="http://x.example/")
        ok = Route(
            200, {},
            b'<http://x.example/>; rel="original",\n'
            b'<http://web.archive.org/web/20000101000000/http://x.example/>; '
            b'rel="memento"; datetime="Sat, 01 Jan 2000 00:00:00 GMT"',
        )
        transport.add_sequence("GET", uri, [NetworkError("connection reset"), ok])
        client = make_client(transport, registry)
        record = client.fetch_timemap_aggregator("http://x.example/")
        assert len(record.mementos) == 1

    def test_exhausted_retries_raise(self, registry):
        transport = FakeTransport()
        uri = AGG.format(uri="http://down.example/")
        transport.add_sequence("GET", uri, [NetworkError("refused")])
        client = make_client(transport, registry, retries=1)
        with pytest.raises(NetworkError):
            client.fetch_timemap_aggregator("http://down.example/")
        assert len([r for r in transport.requests if r == ("GET", uri)]) == 2

    def test_retry_after_hint_respected(self, registry):
        import time as _time

        transport = FakeTransport()
        uri = AGG.format(uri="http://busy.example/")
        ok = Route(
            200, {},
            b'<http://busy.example/>; rel="original",\n'
            b'<http://web.archive.org/web/20000101000000/http://busy.example/>; '
            b'rel="memento"; datetime="Sat, 01 Jan 2000 00:00:00 GMT"',
        )
        transport.add_sequence(
            "GET", uri, [Route(429, {"Retry-After": "1"}, b""), ok]
        )
        client = make_client(transport, registry)
        started = _time.monotonic()
        record = client.fetch_timemap_aggregator("http://busy.example/")
        assert _time.monotonic() - started >= 1.0
        assert len(record.mementos) == 1


class TestTransportProtocol:
    def test_method_and_uri_are_all_a_transport_takes(self, registry, cnn_timemap):
        routes = FakeTransport()
        routes.add("GET", AGG.format(uri="http://www.cnn.com"), 200, body=cnn_timemap)
        routes.add("HEAD", "http://cnn.example/", 301, {"Location": "http://www.cnn.com"})
        routes.add("HEAD", "http://www.cnn.com", 200)

        class MethodAndUri:
            def request(self, method, uri):
                return routes.request(method, uri)

        client = make_client(MethodAndUri(), registry)
        assert len(client.fetch_timemap_aggregator("http://www.cnn.com").mementos) == 3
        chain = client.resolve("http://cnn.example/")
        assert chain.hops == (("http://cnn.example/", 301), ("http://www.cnn.com", 200))
        assert chain.final_uri == "http://www.cnn.com"


class TestFixtureStore:
    def test_round_trip(self, tmp_path):
        store = FixtureStore(tmp_path)
        response = TransportResponse(200, {"Memento-Datetime": "x"}, b"\x00binary\xff")
        store.save("GET", "http://a.example/", response)
        assert store.load("GET", "http://a.example/") == response
        assert store.load("HEAD", "http://a.example/") is None

    @pytest.mark.parametrize("garbled, named", [
        (b"{not json", "does not decode:"),
        (b"\xff\xfe{}", "does not decode:"),  # not UTF-8
        (b"[200]", "does not decode:"),  # JSON, but not an object
        (b'{"status": 200, "body_b64": ""}', "lacks the key 'headers'"),
        (b'{"status": 200, "headers": {}, "body_b64": "AAA"}', "does not decode:"),
        (b'{"status": 200, "headers": {}, "body_b64": "!!!!"}', "does not decode:"),
    ], ids=["not-json", "not-utf8", "not-an-object", "without-a-key", "bad-padding", "bad-base64"])
    def test_garbled_fixture_is_a_permanent_error_naming_its_file(self, tmp_path, garbled, named):
        store = FixtureStore(tmp_path)
        store.save("GET", "http://a.example/", TransportResponse(200, {}, b"ok"))
        (path,) = tmp_path.iterdir()
        path.write_bytes(garbled)
        with pytest.raises(PermanentNetworkError) as raised:
            FixtureTransport(tmp_path).request("GET", "http://a.example/")
        assert str(raised.value).startswith(f"fixture {path} {named}")

    @pytest.mark.parametrize("earlier", [None, b"earlier body"], ids=["none", "earlier"])
    def test_save_cut_short_leaves_no_partial_fixture(self, tmp_path, monkeypatch, earlier):
        store = FixtureStore(tmp_path)
        if earlier is not None:
            store.save("GET", "http://a.example/", TransportResponse(200, {}, earlier))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def cut_short(path, text, encoding=None):
            with open(path, "w", encoding=encoding) as partial:
                partial.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", cut_short)
        with pytest.raises(OSError, match="No space"):
            store.save("GET", "http://a.example/", TransportResponse(200, {}, b"new " * 100))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        kept = None if earlier is None else TransportResponse(200, {}, earlier)
        assert store.load("GET", "http://a.example/") == kept

    def test_recording_then_replay(self, tmp_path, registry, cnn_timemap):
        live = FakeTransport()
        uri = AGG.format(uri="http://www.cnn.com")
        live.add("GET", uri, 200, body=cnn_timemap)
        recording = RecordingTransport(live, tmp_path)
        client = make_client(recording, registry)
        first = client.fetch_timemap_aggregator("http://www.cnn.com")

        hermetic = make_client(FixtureTransport(tmp_path), registry)
        second = hermetic.fetch_timemap_aggregator("http://www.cnn.com")
        assert [m.urim for m in second.mementos] == [m.urim for m in first.mementos]

    def test_missing_fixture_fails_loudly(self, tmp_path, registry):
        client = make_client(FixtureTransport(tmp_path), registry)
        with pytest.raises(NetworkError, match="no fixture"):
            client.fetch_timemap_aggregator("http://nothing.example/")


class TestLaneDiscipline:
    def test_serialized_per_archive(self, registry):
        # Two threads to the same archive: lane gate must serialize them.
        transport = FakeTransport()
        uri = "http://web.archive.org/web/20000101000000id_/http://x/"
        transport.add("GET", uri, 200, MD_2004, b"z", delay=0.05)
        client = make_client(transport, registry, interval=0.05)
        overlaps = []
        active = []
        lock = threading.Lock()

        real_request = transport.request

        def tracking_request(method, u):
            with lock:
                active.append(u)
                if len(active) > 1:
                    overlaps.append(tuple(active))
            try:
                return real_request(method, u)
            finally:
                with lock:
                    active.remove(u)

        transport.request = tracking_request
        threads = [
            threading.Thread(target=client.request, args=("GET", uri)) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not overlaps
