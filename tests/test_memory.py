"""The client's memory of a run: each redirect hop, raw download and empty
TimeMap page is asked once, keyed by the request method and the URI in the
form RFC 9110 §4.2.3 makes every equivalent URI take (``equivalent_uri``).

A network error, an answer still 503 after its retries and a TimeMap page
with content are asked again. A remembered answer returns without waiting
for its lane, and a request already waiting asks the memory again after
each wait, so look-ahead resolutions that meet at one URI send one request.

A run resumed inside Method 1 starts from the walks its state records
ended: a stored URI-R's ``final_uri`` answers a HEAD with its
``live_status``, so a later candidate that reaches an equivalent URI asks
nothing the uninterrupted run would not have asked.
"""

import string
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mementoset import (
    ArchiveClient,
    EmptyTimeMap,
    FetchPolicy,
    MalformedUri,
    Memento,
    NetworkError,
    SelectionState,
    select_initial,
)
from mementoset.canonical import kept_uri, path_length, registrable_domain, surt
from mementoset.client import StepLoop, equivalent_uri
from mementoset.pipeline import DiscoveryPipeline
from mementoset.sampler import probe_archives
from mockserver import FakeTransport, Route
from test_client import raw_of
from test_lookahead import scan_config, universe_transport
from universe import (
    AGG_TEMPLATE, ERROR, Universe, brute_force_select, build_universe, install_universe, timemap_body,
)

DEFAULT_PORTS = {"http": 80, "https": 443}

LABEL = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,6}[a-z0-9])?", fullmatch=True)
HOST = st.lists(LABEL, min_size=1, max_size=3).map(".".join)
SEGMENT = st.text(string.ascii_letters + string.digits + "-._~%", max_size=6)
PATH = st.lists(SEGMENT, max_size=3).map(lambda segments: "".join(f"/{s}" for s in segments))
QUERY = st.none() | st.text(string.ascii_letters + string.digits + "=&/?", max_size=8)
# A fragment the kept-URI rule refuses makes the URI one the client refuses.
FRAGMENT = st.none() | st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8).filter(kept_uri)
RESOURCE = st.tuples(st.sampled_from(sorted(DEFAULT_PORTS)), HOST, PATH, QUERY)


def spelled(scheme, host, path, query, port="", fragment=None):
    uri = f"{scheme}://{host}{port}{path}"
    if query is not None:
        uri += f"?{query}"
    if fragment is not None:
        uri += f"#{fragment}"
    return uri


def mixed_case(data, text):
    upper = data.draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    return "".join(c.upper() if up else c for c, up in zip(text, upper))


class TestRequestKey:
    @given(RESOURCE, st.data())
    def test_equivalent_spellings_share_one_key(self, resource, data):
        scheme, host, path, query = resource
        variant = spelled(
            mixed_case(data, scheme),
            mixed_case(data, host),
            path or data.draw(st.sampled_from(["", "/"])),
            query,
            port=data.draw(st.sampled_from(["", ":", f":{DEFAULT_PORTS[scheme]}"])),
            fragment=data.draw(FRAGMENT),
        )
        assert equivalent_uri(variant) == equivalent_uri(spelled(*resource))

    @given(RESOURCE, st.data())
    def test_a_changed_component_is_another_key(self, resource, data):
        scheme, host, path, query = resource
        other_scheme = "https" if scheme == "http" else "http"
        port = data.draw(st.integers(0, 65535).filter(lambda p: p != DEFAULT_PORTS[scheme]))
        userinfo = data.draw(st.from_regex(r"[a-zA-Z0-9]{1,5}(:[a-zA-Z0-9]{0,5})?", fullmatch=True))
        others = [
            spelled(other_scheme, host, path, query),
            spelled(scheme, f"www.{host}", path, query),
            spelled(scheme, host, path, query, port=f":{port}"),
            spelled(scheme, f"{userinfo}@{host}", path, query),
            spelled(scheme, host, path, f"{query or ''}x"),
        ]
        if query is not None:
            others.append(spelled(scheme, host, path, None))
        if path.swapcase() != path:
            others.append(spelled(scheme, host, path.swapcase(), query))
        key = equivalent_uri(spelled(*resource))
        assert key not in {equivalent_uri(other) for other in others}

    @given(RESOURCE, st.integers(0, 65535), FRAGMENT, st.data())
    def test_the_key_is_idempotent(self, resource, port, fragment, data):
        scheme, host, path, query = resource
        uri = spelled(mixed_case(data, scheme), mixed_case(data, host), path, query, f":{port}", fragment)
        key = equivalent_uri(uri)
        assert equivalent_uri(key) == key
        assert "#" not in key

    @given(RESOURCE, st.integers(65536, 10**9).map(str) | st.from_regex(r"[a-z]{1,5}", fullmatch=True))
    def test_a_port_that_does_not_parse_is_malformed(self, resource, port):
        with pytest.raises(MalformedUri):
            equivalent_uri(spelled(*resource, port=f":{port}"))

    def test_a_malformed_uri_sends_nothing(self, registry):
        transport = FakeTransport()
        client = make_client(transport, registry)
        for uri in ("http://host:99999/", "http://host:port/", "http://[::1/"):
            with pytest.raises(MalformedUri):
                client.resolve(uri)
        assert transport.requests == []

    @pytest.mark.parametrize("uri", [
        "http://a.example/x y", "http://a.example/#x\u2028y", "ftp://files.example/x",
        "http://a..example/", "http:///x", "www.example.com", "//example.com/x", "example.com:8080/x",
    ])
    def test_a_uri_the_crawler_refuses_is_never_sent(self, registry, uri):
        transport = FakeTransport()
        client = make_client(transport, registry)
        with pytest.raises(MalformedUri):
            client.request("GET", uri)
        with pytest.raises(MalformedUri):
            client.resolve(uri)
        with pytest.raises(MalformedUri):
            equivalent_uri(uri)
        assert transport.requests == []


AGG = "http://aggregator.test/timemap/link/{uri}"
MD_2004 = {"Memento-Datetime": "Wed, 20 Oct 2004 19:18:00 GMT"}


def make_client(transport, registry, interval=0.0, retries=0):
    policy = FetchPolicy(min_request_interval=interval, retries=retries, timeout=5.0)
    return ArchiveClient(registry, policy, transport, aggregator_template=AGG)


def heads(transport, uri):
    return transport.requests.count(("HEAD", uri))


class TestRedirectHops:
    def test_two_waiting_resolutions_of_one_target_send_one_head(self, registry):
        transport = FakeTransport()
        target = "http://t.example/x"
        transport.add("HEAD", "http://t.example/a", 200)
        transport.add("HEAD", "http://alias1.example/", 301, {"Location": target})
        transport.add("HEAD", "http://alias2.example/", 301, {"Location": "http://T.example:80/x#b"})
        transport.add("HEAD", target, 200)
        client = make_client(transport, registry, interval=0.05)
        with StepLoop() as loop:
            # The first request leaves t.example's lane closed for 0.05 s, so
            # both aliases reach the target while they wait for it.
            tasks = [
                loop.add(client.resolve_steps(uri))
                for uri in ("http://t.example/a", "http://alias1.example/", "http://alias2.example/")
            ]
            chains = [loop.finish(task) for task in tasks]
        assert heads(transport, target) == 1
        assert len(transport.requests) == 4
        assert chains[1].final_uri == target
        assert chains[2].hops[-1] == ("http://T.example:80/x#b", 200)

    def test_a_remembered_hop_does_not_wait_for_its_lane(self, registry):
        transport = FakeTransport()
        transport.add("HEAD", "http://t.example/", 200)
        client = make_client(transport, registry, interval=60.0)
        assert client.resolve("http://t.example/").final_uri == "http://t.example/"
        # The lane stays closed for a minute; the hop is answered at once.
        steps = client.resolve_steps("http://T.EXAMPLE:80#top")
        with pytest.raises(StopIteration) as done:
            next(steps)
        assert done.value.value.final_uri == "http://T.EXAMPLE:80#top"
        assert transport.requests == [("HEAD", "http://t.example/")]

    def test_a_network_error_is_asked_again(self, registry):
        transport = FakeTransport()
        uri = "http://flaky.example/"
        transport.add_sequence("HEAD", uri, [NetworkError("connection reset"), Route(200)])
        client = make_client(transport, registry)
        with pytest.raises(NetworkError):
            client.resolve(uri)
        assert client.resolve(uri).terminal_status == 200
        assert client.resolve(uri).terminal_status == 200
        assert heads(transport, uri) == 2

    def test_a_503_after_its_retries_is_asked_again(self, registry):
        transport = FakeTransport()
        uri = "http://busy.example/"
        transport.add_sequence("HEAD", uri, [Route(503), Route(503), Route(200)])
        client = make_client(transport, registry, retries=1)
        client._backoff_delay = lambda *request: 0.0
        assert client.resolve(uri).terminal_status == 503
        assert client.resolve(uri).terminal_status == 200
        assert client.resolve(uri).terminal_status == 200
        assert heads(transport, uri) == 3

    def test_a_failed_get_fallback_is_asked_again(self, registry):
        transport = FakeTransport()
        uri = "http://nohead.example/"
        transport.add("HEAD", uri, 405)
        transport.add_sequence("GET", uri, [NetworkError("connection reset"), Route(200, {}, b"page")])
        client = make_client(transport, registry)
        with pytest.raises(NetworkError):
            client.resolve(uri)
        assert client.resolve(uri).hops == ((uri, 200),)
        assert client.resolve(uri).hops == ((uri, 200),)
        # The 405 was remembered; the GET that failed was asked again, once.
        assert transport.requests == [("HEAD", uri), ("GET", uri), ("GET", uri)]


class TestTimeMapPages:
    @pytest.mark.parametrize("status, body", [(404, b"not archived"), (200, b""), (200, b" \r\n")])
    def test_an_empty_timemap_is_asked_once(self, registry, status, body):
        transport = FakeTransport()
        transport.add("GET", AGG.format(uri="http://none.example/"), status, body=body)
        client = make_client(transport, registry)
        for _ in range(3):
            with pytest.raises(EmptyTimeMap):
                client.fetch_timemap_aggregator("http://none.example/")
        assert len(transport.requests) == 1

    def test_a_timemap_with_content_is_never_served_from_memory(self, registry):
        urir = "http://x.example/"
        page = AGG.format(uri=urir)
        transport = FakeTransport()
        transport.add("HEAD", page, 405)
        transport.add("GET", page, 200, body=timemap_body(urir, 2))
        client = make_client(transport, registry)
        # The run already holds an answer to GET page, from a GET fallback.
        assert client.resolve(page).terminal_status == 200
        for _ in range(2):
            assert len(client.fetch_timemap_aggregator(urir).mementos) == 2
        assert transport.requests.count(("GET", page)) == 3


def vefsafn(stamp, host="http://www.w3.org/"):
    return Memento(
        urim=f"http://wayback.vefsafn.is/wayback/{stamp}/{host}",
        memento_datetime=datetime(2004, 10, 20, 19, 18, tzinfo=timezone.utc),
        urir_key="org,w3)/",
        archive_id="vefsafn.is",
    )


class TestRawDownloads:
    def test_probe_durations_are_real_downloads_elapsed_times(self, registry):
        first = vefsafn("20041020191800")
        # The same raw URI spelled another way: host case, ":80", a fragment.
        spelled_again = first.urim.replace("wayback.vefsafn.is", "WAYBACK.vefsafn.IS:80") + "#a"
        same = replace(first, urim=spelled_again)
        other = vefsafn("20041020191801")
        transport = FakeTransport()
        transport.add("GET", raw_of(first), 200, MD_2004, b"x", delay=0.05)
        transport.add("GET", raw_of(other), 200, MD_2004, b"y", delay=0.02)
        client = make_client(transport, registry)
        durations, classifications = probe_archives(client, {"vefsafn.is": [first, same, other]})
        assert len(transport.requests) == 2
        took = durations["vefsafn.is"]
        assert took[0] >= 0.05 and took[1] == took[0]
        assert took[2] >= 0.02
        assert len(classifications) == 3
        assert client.fetch_raw_memento(same).body is None


class NoBackoff(ArchiveClient):
    def _backoff_delay(self, *request):
        return 0.0


def expected_calls(universe, quota, retries):
    """Transport calls per request key for the in-order scan, walked from
    the universe's own tables: an answered question once, a content
    TimeMap at each fetch, a failed one ``retries + 1`` times each time
    it is asked."""
    calls = Counter()
    asked = set()

    def ask(method, uri, failed=False, content=False):
        key = method, equivalent_uri(uri)
        if failed:
            calls[key] += retries + 1
        elif content or key not in asked:
            calls[key] += 1
        asked.add(key)

    chosen, domains, counts = set(), set(), Counter()
    for uri, _ in universe.candidates:
        if all(counts[b] >= quota for b in ("s0", "s1", "s2", "s3", "s4plus")):
            break
        current = uri
        while True:
            route = universe.head.get(current)
            ask("HEAD", current, failed=route in (None, ERROR))
            if route in (None, ERROR):
                final = None
                break
            status, location = route
            if not (300 <= status < 400 and location):
                final = current
                break
            current = location
        if final is None:
            continue
        key, bucket, domain = surt(final), path_length(final).value, registrable_domain(final)
        if key in chosen or counts[bucket] >= quota or (bucket, domain) in domains:
            continue
        mementos = universe.timemaps.get(final, 0)
        ask("GET", AGG_TEMPLATE.format(uri=final), content=mementos > 0)
        if mementos:
            chosen.add(key)
            domains.add((bucket, domain))
            counts[bucket] += 1
    return calls


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    quota=st.sampled_from([2, 2000]),
    interval=st.sampled_from([0.0, 0.002]),
    retries=st.sampled_from([0, 1]),
)
def test_a_scan_asks_each_question_once(registry, seed, quota, interval, retries):
    """Method 1 over a universe, through the look-ahead: the acceptances are
    the brute-force checker's, and each transport call is a distinct
    question or a retry of a failed one. The universe plants equivalent
    spellings (host case, ":80") and redirect aliases that meet."""
    universe = build_universe(seed, n=60)
    transport = FakeTransport()
    install_universe(universe, transport.add)
    policy = FetchPolicy(min_request_interval=interval, retries=retries, timeout=5.0)
    client = NoBackoff(registry, policy, transport, aggregator_template=AGG_TEMPLATE)
    accepted = select_initial(universe.candidates, client, SelectionState(quota_per_bucket=quota))
    expected = brute_force_select(universe, quota=quota)
    assert [(r.uri, r.canonical_key, r.path_bucket.value) for r in accepted] == expected
    sent = Counter((method, equivalent_uri(uri)) for method, uri in transport.requests)
    assert sent == expected_calls(universe, quota, retries)


FIXED = datetime(2000, 1, 1, tzinfo=timezone.utc)


def pipeline_for(config, transport):
    return DiscoveryPipeline(config, transport=transport, clock=lambda: FIXED)


def config_over(tmp_path, uris, out):
    """A Method 1 run over ``uris``, a Moz list, at interval 0 and retries 0."""
    return scan_config(tmp_path, Universe([(uri, "moz") for uri in uris]), out, retries=0)


def stored_then_variants(transport, status):
    """Routes and candidates: http://a.com/x, whose walk ends at ``status``
    (for 405, a HEAD 405 and then a GET 405), and http://b.com/y, whose walk
    ends at 200, both accepted; then a variant of each."""
    uris = ["http://a.com/x", "http://b.com/y", "http://A.COM:80/x#f", "http://b.com:80/y"]
    for uri, code in zip(uris, [status, 200] * 2):
        transport.add("HEAD", uri, code)
        transport.add("GET", uri, code)
    for uri in uris[:2]:
        transport.add("GET", AGG.format(uri=uri), 200, body=timemap_body(uri, 1))
    return uris


def cut_after_each(config, transport, k):
    """Method 1 cut every ``k`` candidates, each continuation a fresh
    pipeline. Returns the last pipeline and, per continuation after the
    first, the equivalent final URIs stored at its cut and the requests it
    sent."""
    resumed = []
    stored = None
    while True:
        pipe = pipeline_for(config, transport)
        start = len(transport.requests)
        stage = pipe.run(stop_after="method1", max_candidates=k)
        if stored is not None:
            resumed.append((stored, transport.requests[start:]))
        if stage != "method1":
            return pipe, resumed
        stored = {equivalent_uri(r.urir.final_uri) for r in pipe.collection.records()}


class TestResumedMethod1:
    @pytest.mark.parametrize("status, sent", [
        (200, []),
        (404, []),
        (301, []),  # a 3xx without Location ends the walk too
        (405, [("GET", "http://A.COM:80/x#f")]),
        (503, [("HEAD", "http://A.COM:80/x#f")]),
    ])
    def test_what_a_stored_walk_answers_after_a_cut(self, tmp_path, status, sent):
        transport = FakeTransport()
        uris = stored_then_variants(transport, status)
        whole = pipeline_for(config_over(tmp_path, uris, "whole"), transport)
        assert whole.run(stop_after="method1") == "method2"
        uninterrupted = len(transport.requests)
        last, resumed = cut_after_each(config_over(tmp_path, uris, "cut"), transport, k=2)
        assert [r.urir.live_status for r in last.collection.records()] == [status, 200]
        assert resumed[0][1] == sent
        assert last.state_path.read_bytes() == whole.state_path.read_bytes()
        # One process asks a 503 again too, and a 405's GET only once.
        assert len(transport.requests) - uninterrupted == uninterrupted + (status == 405)

    def test_only_a_state_loaded_inside_method1_gives_the_client_its_walks(self, tmp_path):
        transport = FakeTransport()
        uris = stored_then_variants(transport, 200)
        for stop, sent in (("method1", []), ("method2", [("HEAD", uris[2])])):
            config = config_over(tmp_path, uris[:2], stop)
            pipeline_for(config, transport).run(
                stop_after="method1", max_candidates=1 if stop == "method1" else None
            )
            loaded = pipeline_for(config, transport)
            assert loaded.load_state() and loaded.stage == stop
            before = len(transport.requests)
            loaded.client.resolve(uris[2])
            assert transport.requests[before:] == sent

    @pytest.mark.parametrize("seed", [3, 41, 77])
    @pytest.mark.parametrize("k", [5, 20])
    def test_no_head_after_a_cut_goes_to_a_stored_final_uri(self, tmp_path, monkeypatch, seed, k):
        universe = build_universe(seed, n=300)
        transport = universe_transport(universe)
        whole = pipeline_for(scan_config(tmp_path, universe, "whole", retries=0), transport)
        assert whole.run(stop_after="method1") == "method2"
        uninterrupted = len(transport.requests)

        def cut_run(out):
            start = len(transport.requests)
            last, resumed = cut_after_each(scan_config(tmp_path, universe, out, retries=0), transport, k)
            assert last.state_path.read_bytes() == whole.state_path.read_bytes()
            return len(transport.requests) - start, resumed

        sent, resumed = cut_run("cut")
        for stored, requests in resumed:
            assert not [uri for method, uri in requests if method == "HEAD" and equivalent_uri(uri) in stored]
        with monkeypatch.context() as unseeded:
            unseeded.setattr(ArchiveClient, "remember_resolved", lambda self, *walk: None)
            sent_unseeded, _ = cut_run("unseeded")
        assert uninterrupted <= sent < sent_unseeded

    def test_an_uninterrupted_run_sends_what_it_sent_before(self, tmp_path, monkeypatch):
        universe = build_universe(41, n=300)

        def requests(out):
            transport = universe_transport(universe)
            assert pipeline_for(scan_config(tmp_path, universe, out, retries=0), transport).run() == "done"
            return transport.requests

        calls = []
        with monkeypatch.context() as spied:
            spied.setattr(ArchiveClient, "remember_resolved", lambda self, *walk: calls.append(walk))
            spied_requests = requests("spied")
        assert calls == []
        assert requests("plain") == spied_requests


class TestRememberResolved:
    URI = "http://a.example/p"

    def test_an_answer_already_held_is_kept(self, registry):
        transport = FakeTransport()
        transport.add("HEAD", self.URI, 301, {"Location": "http://b.example/"})
        transport.add("HEAD", "http://b.example/", 200)
        client = make_client(transport, registry)
        assert client.resolve(self.URI).final_uri == "http://b.example/"
        client.remember_resolved(self.URI, 200)
        assert client.resolve("http://A.example:80/p").final_uri == "http://b.example/"
        assert len(transport.requests) == 2

    @pytest.mark.parametrize("status", [429, 503])
    def test_a_retried_status_is_never_remembered(self, registry, status):
        transport = FakeTransport()
        transport.add("HEAD", self.URI, 200)
        client = make_client(transport, registry)
        client.remember_resolved(self.URI, status)
        assert client.resolve(self.URI).terminal_status == 200
        assert transport.requests == [("HEAD", self.URI)]

    @pytest.mark.parametrize("status", [405, 501])
    def test_a_rejected_head_still_sends_its_get(self, registry, status):
        transport = FakeTransport()
        transport.add("GET", self.URI, 200)
        client = make_client(transport, registry)
        client.remember_resolved(self.URI, status)
        assert client.resolve(self.URI).hops == ((self.URI, 200),)
        assert transport.requests == [("GET", self.URI)]

    def test_a_final_uri_that_does_not_parse_is_skipped(self, registry):
        transport = FakeTransport()
        client = make_client(transport, registry)
        client.remember_resolved("http://a.example:99999/", 200)
        with pytest.raises(MalformedUri):
            client.resolve("http://a.example:99999/")
        assert transport.requests == []
