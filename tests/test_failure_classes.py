"""Failure classes and back-off: permanent network errors fail at once,
``Retry-After`` is honoured in both its forms, and state files written
with the old indented layout still resume."""

import json
import socket
import subprocess
import sys
import textwrap
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest

from mementoset import (
    ArchiveClient,
    FetchPolicy,
    NetworkError,
    PermanentNetworkError,
    SelectionState,
    select_initial,
)
from mementoset.client import FixtureTransport, RequestsTransport, TransportResponse
from mementoset.model import format_http_datetime
from mementoset.pipeline import DiscoveryPipeline, RunConfig
from mockserver import FakeTransport, Route
from test_cli import child_env
from test_pipeline import FIXED_NOW, build_fixture_corpus, write_config
from universe import AGG_TEMPLATE


def make_client(transport, registry, retries=3, timeout=30.0):
    policy = FetchPolicy(min_request_interval=0.0, retries=retries, timeout=timeout)
    return ArchiveClient(registry, policy, transport, aggregator_template=AGG_TEMPLATE)


class CountingFixtures(FixtureTransport):
    def __init__(self, root):
        super().__init__(root)
        self.calls = 0

    def request(self, method, uri):
        self.calls += 1
        return super().request(method, uri)


def live_transport():
    transport = RequestsTransport(timeout=2.0)
    transport._session.trust_env = False  # no proxy from the environment
    return transport


class TestPermanentFailures:
    def test_missing_fixture_fails_after_one_attempt(self, tmp_path, registry):
        transport = CountingFixtures(tmp_path)
        client = make_client(transport, registry, retries=3)
        started = time.monotonic()
        with pytest.raises(PermanentNetworkError, match="no fixture"):
            client.request("GET", "http://nothing.example/")
        assert transport.calls == 1
        assert time.monotonic() - started < 0.4

    def test_permanent_failure_starts_no_lookahead_helper(self, registry, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        transport = FakeTransport()
        stream = []
        for i in range(5):
            uri = f"http://gone{i}.example/"
            transport.add_sequence("HEAD", uri, [PermanentNetworkError(f"no host {i}")])
            stream.append((uri, "moz"))
        accepted = select_initial(stream, make_client(transport, registry), SelectionState())
        assert accepted == []
        assert len(transport.requests) == 5
        assert started == []

    def test_plain_network_error_stays_transient(self, registry, monkeypatch):
        monkeypatch.setattr(ArchiveClient, "_backoff_delay", lambda self, *request: 0.0)
        transport = FakeTransport()
        transport.add_sequence("HEAD", "http://flaky.example/", [NetworkError("reset")])
        with pytest.raises(NetworkError) as raised:
            make_client(transport, registry, retries=2).request("HEAD", "http://flaky.example/")
        assert not isinstance(raised.value, PermanentNetworkError)
        assert len(transport.requests) == 3

    def test_refused_connection_is_permanent(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(PermanentNetworkError):
            live_transport().request("GET", f"http://127.0.0.1:{port}/")

    def test_name_resolution_failure_is_permanent(self, monkeypatch):
        def no_such_host(*args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "getaddrinfo", no_such_host)
        with pytest.raises(PermanentNetworkError):
            live_transport().request("GET", "http://no-such-host.invalid/")

    @pytest.mark.parametrize("uri", ["http://", "example.com/page", "ftp://example.com/"])
    def test_unsendable_url_is_permanent(self, uri):
        with pytest.raises(PermanentNetworkError):
            live_transport().request("GET", uri)

    @pytest.mark.parametrize("uri", ["refused", "ftp://example.com/", "http://"])
    def test_failure_is_permanent_in_an_interpreter_without_requests(self, uri):
        if uri == "refused":
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                uri = f"http://127.0.0.1:{probe.getsockname()[1]}/"
        script = textwrap.dedent("""
            import sys
            from mementoset.client import RequestsTransport
            from mementoset.errors import NetworkError
            assert "requests" not in sys.modules
            transport = RequestsTransport(timeout=2.0)
            transport._session.trust_env = False
            try:
                transport.request("GET", sys.argv[1])
            except NetworkError as exc:
                print(type(exc).__name__)
        """)
        child = subprocess.run(
            [sys.executable, "-c", script, uri], env=child_env(),
            capture_output=True, text=True, check=True,
        )
        assert child.stdout == "PermanentNetworkError\n"


def busy(retry_after: str) -> TransportResponse:
    return TransportResponse(503, {"Retry-After": retry_after}, b"")


def backoff(client, attempt, response):
    return client._backoff_delay("GET", "http://web.archive.org/x", attempt, response)


class TestRetryAfterDate:
    def test_past_date_means_no_wait(self, registry):
        client = make_client(FakeTransport(), registry)
        past = format_http_datetime(datetime.now(timezone.utc) - timedelta(hours=1))
        assert backoff(client, 0, busy(past)) == 0.0

    def test_future_date_is_waited_for(self, registry):
        client = make_client(FakeTransport(), registry)
        future = format_http_datetime(datetime.now(timezone.utc) + timedelta(seconds=20))
        assert 18.0 <= backoff(client, 0, busy(future)) <= 20.0

    def test_far_date_is_capped_at_the_timeout(self, registry):
        client = make_client(FakeTransport(), registry, timeout=5.0)
        future = format_http_datetime(datetime.now(timezone.utc) + timedelta(hours=1))
        assert backoff(client, 0, busy(future)) == 5.0

    def test_unparseable_value_falls_back_to_exponential(self, registry):
        client = make_client(FakeTransport(), registry)
        assert 0.5 <= backoff(client, 0, busy("soon, please")) <= 0.6
        assert 0.5 <= backoff(client, 0, busy("\xb2")) <= 0.6  # a digit, but not ASCII
        assert 1.0 <= backoff(client, 1, busy("-1")) <= 1.1

    def test_past_date_retries_at_once(self, registry):
        transport = FakeTransport()
        past = format_http_datetime(datetime.now(timezone.utc) - timedelta(minutes=5))
        transport.add_sequence(
            "GET", "http://web.archive.org/x",
            [Route(503, {"Retry-After": past}), Route(200, {}, b"ok")],
        )
        started = time.monotonic()
        response = make_client(transport, registry).request("GET", "http://web.archive.org/x")
        assert response.status == 200
        assert time.monotonic() - started < 0.4
        assert len(transport.requests) == 2


class TestBackoffJitter:
    REQUESTS = [("GET", f"http://web.archive.org/x{i}") for i in range(20)] + [
        ("HEAD", "http://web.archive.org/x0"),
    ]

    def test_same_request_and_attempt_wait_the_same_in_any_client(self, registry):
        first, second = (make_client(FakeTransport(), registry) for _ in range(2))
        for attempt in range(4):
            base = 0.5 * 2**attempt
            delays = [first._backoff_delay(m, u, attempt, None) for m, u in self.REQUESTS]
            assert delays == [second._backoff_delay(m, u, attempt, None) for m, u in self.REQUESTS]
            assert all(base <= d < base + 0.1 for d in delays)
            assert len(set(delays)) == len(delays)  # jittered per request

    def test_the_jitter_does_not_follow_the_hash_seed(self):
        script = (
            "from mementoset import ArchiveClient, FixtureTransport, default_registry;"
            "c = ArchiveClient(default_registry(), transport=FixtureTransport('unused'));"
            "print(c._backoff_delay('HEAD', 'http://a.example/', 1, None))"
        )
        runs = {
            subprocess.run(
                [sys.executable, "-c", script], env=child_env(PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(runs) == 1


class TestStateFileLayout:
    def test_compact_state_resumes_from_old_indented_file(self, tmp_path, corpus_cadence):
        fixtures = tmp_path / "fixtures"
        build_fixture_corpus(fixtures)
        reference = DiscoveryPipeline(
            RunConfig.from_file(write_config(tmp_path, fixtures, "reference")),
            clock=lambda: FIXED_NOW,
        )
        assert reference.run() == "done"

        config = RunConfig.from_file(write_config(tmp_path, fixtures, "resumed"))
        first = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
        assert first.run(stop_after="method2") == "method3"
        written = first.state_path.read_text("utf-8")
        assert "\n" not in written
        # The layout earlier versions wrote.
        first.state_path.write_text(json.dumps(json.loads(written), indent=1, sort_keys=True))

        resumed = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
        assert resumed.run() == "done"
        assert resumed.state_path.read_bytes() == reference.state_path.read_bytes()
