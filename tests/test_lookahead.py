"""The initial scan's look-ahead: candidates are resolved ahead of an
in-order commit while requests wait, in the scan's own thread, and the
client's ``StepLoop`` that runs them.

Results are compared with the strictly sequential scan, which the same
code runs when ``LOOKAHEAD`` is 1, or with the brute-force checker.
"""

import threading
import time
from collections import Counter
from datetime import datetime, timezone

import pytest

import mementoset.discovery as discovery
import mementoset.pipeline as pipeline_module
from mementoset import ArchiveClient, FetchPolicy, SelectionState, select_initial
from mementoset.client import StepLoop, run_steps
from mementoset.pipeline import DiscoveryPipeline, RunConfig
from mockserver import FakeTransport, Route, ServerTransport
from universe import AGG_TEMPLATE, brute_force_select, build_universe, install_universe, timemap_body

FIXED = datetime(2000, 1, 1, tzinfo=timezone.utc)


def universe_transport(universe):
    transport = FakeTransport()
    install_universe(universe, transport.add)
    return transport


def client_for(transport, registry, retries, interval=0.0):
    policy = FetchPolicy(min_request_interval=interval, retries=retries, timeout=5.0)
    return ArchiveClient(registry, policy, transport, aggregator_template=AGG_TEMPLATE)


@pytest.fixture()
def thread_starts(monkeypatch):
    """Every thread started."""
    started = []
    original = threading.Thread.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.fixture()
def in_flight(monkeypatch):
    """The most candidate resolutions under way at once, as a one-item list."""
    peak = [0]
    current = [0]
    original = discovery._resolve_steps

    def counted(*args):
        current[0] += 1
        peak[0] = max(peak[0], current[0])
        try:
            return (yield from original(*args))
        finally:
            current[0] -= 1

    monkeypatch.setattr(discovery, "_resolve_steps", counted)
    return peak


def fixed_backoff(monkeypatch, seconds):
    monkeypatch.setattr(ArchiveClient, "_backoff_delay", lambda self, *request: seconds)


class TestSameResultAsSequential:
    def test_accepted_and_requests_match_and_backoffs_overlap(self, registry, monkeypatch, in_flight):
        universe = build_universe(seed=41, n=120)
        quota = 2000
        expected = brute_force_select(universe, quota=quota)

        with monkeypatch.context() as sequential:
            sequential.setattr(discovery, "LOOKAHEAD", 1)
            fixed_backoff(sequential, 0.0)
            reference = universe_transport(universe)
            select_initial(universe.candidates, client_for(reference, registry, 1),
                           SelectionState(quota_per_bucket=quota))
        assert in_flight[0] == 1

        transport = universe_transport(universe)
        started = time.monotonic()
        accepted = select_initial(universe.candidates, client_for(transport, registry, 1),
                                  SelectionState(quota_per_bucket=quota))
        wall = time.monotonic() - started

        assert [(r.uri, r.canonical_key, r.path_bucket.value) for r in accepted] == expected
        assert Counter(transport.requests) == Counter(reference.requests)
        dead = sum(1 for uri, _ in universe.candidates if uri.startswith("http://dead"))
        assert dead >= 5
        # Each dead host backs off once, for at least 0.5 s, at retries=1:
        # in sequence that alone is more than this.
        assert wall < 0.5 * dead, f"{dead} dead hosts took {wall:.2f}s"
        assert in_flight[0] > 1

    def test_all_dead_window_stays_bounded(self, registry, monkeypatch, in_flight):
        fixed_backoff(monkeypatch, 0.1)
        stream = [(f"http://dead{i:03d}.example/", "moz") for i in range(3 * discovery.LOOKAHEAD)]
        transport = FakeTransport()
        begun = time.monotonic()
        accepted = select_initial(stream, client_for(transport, registry, 1), SelectionState())
        wall = time.monotonic() - begun
        assert accepted == []
        assert Counter(transport.requests) == Counter(("HEAD", uri) for uri, _ in stream for _ in "12")
        assert in_flight[0] == discovery.LOOKAHEAD
        assert wall < 0.1 * len(stream) / 4

    def test_commit_backoff_resolves_ahead(self, registry, monkeypatch, in_flight):
        fixed_backoff(monkeypatch, 0.2)
        transport = FakeTransport()
        busy = "http://busy.example/"
        transport.add("HEAD", busy, 200)
        transport.add_sequence("GET", AGG_TEMPLATE.format(uri=busy), [
            Route(503), Route(200, {}, timemap_body(busy, 1).encode()),
        ])
        stream = [(busy, "moz")] + [(f"http://dead{i}.example/", "moz") for i in range(4)]
        begun = time.monotonic()
        accepted = select_initial(stream, client_for(transport, registry, 1), SelectionState())
        wall = time.monotonic() - begun
        assert [r.uri for r in accepted] == [busy]
        assert len(transport.requests) == 2 + 1 + 2 * 4
        # Sequentially: 0.2 s for the TimeMap, then 0.2 s for each dead host.
        assert wall < 0.6, f"took {wall:.2f}s"
        assert in_flight[0] == 4


    def test_commit_fetch_failing_after_backoff_leaves_resolutions_ahead(
        self, registry, monkeypatch, in_flight
    ):
        fixed_backoff(monkeypatch, 0.05)
        flaky = "http://flaky.example/"
        live = [f"http://live{i}.example/" for i in range(3)]
        dead = [f"http://dead{i}.example/" for i in range(4)]
        stream = [(uri, "moz") for uri in [flaky, *dead, *live]]

        def scan():
            transport = FakeTransport()
            for uri in [flaky, *live]:
                transport.add("HEAD", uri, 200)
            # No route for flaky's aggregator TimeMap: a network error, once
            # retried after back-off, while the dead hosts resolve ahead.
            for uri in live:
                transport.add("GET", AGG_TEMPLATE.format(uri=uri), 200, body=timemap_body(uri, 1))
            accepted = select_initial(stream, client_for(transport, registry, 1), SelectionState())
            return [r.uri for r in accepted], Counter(transport.requests)

        with monkeypatch.context() as sequential:
            sequential.setattr(discovery, "LOOKAHEAD", 1)
            expected = scan()
        assert in_flight[0] == 1
        assert scan() == expected
        assert expected[0] == live
        assert expected[1][("GET", AGG_TEMPLATE.format(uri=flaky))] == 2
        assert in_flight[0] > 1


def steps(name, waits, log):
    """A synthetic step generator: logs each step as (name, i), yields
    ``waits`` in turn and returns ``name``."""
    for i, wait in enumerate(waits):
        log.append((name, i))
        yield wait
    log.append((name, len(waits)))
    return name


def working(name, seconds, log):
    """One step that takes ``seconds`` of work, as a transfer does, then a
    long wait that is never waited out."""
    log.append((name, 0))
    time.sleep(seconds)
    yield 60.0


class TestStepLoop:
    def test_first_started_whose_wait_is_over_advances(self):
        log = []
        loop = StepLoop()
        a = loop.add(steps("a", [0.02], log))
        b = loop.add(steps("b", [0.01], log))
        loop.add(working("w", 0.05, log))
        assert loop.finish(b) == "b"
        # Both waits were over after the work; b's ended first, but a
        # started first.
        assert log == [("a", 0), ("b", 0), ("w", 0), ("a", 1), ("b", 1)]
        assert loop.finish(a) == "a"

    def test_next_queued_starts_only_while_every_started_waits(self):
        log = []
        loop = StepLoop()
        loop.add(steps("a", [0.0, 0.0], log))
        b = loop.add(steps("b", [], log))
        loop.finish(b)
        assert log == [("a", 0), ("a", 1), ("a", 2), ("b", 0)]

        log.clear()
        c = loop.add(steps("c", [0.05], log))
        d = loop.add(steps("d", [], log))
        loop.finish(d)
        assert log == [("c", 0), ("d", 0)]
        assert loop.finish(c) == "c"

    def test_blocking_call_advances_first(self):
        log = []
        spun = [0]

        def spin():
            yield 0.01
            while spun[0] < 10**6:
                spun[0] += 1
                yield 0.0

        with StepLoop() as loop:
            loop.add(spin())
            loop.finish(loop.add(steps("started", [], log)))  # spin starts first, and waits
            begun = time.monotonic()
            assert run_steps(steps("blocking", [0.02], log)) == "blocking"
            waited = time.monotonic() - begun
        # The spinning generator ran in the wait, and the blocking call went
        # on as soon as its wait ended, though the spinner was always ready.
        assert 0 < spun[0] < 10**6
        assert 0.02 <= waited < 0.5

    def test_blocking_call_that_does_not_wait_runs_outside_the_loop(self):
        log = []
        with StepLoop() as loop:
            loop.add(steps("queued", [0.0], log))
            assert run_steps(steps("blocking", [], log)) == "blocking"
        assert log == [("blocking", 0)]

    def test_generator_that_raises_leaves_no_task_behind(self):
        def failing(wait):
            yield wait
            raise ValueError("boom")

        loop = StepLoop()
        waiting = loop.add(steps("waiting", [0.05], []))
        loop.add(failing(0.0))
        with pytest.raises(ValueError):
            loop.finish(waiting)
        # The generator that raised has left; the one finished goes on.
        assert loop.finish(waiting) == "waiting"
        assert not loop._started and not loop._queued

        with loop, pytest.raises(ValueError):
            run_steps(failing(0.01))
        assert not loop._started and not loop._queued

    def test_nested_with_restores_the_outer_loop(self):
        log = []
        with StepLoop() as outer:
            outer.add(steps("outer", [], log))
            with StepLoop() as inner:
                inner.add(steps("inner", [], log))
            # A blocking call's wait runs the outer loop's queued generator.
            run_steps(steps("blocking", [0.02], log))
        assert log == [("blocking", 0), ("outer", 0), ("blocking", 1)]


class TestLazyStream:
    def test_never_taken_more_than_lookahead_past_last_commit(self, registry, monkeypatch):
        fixed_backoff(monkeypatch, 0.01)
        universe = build_universe(seed=7, n=150)
        committed = [0]
        leads = []

        def stream():
            for taken, candidate in enumerate(universe.candidates, start=1):
                leads.append(taken - committed[0])
                yield candidate

        def on_commit(result):
            committed[0] += 1

        client = client_for(universe_transport(universe), registry, 1)
        select_initial(stream(), client, SelectionState(), target=10_000, on_commit=on_commit)
        assert committed[0] == len(universe.candidates)
        assert max(leads) == discovery.LOOKAHEAD

    def test_window_shrinks_to_target_left(self, registry):
        universe = build_universe(seed=7, n=150)
        taken = []

        def stream():
            for candidate in universe.candidates:
                taken.append(candidate)
                yield candidate

        client = client_for(universe_transport(universe), registry, 0)
        accepted = select_initial(stream(), client, SelectionState(), target=5)
        expected = brute_force_select(universe, quota=2000, target=5)
        assert [r.uri for r in accepted] == [uri for uri, _, _ in expected]
        # The last candidate taken is the one that met the target.
        assert taken[-1][0] == expected[-1][0]


class TestNoThreads:
    @pytest.mark.parametrize("retries", [0, 1])
    def test_scan_starts_no_thread(self, registry, monkeypatch, thread_starts, in_flight, retries):
        fixed_backoff(monkeypatch, 0.01)
        universe = build_universe(seed=3, n=200)
        client = client_for(universe_transport(universe), registry, retries)
        accepted = select_initial(universe.candidates, client, SelectionState())
        assert len(accepted) == len(brute_force_select(universe, quota=2000))
        assert thread_starts == []
        # Without back-off nothing waits, so nothing is resolved ahead.
        assert (in_flight[0] > 1) == (retries > 0)


def scan_config(tmp_path, universe, out, retries):
    source = tmp_path / "moz.txt"
    source.write_text("".join(f"{uri}\n" for uri, _ in universe.candidates))
    return RunConfig(
        out_dir=tmp_path / out,
        aggregator_endpoint=AGG_TEMPLATE,
        moz_path=source,
        min_request_interval=0.0,
        retries=retries,
    )


class TestResume:
    def test_cut_with_resolutions_ahead_resumes_to_uninterrupted_state(
        self, tmp_path, monkeypatch, in_flight
    ):
        fixed_backoff(monkeypatch, 0.05)
        monkeypatch.setattr(pipeline_module, "CHECKPOINT_EVERY", 5)
        universe = build_universe(seed=11, n=120)
        transport = universe_transport(universe)

        def pipeline(out):
            config = scan_config(tmp_path, universe, out, retries=1)
            return DiscoveryPipeline(config, transport=transport, clock=lambda: FIXED)

        whole = pipeline("whole")
        assert whole.run(stop_after="method1") == "method2"
        candidates = len(whole._stream())
        in_flight[0] = 0
        runs = 0
        while True:
            cut = pipeline("cut")
            runs += 1
            if cut.run(stop_after="method1", max_candidates=13) != "method1":
                break
            assert cut.scan_index == 13 * runs
        assert runs == -(-candidates // 13)
        assert in_flight[0] > 1, "the cuts did not exercise the look-ahead"
        assert cut.state_path.read_bytes() == whole.state_path.read_bytes()


class TestPolitenessOnLocalServer:
    def test_per_host_requests_never_overlap_and_stay_spaced(self, mock_server, registry):
        interval = 0.05
        hosts = [f"http://site{h}.example" for h in range(4)]
        stream = []
        for i in range(4):
            stream.append((f"http://busy{i}.example/", "moz"))
            for host in hosts:
                stream.append((f"{host}/p{i}", "moz"))
        for uri, _ in stream:
            if uri.startswith("http://busy"):
                mock_server.add("HEAD", uri, 503)
            else:
                mock_server.add("HEAD", uri, 200, delay=0.005)
                mock_server.add("GET", AGG_TEMPLATE.format(uri=uri), 200, body=timemap_body(uri, 1))
        client = client_for(ServerTransport(mock_server.base_url), registry, 1, interval)

        accepted = select_initial(stream, client, SelectionState())

        # One path segment each, so only a host's first page is accepted.
        assert [r.uri for r in accepted] == [f"{host}/p0" for host in hosts]
        for host in hosts:
            log = sorted((r for r in mock_server.log if r.uri.startswith(f"{host}/")),
                         key=lambda r: r.started)
            assert len(log) == 4
            for earlier, later in zip(log, log[1:]):
                assert later.started >= earlier.finished, f"overlap at {host}"
                gap = later.started - earlier.started
                assert gap >= interval - 0.001, f"{host} spaced {gap:.3f}s"
        busy = [r for r in mock_server.log if r.uri.startswith("http://busy")]
        assert len(busy) == 8  # one retry each
