"""Network retrieval: TimeMap fetches, raw memento downloads, HEAD probes.

All traffic to one archive flows through a single serial "lane" that
enforces a minimum spacing between requests and stays closed while a
request to it backs off; lanes for different archives run concurrently.
Requests are written as step generators that yield their waits
(``resolve_steps``, and ``_ask_steps`` beneath it). A ``StepLoop`` runs
many of them in one thread and overlaps their waits; it is the only code
in the package that sleeps, and a plain method's wait runs in the thread's
loop. Every operation can be replayed hermetically from a fixture
directory, and a recording transport captures live responses into one.
``requests`` is imported only when a live ``RequestsTransport`` is first
built, so offline paths (replays, ``canon``, ``stats``) load no HTTP
stack. No memento stores its raw URI-M: ``fetch_raw_memento`` derives it
to download, and returns the content with the download's elapsed time. A
URI is sent as given only if ``model.parse_http_uri`` reads it, picking
its lane and memory key; any other (a ``Location``, a TimeMap page link)
raises MalformedUri before any wait.

A client asks each question once per run. It remembers the status,
headers and elapsed time, never the body, of every answer it is sent,
and from that memory it answers every request whose body no caller
reads: a redirect hop (HEAD and the 405/501 GET fallback), a repeated
raw download (its ``body`` is None), and a TimeMap page that answered
404 or an empty 200. A TimeMap page with content is sent each time,
because its reader needs the body, and so is a plain ``request``.
Requests are the same question when their methods match and their URIs
are equivalent under RFC 9110 §4.2.3: scheme and host in any case, the
default port written or not, an empty path or "/", and any fragment,
which §7.1 never sends (``equivalent_uri``). A remembered answer
returns without waiting for its lane, and a request already waiting
asks the memory again after each wait, before it is sent, so look-ahead
resolutions that meet at one URI send one request at any
``min_request_interval``. A network error and an answer still 429/503
after its retries are never remembered.

The memory itself is not persisted. A run resumed inside Method 1 starts
from what its state already says: each stored URI-R's redirect walk
ended at its ``final_uri`` with its ``live_status`` (``remember_resolved``).
That is exact for the walk, the only reader of a HEAD answer: a hop
records only the final status at its URI, whether a HEAD gave it or a
GET after a HEAD 405/501, and a terminal answer ends the walk whatever
its headers. Every other answer, raw downloads' included, starts empty.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import random
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generator, Protocol

from .canonical import RedirectChain, redirect_steps
from .errors import (
    EmptyTimeMap,
    MalformedUri,
    NetworkError,
    NoTimeMapEndpoint,
    PermanentNetworkError,
    RawAccessUnsupported,
    UnknownArchive,
)
from .linkformat import TimeMapReader
from .model import (
    ArchiveDescriptor,
    ArchiveRegistry,
    Classification,
    Memento,
    Provenance,
    TimeMapRecord,
    check_fields,
    classify_response,
    header_value,
    parse_http_datetime,
    parse_http_uri,
    raw_variant,
)

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

# LANL-compatible; MemGator deployments use the same /timemap/link/ shape.
DEFAULT_AGGREGATOR_TEMPLATE = "http://timetravel.mementoweb.org/timemap/link/{uri}"

USER_AGENT = "mementoset/0.1 (+research dataset collection)"

# Pages one TimeMap fetch may follow through rel="timemap" links.
MAX_TIMEMAP_PAGES = 1000

# Statuses a request retries; an answer still one of them after its
# retries is returned to the caller as it is.
RETRIED_STATUSES = (429, 503)

# A blocking operation written as a generator: it yields each wait, in
# seconds, that it needs before it can go on, and returns its result.
Steps = Generator[float, None, object]


def equivalent_uri(uri: str) -> str:
    """The one form of ``uri`` that every http(s) URI equivalent to it
    under RFC 9110 §4.2.3 takes: scheme and host in lower case, no default
    port, "/" for an empty path, and no fragment. Userinfo, path and query
    stay as written. MalformedUri when ``model.parse_http_uri`` refuses ``uri``."""
    return parse_http_uri(uri).equivalent


@dataclass(frozen=True, slots=True)
class TransportResponse:
    status: int
    headers: dict[str, str]
    body: bytes


class Transport(Protocol):
    def request(self, method: str, uri: str) -> TransportResponse: ...


@dataclass(frozen=True)
class FetchPolicy:
    """Politeness knobs; each archive always gets one serial lane. The
    class attributes are the defaults of a run, a CLI command and a
    transport that name none."""

    min_request_interval: float = 1.0  # seconds between requests to one archive
    retries: int = 3
    timeout: float = 30.0

    def __post_init__(self):
        check_fields(self, positive=("timeout",), nonnegative=("min_request_interval", "retries"))


def _is_permanent(exc: requests.RequestException) -> bool:
    """An unsendable URL, or a connection that failed on name resolution
    or was refused: the causes a retry cannot mend."""
    from requests.exceptions import InvalidSchema, InvalidURL, MissingSchema

    if isinstance(exc, (InvalidURL, MissingSchema, InvalidSchema)):
        return True
    # requests passes on urllib3's MaxRetryError, whose ``reason`` was
    # raised while handling the socket error.
    reason = getattr(exc.args[0], "reason", None) if exc.args else None
    cause = reason.__cause__ or reason.__context__ if reason is not None else None
    return isinstance(cause, (socket.gaierror, ConnectionRefusedError))


class RequestsTransport:
    """Live HTTP transport; redirects are never followed implicitly."""

    def __init__(self, timeout: float):
        import requests

        self.timeout = timeout
        self._session = requests.Session()
        self._session.headers["User-Agent"] = USER_AGENT

    def request(self, method, uri) -> TransportResponse:
        import requests

        try:
            resp = self._session.request(
                method, uri, allow_redirects=False, timeout=self.timeout
            )
            body = b"" if method == "HEAD" else resp.content
            return TransportResponse(resp.status_code, dict(resp.headers), body)
        except requests.RequestException as exc:
            error = PermanentNetworkError if _is_permanent(exc) else NetworkError
            raise error(f"{method} {uri}: {exc}") from exc


class FixtureStore:
    """Directory of canned responses keyed by request method + URI."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @staticmethod
    def key(method: str, uri: str) -> str:
        return hashlib.sha256(f"{method.upper()} {uri}".encode()).hexdigest()

    def _path(self, method: str, uri: str) -> Path:
        return self.root / f"{self.key(method, uri)}.json"

    def save(self, method: str, uri: str, response: TransportResponse) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "method": method.upper(),
            "uri": uri,
            "status": response.status,
            "headers": response.headers,
            "body_b64": base64.b64encode(response.body).decode("ascii"),
        }
        # A save cut short leaves the fixture as it was, never a truncated one.
        path = self._path(method, uri)
        tmp = path.with_suffix(".json.tmp")
        try:
            tmp.write_text(json.dumps(payload, indent=1), "utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def load(self, method: str, uri: str) -> TransportResponse | None:
        path = self._path(method, uri)
        try:
            payload = json.loads(path.read_text("utf-8"))
            return TransportResponse(
                payload["status"],
                dict(payload["headers"]),
                base64.b64decode(payload["body_b64"], validate=True),
            )
        except FileNotFoundError:
            return None
        except KeyError as exc:
            raise PermanentNetworkError(f"fixture {path} lacks the key {exc}") from None
        except (ValueError, TypeError) as exc:  # not JSON, not an object, or bad base64
            raise PermanentNetworkError(f"fixture {path} does not decode: {exc}") from None


class FixtureTransport:
    """Replays recorded responses; unknown requests fail loudly."""

    def __init__(self, root: str | Path):
        self.store = FixtureStore(root)

    def request(self, method, uri) -> TransportResponse:
        found = self.store.load(method, uri)
        if found is None:
            raise PermanentNetworkError(f"no fixture recorded for {method} {uri}")
        return found


class RecordingTransport:
    """Passes requests to a live transport and captures the responses."""

    def __init__(self, inner: Transport, root: str | Path):
        self.inner = inner
        self.store = FixtureStore(root)

    def request(self, method, uri) -> TransportResponse:
        response = self.inner.request(method, uri)
        self.store.save(method, uri, response)
        return response


def open_transport(
    fixtures: str | Path | None = None,
    record: str | Path | None = None,
    timeout: float = FetchPolicy.timeout,
) -> Transport:
    """Replay ``fixtures`` if given, else go live, recording into ``record`` if given."""
    if fixtures:
        return FixtureTransport(fixtures)
    live = RequestsTransport(timeout)
    return RecordingTransport(live, record) if record else live


_thread = threading.local()  # holds the ``StepLoop`` this thread entered


@dataclass(slots=True)
class _Task:
    """A step generator in a ``StepLoop``, when its last wait ends, and its value."""

    steps: Steps
    ready_at: float
    done: bool
    value: object


class StepLoop:
    """Runs step generators together in one thread, overlapping their waits.

    Each turn advances the first started generator, in start order, whose
    wait is over; else it starts the next queued one, so a queued generator
    starts only while every started one waits; else it sleeps until the
    first wait ends. Entered with ``with``, the loop is its thread's own:
    a blocking call made in the thread (``run_steps``) runs in it ahead of
    every other generator, so it goes on as soon as its own wait ends.
    """

    def __init__(self):
        self._started: deque[_Task] = deque()
        self._queued: deque[_Task] = deque()

    def __enter__(self) -> "StepLoop":
        self._outer = getattr(_thread, "loop", None)
        _thread.loop = self
        return self

    def __exit__(self, *exc_info) -> None:
        _thread.loop = self._outer

    def add(self, steps: Steps) -> _Task:
        """Queue ``steps``; the handle ``finish`` takes."""
        task = _Task(steps, 0.0, False, None)
        self._queued.append(task)
        return task

    def finish(self, task: _Task):
        """Run turns until ``task``'s generator returns, and give its value.
        A generator that raises leaves the loop, and its error propagates."""
        while not task.done:
            now = time.monotonic()
            ready = next((t for t in self._started if t.ready_at <= now), None)
            if ready is None and self._queued:
                ready = self._queued.popleft()
                self._started.append(ready)
            if ready is not None:
                self._advance(ready)
            else:
                time.sleep(min(t.ready_at for t in self._started) - now)
        return task.value

    def _advance(self, task: _Task) -> None:
        task.done = True  # unless it yields a wait: a generator that raises is done
        try:
            wait = next(task.steps)
            task.ready_at, task.done = time.monotonic() + wait, False
        except StopIteration as stop:
            task.value = stop.value
        finally:
            if task.done:
                self._started.remove(task)


def run_steps(steps: Steps):
    """Drive a step generator to its return value. One that waits runs in
    the thread's entered ``StepLoop``, or else in a loop of its own, ahead
    of the loop's other generators."""
    try:
        wait = next(steps)
    except StopIteration as stop:
        return stop.value
    loop = getattr(_thread, "loop", None) or StepLoop()
    task = _Task(steps, time.monotonic() + wait, False, None)
    loop._started.appendleft(task)
    return loop.finish(task)


class _Lane:
    """One attempt at a time, spaced from the end of the previous one, and
    none while a request to the lane backs off."""

    def __init__(self):
        self.lock = threading.Lock()
        self.last_done = 0.0
        self.closed_until = 0.0


@dataclass(frozen=True, slots=True)
class _Answer:
    """What one request told the run, its body dropped: the client's memory."""

    status: int
    headers: dict[str, str]
    elapsed: float  # seconds from the request's start to its answer
    empty: bool  # the body was empty or only whitespace


def _always(answer: _Answer) -> bool:
    return True


def _never(answer: _Answer) -> bool:
    return False


def _lists_nothing(answer: _Answer) -> bool:
    """A TimeMap page that answered 404 or an empty 200."""
    return answer.status == 404 or (answer.status == 200 and answer.empty)


@dataclass(frozen=True, slots=True)
class RawContent:
    """Result of downloading a memento's unaltered content, and its cost
    for the budget; ``body`` is None when the client answers from what the
    run was told before, and ``elapsed`` is then that download's."""

    status: int
    headers: dict[str, str]
    body: bytes | None
    classification: Classification
    elapsed: float  # wall-clock seconds from the download's start to its answer


class ArchiveClient:
    """Rate-limited fetch operations against archives and aggregators.

    Thread-safe: many workers may call into one client; each archive's
    lane serializes and spaces their attempts. The client is a run's
    memory (see the module docstring): it sends each redirect hop, raw
    download and empty TimeMap page once, up to RFC 9110 URI equivalence,
    so a run shares one client. A network error, an answer still 429/503
    after its retries and a TimeMap page with content are asked again; a
    resumed run, in a new client, starts with the redirect walks its state
    records ended (``remember_resolved``) and nothing else remembered. The
    memory holds no body: a repeated raw download's ``body`` is None.
    """

    def __init__(
        self,
        registry: ArchiveRegistry,
        policy: FetchPolicy | None = None,
        transport: Transport | None = None,
        aggregator_template: str | None = None,
        clock: Callable[[], datetime] | None = None,
    ):
        template = aggregator_template or DEFAULT_AGGREGATOR_TEMPLATE
        rest = template.replace("{uri}", "", 1)
        if rest == template or "{" in rest or "}" in rest:
            raise ValueError(f"aggregator template needs one field, {{uri}}: {template}")
        self.registry = registry
        self.policy = policy or FetchPolicy()
        self.transport = transport or open_transport(timeout=self.policy.timeout)
        self.aggregator_template = template
        self.clock = clock or (lambda: datetime.now(timezone.utc))
        self._lanes: dict[str, _Lane] = {}
        self._lanes_lock = threading.Lock()
        # (method, equivalent URI) -> what the request told; dict.get,
        # setdefault and item assignment are atomic, so threads share it
        # without a lock.
        self._answers: dict[tuple[str, str], _Answer] = {}

    def _lane(self, host: str) -> _Lane:
        match = self.registry.match_host(host)
        key = f"archive:{match.id}" if match else f"host:{host}"
        with self._lanes_lock:
            lane = self._lanes.get(key)
            if lane is None:
                lane = self._lanes[key] = _Lane()
        return lane

    def request(self, method: str, uri: str) -> TransportResponse:
        """One polite request: lane spacing, retries with backoff. It is
        always sent, since its caller reads the body, which the memory
        does not keep; what it tells is remembered.

        A :class:`PermanentNetworkError` is raised after its one attempt;
        other network errors, 429 and 503 are retried.
        """
        response, _ = run_steps(self._ask_steps(method, uri, _never))
        return response

    def remember_resolved(self, final_uri: str, status: int) -> None:
        """Remember that a redirect walk ended at ``final_uri`` with
        ``status``, as a resumed run's stored URI-R says: a HEAD to a URI
        equivalent to it then answers ``status``, with no headers, and is
        not sent. An answer already held is kept, a 429/503 is never
        remembered, and a 405/501 is the HEAD's alone, so the walk still
        sends its GET. A ``final_uri`` that does not parse is skipped: a
        request to it raises MalformedUri before it asks the memory."""
        if status in RETRIED_STATUSES:
            return
        try:
            key = "HEAD", equivalent_uri(final_uri)
        except MalformedUri:
            return
        self._answers.setdefault(key, _Answer(status, {}, 0.0, True))

    def _ask_steps(
        self, method: str, uri: str, usable: Callable[[_Answer], bool] = _always
    ) -> Steps:
        """One request through the run's memory, as a step generator: it
        yields each wait in seconds, for lane spacing or back-off, instead
        of sleeping; a back-off closes the lane to every request until it
        ends. Returns ``(response, answer)``: ``answer`` is what the request
        told, and ``response`` the transport's, body included, or None when
        a remembered answer that ``usable`` accepts was found, at once or
        after any wait for the lane. Every answer but a 429/503 is
        remembered. MalformedUri, before any wait, when ``model.parse_http_uri``
        refuses ``uri``."""
        parsed = parse_http_uri(uri)
        key = method, parsed.equivalent

        def recall() -> _Answer | None:
            answer = self._answers.get(key)
            return answer if answer is not None and usable(answer) else None

        lane = self._lane(parsed.host)
        started = time.monotonic()
        last_error: NetworkError | None = None
        response = None
        for attempt in range(self.policy.retries + 1):
            response, last_error = yield from self._attempt(lane, method, uri, recall)
            if isinstance(response, _Answer):
                return None, response
            if response is not None and response.status not in RETRIED_STATUSES:
                break
            if attempt == self.policy.retries or isinstance(last_error, PermanentNetworkError):
                break
            delay = self._backoff_delay(method, uri, attempt, response)
            with lane.lock:
                lane.closed_until = max(lane.closed_until, time.monotonic() + delay)
        if last_error is not None:
            raise last_error
        elapsed, body = time.monotonic() - started, response.body
        answer = _Answer(response.status, response.headers, elapsed, not body or body.isspace())
        if response.status not in RETRIED_STATUSES:  # else: exhausted retries; caller classifies
            self._answers[key] = answer
        return response, answer

    def _attempt(self, lane, method, uri, recall):
        """Yields waits until the lane opens, then sends once: (response,
        error), or (remembered answer, None) as soon as ``recall`` gives
        one. The one place a request reaches the transport."""
        while True:
            known = recall()
            if known is not None:
                return known, None
            with lane.lock:
                opens = max(lane.last_done + self.policy.min_request_interval, lane.closed_until)
                wait = opens - time.monotonic()
                if wait <= 0:
                    try:
                        return self.transport.request(method, uri), None
                    except NetworkError as exc:
                        return None, exc
                    finally:
                        lane.last_done = time.monotonic()
            yield wait

    def _backoff_delay(
        self, method: str, uri: str, attempt: int, response: TransportResponse | None
    ) -> float:
        """``Retry-After`` in seconds or as an HTTP-date (RFC 9110 §10.2.3),
        capped at the timeout; else exponential back-off plus a jitter seeded by the request."""
        retry_after = header_value(response.headers, "Retry-After") if response is not None else None
        if retry_after:
            retry_after = retry_after.strip()
            if retry_after.isascii() and retry_after.isdigit():  # "²".isdigit() too
                return min(float(retry_after), self.policy.timeout)
            try:
                until = parse_http_datetime(retry_after)
            except ValueError:
                pass
            else:
                wait = (until - datetime.now(timezone.utc)).total_seconds()
                return min(max(0.0, wait), self.policy.timeout)
        return 0.5 * (2**attempt) + random.Random(f"{method} {uri} {attempt}").uniform(0, 0.1)

    # -- fetch operations ------------------------------------------------

    def _read_pages(self, first_uri: str, read: Callable[[bytes], list[str]]) -> int:
        """GET a TimeMap and follow rel="timemap" pages transitively: each
        page's body goes to ``read``, which returns the page's links to
        pages. Returns the number of pages read."""
        queue = deque([first_uri])
        visited: set[str] = set()
        pages = 0
        while queue:
            uri = queue.popleft()
            if uri in visited:
                continue
            if len(visited) == MAX_TIMEMAP_PAGES:
                raise NetworkError(f"{first_uri}: more than {MAX_TIMEMAP_PAGES} TimeMap pages")
            visited.add(uri)
            response, answer = run_steps(self._ask_steps("GET", uri, _lists_nothing))
            if _lists_nothing(answer):
                continue
            if answer.status != 200:
                raise NetworkError(f"GET {uri}: status {answer.status}")
            queue.extend(target for target in read(response.body) if target not in visited)
            pages += 1
        return pages

    def _fetch_record(
        self,
        template: str,
        urir: str,
        provenance: Provenance,
        reader: TimeMapReader | None,
        archive: ArchiveDescriptor | None = None,
    ) -> TimeMapRecord:
        """The TimeMap at ``template`` for ``urir``, every page read by
        ``reader`` (by default one that keeps every memento), and the record
        ``reader`` gives of them; ``archive``, when given, served every page.
        EmptyTimeMap when the TimeMap lists no memento."""
        if reader is None:
            reader = TimeMapReader(self.registry)
        if not self._read_pages(template.format(uri=urir), lambda body: reader.read(body, archive)):
            raise EmptyTimeMap(urir)
        record = reader.record(urir, provenance, self.clock())
        if not reader.mementos:
            raise EmptyTimeMap(urir)
        return record

    def fetch_timemap_aggregator(
        self, urir: str, reader: TimeMapReader | None = None
    ) -> TimeMapRecord:
        """Aggregated TimeMap for a URI-R; EmptyTimeMap when never archived.
        The record is what ``reader`` makes of the TimeMap: with a
        ``TimeMapReducer``, the mementos it keeps; by default, every memento."""
        return self._fetch_record(self.aggregator_template, urir, Provenance.AGGREGATOR, reader)

    def fetch_timemap_direct(
        self, archive: ArchiveDescriptor, urir: str, reader: TimeMapReader | None = None
    ) -> TimeMapRecord:
        """TimeMap straight from one archive, bypassing aggregator caches.
        Everything in it belongs to the archive that served it. ``reader``
        as in ``fetch_timemap_aggregator``."""
        if not archive.memento_native or not archive.timemap_template:
            raise NoTimeMapEndpoint(archive.id)
        return self._fetch_record(
            archive.timemap_template, urir, Provenance.DIRECT_ARCHIVE, reader, archive
        )

    def fetch_raw_memento(self, memento: Memento) -> RawContent:
        """A memento's unaltered content, and the download's wall-clock
        cost, for budget estimation.

        The raw URI-M is ``raw_variant`` of the URI-M under the
        ``raw_scheme`` of its archive in this client's registry: it is
        RawAccessUnsupported, before any request, to download a memento of
        no archive, of one the registry does not hold or of scheme ``none``,
        or a URI-M of no raw variant: one without a Wayback stamp or with a
        modifier after it, such as ``im_``. A download the run was
        answered before sends no request: it returns that answer's status,
        headers, classification and ``elapsed``, with ``body`` None. A
        network error, or an answer still 429/503 after its retries, is not
        remembered, so the next call tries again.
        """
        try:
            raw = raw_variant(memento.urim, self.registry.get(memento.archive_id).raw_scheme)
        except UnknownArchive:  # no archive, or one this client's registry does not hold
            raw = None
        if raw is None:
            raise RawAccessUnsupported(memento.urim)
        response, answer = run_steps(self._ask_steps("GET", raw))
        return RawContent(
            status=answer.status,
            headers=answer.headers,
            body=None if response is None else response.body,
            classification=classify_response(answer.status, answer.headers),
            elapsed=answer.elapsed,
        )

    def resolve(self, uri: str) -> RedirectChain:
        """Redirect resolution routed through the polite request lanes."""
        return run_steps(self.resolve_steps(uri))

    def resolve_steps(self, uri: str) -> Steps:
        """``resolve`` as a step generator: yields each wait in seconds
        instead of sleeping, and returns the chain."""
        walk = redirect_steps(uri)
        try:
            method, target = next(walk)
            while True:
                _, answer = yield from self._ask_steps(method, target)
                method, target = walk.send((answer.status, answer.headers))
        except StopIteration as done:
            return done.value
