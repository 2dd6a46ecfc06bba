"""Test doubles for HTTP: an in-memory transport and a real local server.

Both speak the client's Transport protocol but route by *logical* URI
(e.g. ``http://www.fb.com``) so tests can script archive behavior without
DNS. The local server additionally records request timing for politeness
assertions; the transport tunnels the logical URI percent-encoded in the
request path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import quote, unquote

import requests
from requests.adapters import HTTPAdapter

from mementoset.client import TransportResponse
from mementoset.errors import NetworkError


@dataclass
class Route:
    status: int = 200
    headers: dict = field(default_factory=dict)
    body: bytes = b""
    delay: float = 0.0


class FakeTransport:
    """Dict-backed transport; raises NetworkError for unknown requests."""

    def __init__(self):
        self.routes: dict[tuple[str, str], Route | list[Route]] = {}
        self.requests: list[tuple[str, str]] = []

    def add(self, method, uri, status=200, headers=None, body=b"", delay=0.0):
        if isinstance(body, str):
            body = body.encode()
        self.routes[(method.upper(), uri)] = Route(status, dict(headers or {}), body, delay)

    def add_sequence(self, method, uri, routes):
        """Consecutive calls pop successive responses (last one sticks)."""
        self.routes[(method.upper(), uri)] = list(routes)

    def request(self, method, uri) -> TransportResponse:
        self.requests.append((method.upper(), uri))
        route = self.routes.get((method.upper(), uri))
        if isinstance(route, list):
            route = route.pop(0) if len(route) > 1 else route[0]
        if route is None:
            raise NetworkError(f"no fake route for {method} {uri}")
        if isinstance(route, Exception):
            raise route
        if route.delay:
            time.sleep(route.delay)
        return TransportResponse(route.status, dict(route.headers), route.body)


@dataclass
class LoggedRequest:
    started: float
    finished: float
    method: str
    uri: str


class MockArchiveServer:
    """Threaded localhost HTTP server scripted with logical-URI routes.

    Each request is logged with the time its handler started and the time
    it finished writing the response. A client can hold a response whose
    request is not logged yet, so ``log`` and ``requests_for`` wait until
    no handler is in flight.
    """

    def __init__(self):
        self.routes: dict[tuple[str, str], Route] = {}
        self._log: list[LoggedRequest] = []
        self._in_flight = 0
        self._idle = threading.Condition()
        self._httpd: ThreadingHTTPServer | None = None

    def add(self, method, uri, status=200, headers=None, body=b"", delay=0.0):
        if isinstance(body, str):
            body = body.encode()
        self.routes[(method.upper(), uri)] = Route(status, dict(headers or {}), body, delay)

    @property
    def log(self) -> list[LoggedRequest]:
        with self._idle:
            self._idle.wait_for(lambda: self._in_flight == 0)
            return list(self._log)

    def requests_for(self, host_fragment: str) -> list[LoggedRequest]:
        return [r for r in self.log if host_fragment in r.uri]

    def start(self) -> str:
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _serve(self, send_body: bool):
                with server._idle:
                    server._in_flight += 1
                try:
                    self._respond(send_body)
                finally:
                    with server._idle:
                        server._in_flight -= 1
                        server._idle.notify_all()

            def _respond(self, send_body: bool):
                started = time.monotonic()
                logical = unquote(self.path.lstrip("/"))
                route = server.routes.get((self.command, logical))
                if route is None:
                    route = Route(status=404, body=b"not found")
                if route.delay:
                    time.sleep(route.delay)
                body = route.body if send_body else b""
                self.send_response(route.status)
                for name, value in route.headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if body:
                    self.wfile.write(body)
                finished = time.monotonic()
                with server._idle:
                    server._log.append(LoggedRequest(started, finished, self.command, logical))

            def do_GET(self):
                self._serve(send_body=True)

            def do_HEAD(self):
                self._serve(send_body=False)

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=self._httpd.serve_forever, daemon=True).start()
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def stop(self):
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None


class ServerTransport:
    """Transport that tunnels logical URIs to a MockArchiveServer.

    Its connection pool holds one connection per bundled archive, so the
    client's 17 lanes each keep theirs."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url
        self.timeout = timeout
        self._session = requests.Session()
        self._session.mount("http://", HTTPAdapter(pool_maxsize=17))

    def request(self, method, uri) -> TransportResponse:
        tunneled = f"{self.base_url}/{quote(uri, safe='')}"
        try:
            resp = self._session.request(
                method, tunneled, allow_redirects=False, timeout=self.timeout
            )
            body = b"" if method == "HEAD" else resp.content
            return TransportResponse(resp.status_code, dict(resp.headers), body)
        except requests.RequestException as exc:
            raise NetworkError(f"{method} {uri}: {exc}") from exc
