"""The generated inputs, served through ``tests/mockserver.FakeTransport``.

The benchmark injects a ``FakeTransport`` into ``ArchiveClient`` and
``DiscoveryPipeline``, so no socket is opened. A request with no route
fails the way a dead host does, with ``NetworkError``. Raw memento
downloads are made when they are requested, not stored ahead, so the
benchmark's own data stays small beside the program's.

:class:`Web` keeps, apart from the routes, the entries the generator
planted in each TimeMap page. The checkers and the per-layer metrics join
them with the transport's request log.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS) not in sys.path:
    sys.path.append(str(TESTS))

from mockserver import FakeTransport, Route  # noqa: E402

# (method, uri) -> (URI-R the page belongs to or None, planted (urim, stamp) entries)
Planted = tuple[str | None, tuple[tuple[str, str], ...]]


class Routes(dict):
    """A route table that makes raw memento downloads on request.

    ``FakeTransport`` looks routes up with ``get``; a GET with no stored
    route is handed to ``raw``, which returns a ``Route`` or ``None``.
    """

    def __init__(self, raw=None):
        super().__init__()
        self.raw = raw

    def get(self, key, default=None):
        route = dict.get(self, key)
        if route is None and self.raw is not None and key[0] == "GET":
            route = self.raw(key[1])
        return default if route is None else route


@dataclass
class Web:
    routes: Routes = field(default_factory=Routes)
    timemaps: dict[tuple[str, str], Planted] = field(default_factory=dict)

    def add(self, method: str, uri: str, status: int, headers=None, body: bytes = b"") -> None:
        self.routes[(method, uri)] = Route(status, dict(headers or {}), body)

    def add_timemap(self, uri: str, status: int, body: bytes, urir=None, entries=(), headers=None) -> None:
        self.add("GET", uri, status, headers, body)
        self.timemaps[("GET", uri)] = (urir, tuple(entries))

    def transport(self) -> FakeTransport:
        transport = FakeTransport()
        transport.routes = self.routes
        return transport

    def served(self, requests) -> dict[str, list[tuple[str, str]]]:
        """URI-R -> planted entries of every TimeMap page served for it."""
        served: dict[str, list[tuple[str, str]]] = {}
        for key in requests:
            planted = self.timemaps.get(key)
            if planted is not None and planted[0]:
                served.setdefault(planted[0], []).extend(planted[1])
        return served

    def entries_served(self, requests) -> int:
        """Memento entries in the TimeMap pages served."""
        return sum(len(self.timemaps[key][1]) for key in requests if key in self.timemaps)
