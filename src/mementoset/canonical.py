"""URI canonicalization (SURT form), redirect resolution and path bucketing.

These are the predicates the initial-selection scan uses to decide
whether two URI-Rs are the same page and where a page sits in the
path-length quota buckets. Each reads a URI-R as written, a bare host as
``http://`` (``model.absolute_uri``), or one ``model.parse_http_uri`` read.

Redirect resolution does no I/O of its own: ``redirect_steps`` is the
walk as a generator that yields each request and is sent its response.
``ArchiveClient.resolve_steps`` is the one driver, so every hop goes
through the client's rate-limited lanes, memory, retries and User-Agent;
resolve a URI with ``ArchiveClient.resolve``.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Generator, Mapping
from urllib.parse import urljoin

from .errors import HopLimitExceeded, MalformedUri, RedirectLoop
from .model import HttpUri, OriginalResource, PathBucket, absolute_uri, header_value
from .model import kept_uri, parse_http_uri  # kept_uri: importable from here, as before

logger = logging.getLogger(__name__)

MAX_HOPS = 10

# Yields (method, uri), is sent (status, headers), returns the chain.
RedirectSteps = Generator[tuple[str, str], tuple[int, Mapping[str, str]], "RedirectChain"]

_WWW_LABEL = re.compile(r"^www\d*$")


def surt(uri: str | HttpUri) -> str:
    """Canonicalize to a Sort-friendly URI Reordering Transform string.

    Committed rule set, applied deterministically:
    host lowercased; one leading ``www`` label (digit suffix allowed)
    stripped; host labels reversed and comma-joined, then ``)``; default
    ports 80/443 dropped, other ports kept; fragment dropped; path and
    query kept verbatim; empty path rendered ``/``.

    So ``http://www.EXAMPLE.com:80`` and ``https://example.com/`` both map
    to ``com,example)/`` -- the scheme never distinguishes resources.
    """
    u = uri if isinstance(uri, HttpUri) else parse_http_uri(absolute_uri(uri))
    labels = u.host.rstrip(".").split(".")
    if len(labels) > 1 and _WWW_LABEL.match(labels[0]):
        labels = labels[1:]
    key = ",".join(reversed(labels))
    if u.port is not None and u.port not in (80, 443):
        key += f":{u.port}"
    path = u.path or "/"
    if u.query:
        path += "?" + u.query
    return f"{key}){path}"


def unsurt(key: str) -> str:
    """Rebuild an http URI from a SURT string (inverse up to scheme/www)."""
    head, sep, path = key.partition(")")
    if not sep:
        raise MalformedUri(key, "not a SURT string")
    hostpart, _, port = head.partition(":")
    host = ".".join(reversed(hostpart.split(",")))
    if not host:
        raise MalformedUri(key, "not a SURT string")
    netloc = f"{host}:{port}" if port else host
    return f"http://{netloc}{path or '/'}"


_BUCKETS = tuple(PathBucket)


def path_length(uri: str | HttpUri) -> PathBucket:
    """Bucket by count of nonempty path segments (4 or more collapse).

    Query string, fragment, and trailing slashes never affect the bucket.
    """
    u = uri if isinstance(uri, HttpUri) else parse_http_uri(absolute_uri(uri))
    n = sum(1 for seg in u.path.split("/") if seg)
    return _BUCKETS[min(n, 4)]


# Common multi-label public suffixes; enough for the archive domains we
# track and typical selection streams. Not a full public-suffix list.
_TWO_LEVEL_SUFFIXES = frozenset(
    {
        "ac.uk", "co.uk", "gov.uk", "ltd.uk", "me.uk", "net.uk", "nhs.uk",
        "org.uk", "plc.uk", "sch.uk",
        "gc.ca", "on.ca", "qc.ca", "bc.ca", "ab.ca",
        "com.au", "net.au", "org.au", "edu.au", "gov.au", "id.au",
        "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
        "co.nz", "net.nz", "org.nz", "govt.nz",
        "co.za", "org.za", "web.za",
        "com.br", "net.br", "org.br", "gov.br",
        "com.cn", "net.cn", "org.cn", "gov.cn",
        "com.mx", "com.ar", "com.tr", "com.tw", "com.sg", "com.hk",
        "co.in", "net.in", "org.in", "gov.in", "ac.in",
        "co.kr", "or.kr", "go.kr",
        "com.es", "org.es", "gob.es",
        "co.il", "org.il", "gov.il",
        "com.ua", "gov.ua", "in.ua",
    }
)


def registrable_domain(host_or_uri: str | HttpUri) -> str:
    """Host minus its public suffix (``a.b.example.co.uk`` -> ``example.co.uk``).

    A bare host is read as ``http://host``. Uses an embedded table of
    common two-level suffixes rather than a full public-suffix list;
    callers that need exact matching can compare full hosts instead.
    """
    u = host_or_uri
    u = u if isinstance(u, HttpUri) else parse_http_uri(absolute_uri(u))
    host = u.host.rstrip(".")
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    if ".".join(labels[-2:]) in _TWO_LEVEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


@dataclass(frozen=True, slots=True)
class RedirectChain:
    """The hops an HTTP HEAD walk took, ending at a non-redirect."""

    hops: tuple[tuple[str, int], ...]
    final_uri: str
    terminal_status: int


def redirect_steps(uri: str) -> RedirectSteps:
    """Follow 3xx Location hops until a non-redirect response.

    A generator: yields each ``(method, uri)`` to request and must be sent
    its ``(status, headers)``; returns the ``RedirectChain``. HEAD is tried
    first and replaced by a body-discarding GET when the server rejects
    it (405/501). Relative Locations resolve against the current URI.
    Raises RedirectLoop on a repeated URI, HopLimitExceeded past
    ``MAX_HOPS``.
    """
    current = uri
    seen = {current}
    hops: list[tuple[str, int]] = []
    for _ in range(MAX_HOPS):
        status, headers = yield "HEAD", current
        if status in (405, 501):
            status, headers = yield "GET", current
        hops.append((current, status))
        if not 300 <= status <= 399:
            return RedirectChain(tuple(hops), current, status)
        location = header_value(headers, "Location")
        if not location:
            logger.warning("redirect without Location at %s (%d)", current, status)
            return RedirectChain(tuple(hops), current, status)
        nxt = urljoin(current, location.strip())
        if nxt in seen:
            raise RedirectLoop(nxt, [h[0] for h in hops])
        seen.add(nxt)
        current = nxt
    raise HopLimitExceeded(MAX_HOPS, [h[0] for h in hops])


def selection_keys(uri: str) -> tuple[str, PathBucket, str]:
    """``surt``, ``path_length`` and ``registrable_domain`` of ``uri``, from
    one parse: what the initial scan's conditions read of a final URI."""
    u = parse_http_uri(absolute_uri(uri))
    return surt(u), path_length(u), registrable_domain(u)


def original_resource(uri: str) -> OriginalResource:
    """The OriginalResource of the URI-R ``uri`` as written, keyed and
    bucketed by it; its ``final_uri`` is ``uri``'s absolute form."""
    absolute = absolute_uri(uri)
    u = parse_http_uri(absolute)
    return OriginalResource(
        uri=uri, canonical_key=surt(u), final_uri=absolute, path_bucket=path_length(u)
    )
