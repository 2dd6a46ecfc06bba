"""URI-R discovery: source interleaving, the five-condition initial scan
(Method 1), and the top-up of archives below their minimum from HTML links
in raw mementos, published lists and direct TimeMaps (Methods 2-4), three
lazy sources of records that one loop drives; Methods 2 and 3 share ``_lookup``.

Source tags are plain strings: ``moz``, ``memento-damage``,
``httparchive``, and ``wahr:<hashtag>`` for the tweet-derived lists.
"""

from __future__ import annotations

import logging
import re
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import partial
from html.parser import HTMLParser
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping
from urllib.parse import urljoin

from .canonical import RedirectChain, registrable_domain, selection_keys, surt
from .client import ArchiveClient, StepLoop
from .errors import (
    EmptyTimeMap,
    MalformedUri,
    MementosetError,
    NetworkError,
    ParseError,
)
from .linkformat import TimeMapReducer, content_lines, original_link, parse_compact_line
from .model import (
    ArchiveDescriptor,
    Memento,
    OriginalResource,
    PathBucket,
    Provenance,
    TimeMapRecord,
    absolute_uri,
    header_value,
    wayback_split,
)
from .tsv import read_utf8

logger = logging.getLogger(__name__)

MOZ = "moz"
MEMENTO_DAMAGE = "memento-damage"
HTTP_ARCHIVE = "httparchive"
WAHR_PREFIX = "wahr:"

ROUND_SIZE = 10  # URI-Rs taken per source per interleave round
TARGET = 10_000  # URI-Rs the initial scan selects at most, unless given another target
LIST_FORMATS = ("urirs_only", "urirs_and_urims")  # published lists Method 3 reads
# Candidates the initial scan may resolve ahead of its commits. Back-offs
# of candidates this close overlap; farther apart they wait in series.
LOOKAHEAD = 128


def load_source_file(path: str | Path) -> tuple[str, ...]:
    """The URIs of a one-URI-per-line file, in file order; ``#`` comments
    and blanks skipped."""
    return tuple(line for _, line in content_lines(read_utf8(path, str(path))))


def interleave_sources(
    moz: Iterable[str],
    damage: Iterable[str],
    httparchive: Iterable[str],
    wahr_by_hashtag: dict[str, Iterable[str]],
) -> list[tuple[str, str]]:
    """Merge the four sources into one ordered (uri, source_tag) stream.

    Cross-source duplicates are removed first-wins in priority order
    (moz, damage, httparchive, then hashtags as given). Moz leads, then
    the damage set, then alternating rounds of ``ROUND_SIZE`` URIs from
    HTTP Archive and from one hashtag, cycling hashtags between rounds
    and skipping exhausted sources. Each hashtag ``key`` is tagged
    ``wahr:<key>``.
    """
    seen: set[str] = set()

    def uniq(uris: Iterable[str]) -> list[str]:
        out = []
        for u in uris:
            if u not in seen:
                seen.add(u)
                out.append(u)
        return out

    stream = [(u, MOZ) for u in uniq(moz)]
    stream += [(u, MEMENTO_DAMAGE) for u in uniq(damage)]
    ha = uniq(httparchive)
    wahr = {WAHR_PREFIX + key: uniq(uris) for key, uris in wahr_by_hashtag.items()}
    tags = list(wahr)

    ha_pos = 0
    wahr_pos = {tag: 0 for tag in wahr}
    tag_cursor = 0
    while ha_pos < len(ha) or any(wahr_pos[t] < len(wahr[t]) for t in wahr):
        if ha_pos < len(ha):
            chunk = ha[ha_pos : ha_pos + ROUND_SIZE]
            stream += [(u, HTTP_ARCHIVE) for u in chunk]
            ha_pos += len(chunk)
        for _ in range(len(wahr)):
            tag = tags[tag_cursor]
            tag_cursor = (tag_cursor + 1) % len(tags)
            if wahr_pos[tag] < len(wahr[tag]):
                chunk = wahr[tag][wahr_pos[tag] : wahr_pos[tag] + ROUND_SIZE]
                stream += [(u, tag) for u in chunk]
                wahr_pos[tag] += len(chunk)
                break
    return stream


@dataclass
class SelectionState:
    """Bookkeeping for the initial scan's uniqueness and quota conditions."""

    quota_per_bucket: int = 2000
    chosen: set[str] = field(default_factory=set)
    chosen_domains: dict[PathBucket, set[str]] = field(
        default_factory=lambda: {b: set() for b in PathBucket}
    )
    bucket_counts: dict[PathBucket, int] = field(
        default_factory=lambda: {b: 0 for b in PathBucket}
    )

    def bucket_full(self, bucket: PathBucket) -> bool:
        return self.bucket_counts[bucket] >= self.quota_per_bucket

    def all_full(self) -> bool:
        return all(self.bucket_full(b) for b in PathBucket)

    def open_capacity(self) -> int:
        """Admissions left across all buckets."""
        return sum(max(0, self.quota_per_bucket - n) for n in self.bucket_counts.values())

    def admit(self, key: str, bucket: PathBucket, domain: str) -> None:
        if self.bucket_full(bucket):
            raise ValueError(f"bucket {bucket.value} is full")
        self.chosen.add(key)
        self.chosen_domains[bucket].add(domain)
        self.bucket_counts[bucket] += 1

    @classmethod
    def from_resources(
        cls, resources: Iterable[OriginalResource], quota_per_bucket: int
    ) -> "SelectionState":
        """The state after admitting ``resources``, each keyed as the scan
        keys it. Counted without the quota check, so a quota lower than
        the count leaves the bucket full."""
        state = cls(quota_per_bucket)
        for r in resources:
            state.chosen.add(r.canonical_key)
            state.chosen_domains[r.path_bucket].add(registrable_domain(r.final_uri))
            state.bucket_counts[r.path_bucket] += 1
        return state


class MementoCollection:
    """TimeMapRecords keyed by canonical URI-R, with archive tallies.

    Each record holds one memento per archive per year, all of registered
    archives: a ``TimeMapReducer`` given ``get`` as its ``stored`` lookup
    reduces a TimeMap together with the record stored under its key, and
    ``add`` stores what it returns. ``take_changed`` hands out the records
    added or changed since it was last called, for the state journal.
    """

    def __init__(self):
        self._records: dict[str, TimeMapRecord] = {}
        self._urims: dict[str, int] = {}
        self._urirs: dict[str, set[str]] = {}
        self._changed: dict[str, None] = {}  # keys in order of first change

    def __contains__(self, urir_key: str) -> bool:
        return urir_key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[TimeMapRecord]:
        return iter(self._records.values())

    def get(self, urir_key: str) -> TimeMapRecord | None:
        return self._records.get(urir_key)

    def urir_count(self, archive_id: str) -> int:
        return len(self._urirs.get(archive_id, ()))

    def urim_count(self, archive_id: str) -> int:
        return self._urims.get(archive_id, 0)

    def archive_ids(self) -> list[str]:
        """The archives that hold a stored memento."""
        return sorted(a for a, keys in self._urirs.items() if keys)

    def totals(self) -> dict[str, tuple[int, int]]:
        """archive_id -> (urims, urirs)."""
        return {
            a: (self._urims.get(a, 0), len(self._urirs.get(a, ())))
            for a in self.archive_ids()
        }

    def mementos_of(self, archive_id: str) -> list[Memento]:
        """The archive's stored mementos in record-insertion order."""
        out = []
        for record in self._records.values():
            out.extend(m for m in record.mementos if m.archive_id == archive_id)
        return out

    def add(self, record: TimeMapRecord) -> TimeMapRecord:
        """Store the mementos of a reducer's record under its key and return
        the stored record. A record already there keeps its URI-R,
        provenance and fetch time, and takes the new mementos."""
        key = record.urir.canonical_key
        existing = self._records.get(key)
        if existing is not None:
            # The reducer offered the stored mementos first, so each
            # (archive, year) group stored before keeps a winner.
            for m in existing.mementos:
                self._urims[m.archive_id] -= 1
                self._urirs[m.archive_id].discard(key)
            record = existing.with_mementos(record.mementos)
        self._records[key] = record
        self._changed[key] = None
        for m in record.mementos:
            self._urims[m.archive_id] = self._urims.get(m.archive_id, 0) + 1
        for archive_id in {m.archive_id for m in record.mementos}:
            self._urirs.setdefault(archive_id, set()).add(key)
        return record

    def take_changed(self) -> list[TimeMapRecord]:
        """The records added or changed since the last call, as stored now,
        in the order of their first change; a record first added since
        comes after every record stored before it, as in ``records``."""
        changed = [self._records[key] for key in self._changed]
        self._changed.clear()
        return changed


@dataclass(frozen=True, slots=True)
class ScreenResult:
    """Outcome of evaluating one stream candidate."""

    accepted: OriginalResource | None
    record: TimeMapRecord | None
    reason: str


@dataclass(frozen=True, slots=True)
class ResolvedCandidate:
    """The state-free half of screening: where a candidate's redirects
    end and its keys there, or the error that stopped resolution."""

    chain: RedirectChain | None = None
    key: str = ""
    bucket: PathBucket | None = None
    domain: str = ""
    error: str | None = None


def _resolve_steps(uri: str, client: ArchiveClient):
    """Follow a candidate's redirects from the absolute form it is keyed by (a
    bare host as ``http://``) and key its final URI from one parse, as a step
    generator (see ``ArchiveClient.resolve_steps``). A URI the client refuses,
    the candidate or a ``Location``, is an error before any request to it.
    Reads no selection state, so candidates may be resolved in any order."""
    try:
        chain = yield from client.resolve_steps(absolute_uri(uri))
        key, bucket, domain = selection_keys(chain.final_uri)
    except MementosetError as exc:
        logger.info("skipping %s: %s", uri, exc)
        return ResolvedCandidate(error=f"error: {exc}")
    return ResolvedCandidate(chain, key, bucket, domain)


def screen_candidate(
    uri: str,
    source: str,
    client: ArchiveClient,
    state: SelectionState,
    resolved: ResolvedCandidate,
) -> ScreenResult:
    """Evaluate the selection conditions for one candidate URI-R.

    A candidate is accepted when (a) its canonical key is new, (b) its
    path bucket has quota left, (c) its domain is unused in that bucket,
    and (d) its TimeMap holds at least one memento. Network failures
    reject the candidate without aborting the scan. ``resolved`` is the
    candidate's redirect resolution, which ``select_initial`` makes ahead
    in its look-ahead window; the checks, the TimeMap fetch and the
    admission run here, against the current ``state``.
    """
    if resolved.error is not None:
        return ScreenResult(None, None, resolved.error)
    key, bucket, domain = resolved.key, resolved.bucket, resolved.domain
    if key in state.chosen:
        return ScreenResult(None, None, "duplicate resource")
    if state.bucket_full(bucket):
        return ScreenResult(None, None, f"bucket {bucket.value} full")
    if domain in state.chosen_domains[bucket]:
        return ScreenResult(None, None, f"domain {domain} already used in {bucket.value}")
    final = resolved.chain.final_uri
    try:
        # Nothing is stored under the candidate's key, which is new.
        record = client.fetch_timemap_aggregator(final, TimeMapReducer(client.registry))
    except EmptyTimeMap:
        return ScreenResult(None, None, "empty timemap")
    except (NetworkError, ParseError, MalformedUri) as exc:  # a page link the client refuses
        logger.info("timemap fetch failed for %s: %s", uri, exc)
        return ScreenResult(None, None, f"error: {exc}")
    resource = OriginalResource(
        uri=uri,
        canonical_key=key,
        final_uri=final,
        path_bucket=bucket,
        source=source,
        live_status=resolved.chain.terminal_status,
    )
    mementos = record.mementos
    if record.urir.canonical_key != key:
        # The aggregator's rel="original" may name another form of the URI-R.
        mementos = tuple(replace(m, urir_key=key) for m in mementos)
    state.admit(key, bucket, domain)
    return ScreenResult(resource, replace(record, urir=resource, mementos=mementos), "accepted")


def select_initial(
    stream: Iterable[tuple[str, str]],
    client: ArchiveClient,
    state: SelectionState | None = None,
    target: int = TARGET,
    on_commit: Callable[[ScreenResult], None] | None = None,
) -> list[OriginalResource]:
    """Scan the interleaved stream in order until quotas or target are met.

    Candidates commit strictly in stream order: the uniqueness, quota and
    domain checks, the TimeMap fetch, the admission and then ``on_commit``
    for every result, whose ``record`` an accepted candidate carries.
    Redirect resolution, which reads no selection state, runs ahead of
    the commits while requests wait: up to ``LOOKAHEAD`` candidates are
    taken past the last committed one, but never more than the target and
    the open bucket capacity left, so a lazy ``stream`` is never advanced
    past a candidate the in-order scan would not screen, and every
    candidate taken is resolved exactly once. The resolutions and the
    commits' requests share one ``StepLoop``: no thread is started. Each
    host's lane sees the spacing and back-off of a sequential scan.
    """
    state = state if state is not None else SelectionState()
    accepted: list[OriginalResource] = []
    candidates = iter(stream)
    window: deque = deque()  # (uri, source, the loop task resolving uri), in stream order
    with StepLoop() as loop:
        while True:
            room = min(LOOKAHEAD, target - len(accepted), state.open_capacity())
            for uri, source in islice(candidates, max(0, room - len(window))):
                window.append((uri, source, loop.add(_resolve_steps(uri, client))))
            if not window:
                break
            uri, source, task = window.popleft()
            result = screen_candidate(uri, source, client, state, loop.finish(task))
            if result.accepted is not None:
                accepted.append(result.accepted)
            if on_commit is not None:
                on_commit(result)
    return accepted


class _AnchorHrefParser(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []
        self.base: str | None = None  # the href of the first <base> that has one

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            for name, value in attrs:
                if name == "href" and value:
                    self.hrefs.append(value.strip())
                    break
        elif tag == "base" and self.base is None:
            self.base = next(((v or "").strip() for name, v in attrs if name == "href"), None)

    def parse_marked_section(self, i, report=1):
        # html.parser stops with AssertionError at <![bogus[ or <![ [; HTML5,
        # and so this parser, reads such a section as a comment up to ">".
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)


# Byte-order marks and their encodings, the first step of _decoded.
_BOMS = ((b"\xef\xbb\xbf", "utf-8"), (b"\xfe\xff", "utf-16-be"), (b"\xff\xfe", "utf-16-le"))
# The charset a <meta charset> or http-equiv content names. A pattern, not
# compiled at import: re caches it at first use.
_META_CHARSET = rb"""<meta\s[^>]*?charset\s*=\s*["']?\s*([A-Za-z0-9._:+-]+)"""


def _declared_charsets(body: bytes, headers: Mapping[str, str]) -> Iterator[str]:
    """The charsets a page declares, in the order they count: the
    ``Content-Type`` header's, then a ``<meta>``'s in the first 1,024 bytes."""
    for param in (header_value(headers, "Content-Type") or "").split(";")[1:]:
        name, _, value = param.partition("=")
        if name.strip().lower() == "charset":
            yield value.strip().strip("\"'")
    meta = re.search(_META_CHARSET, body[:1024], re.IGNORECASE)
    if meta is not None:
        yield meta.group(1).decode("ascii")


def _decoded(body: bytes, headers: Mapping[str, str]) -> str:
    """``body`` as text, by WHATWG HTML's encoding sniffing cut down: a BOM,
    then a declared charset (``_declared_charsets``), then UTF-8 if the body
    decodes strictly, else windows-1252. A label no standard codec decodes
    with falls through to the next step."""
    for bom, encoding in _BOMS:
        if body.startswith(bom):
            return body[len(bom) :].decode(encoding, errors="replace")
    for label in _declared_charsets(body, headers):
        with suppress(LookupError, ValueError):  # unknown, not text, or no "replace" handler
            return body.decode(label, errors="replace")
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        return body.decode("windows-1252", errors="replace")


def extract_urirs_from_html(
    body: bytes | str, base: str, headers: Mapping[str, str] | None = None
) -> list[str]:
    """Harvest absolute http(s) URI-Rs from ``<a href>`` attributes.

    ``headers`` are the response's. Relative links resolve against the
    page's base URI, in RFC 3986 §5.1's order: the first ``<base href>``,
    wherever it stands (HTML's frozen base URL), resolved against the
    next; the target of a ``Link: <...>; rel="original"`` header, the
    memento's original resource (RFC 7089 §2.2.1); ``base``. Bytes are
    decoded as ``_decoded`` says. Document order is kept and exact-string
    duplicates are dropped. Tolerant of broken markup: non-HTML input
    yields nothing, and an href that is not a URI is skipped.
    """
    headers = headers or {}
    text = _decoded(body, headers) if isinstance(body, bytes) else body
    with suppress(ValueError):  # an unparseable target leaves the given base
        base = urljoin(base, original_link(headers) or "")
    parser = _AnchorHrefParser()
    parser.feed(text)
    parser.close()
    with suppress(ValueError):  # an unparseable <base href> leaves the page's URI
        base = urljoin(base, parser.base or "")
    out: list[str] = []
    seen: set[str] = set()
    for href in parser.hrefs:
        try:
            absolute = urljoin(base, href)
        except ValueError:
            logger.debug("unparseable href %r on %s", href, base)
            continue
        if not absolute.lower().startswith(("http://", "https://")):
            continue
        if absolute in seen:
            continue
        seen.add(absolute)
        out.append(absolute)
    return out


_Fetch = Callable[[str, TimeMapReducer], TimeMapRecord | None]


def _timemap(
    fetch: _Fetch, uri: str, collection: MementoCollection, client: ArchiveClient
) -> TimeMapRecord | None:
    """``fetch(uri, reducer)``, the reducer merging the record stored under
    the TimeMap's key; None also when the TimeMap is empty or fetch failed."""
    try:
        return fetch(uri, TimeMapReducer(client.registry, collection.get))
    except EmptyTimeMap:
        return None
    except (NetworkError, ParseError, MalformedUri) as exc:  # a page link the client refuses
        logger.info("timemap fetch failed for %s: %s", uri, exc)
        return None


def _lookup(
    uris: Iterable[str], fetch: _Fetch, collection: MementoCollection, client: ArchiveClient
) -> Iterator[TimeMapRecord]:
    """Methods 2 and 3's lookup: ``_timemap`` of the absolute form of each of ``uris``
    whose ``surt`` key is neither stored nor tried before in this call, checked when
    a record is asked for. Malformed URIs and empty or failed TimeMaps yield nothing."""
    tried: set[str] = set()
    for uri in uris:
        try:
            uri = absolute_uri(uri)
            key = surt(uri)
        except MalformedUri as exc:
            logger.info("URI skipped: %s", exc)
            continue
        if key in collection or key in tried:
            continue
        tried.add(key)
        record = _timemap(fetch, uri, collection, client)
        if record is not None:
            yield record


def _top_up(
    archive: ArchiveDescriptor,
    collection: MementoCollection,
    records: Iterator[TimeMapRecord],
    min_urirs: int,
) -> list[TimeMapRecord]:
    """Add ``records`` to ``collection`` while ``archive`` holds fewer than
    ``min_urirs`` URI-Rs, and return those added. The next record is pulled
    only below the minimum, so a lazy source makes no request once it is met."""
    added: list[TimeMapRecord] = []
    while collection.urir_count(archive.id) < min_urirs:
        record = next(records, None)
        if record is None:
            break
        collection.add(record)
        added.append(record)
    logger.info("%s: %d new TimeMaps", archive.id, len(added))
    return added


def method2_expand(
    archive: ArchiveDescriptor,
    collection: MementoCollection,
    client: ArchiveClient,
    min_urirs: int,
) -> list[TimeMapRecord]:
    """Grow an underfilled archive from links inside its own mementos.

    Downloads the raw content of the archive's already-collected
    mementos, harvests URI-Rs, and looks them up with ``_lookup``. A
    memento the client downloaded before in the run is skipped. Every
    archive's tallies grow from those TimeMaps, not just the target's.
    Stops at ``min_urirs`` for the target archive.
    """

    def linked() -> Iterator[str]:
        for memento in collection.mementos_of(archive.id):
            try:
                raw = client.fetch_raw_memento(memento)
            except MementosetError as exc:
                logger.info("raw fetch failed for %s: %s", memento.urim, exc)
                continue
            if raw.body is None:
                logger.info("links of %s were read at its first download", memento.urim)
                continue
            base = collection.get(memento.urir_key).urir.final_uri
            yield from extract_urirs_from_html(raw.body, base, raw.headers)

    records = _lookup(linked(), client.fetch_timemap_aggregator, collection, client)
    return _top_up(archive, collection, records, min_urirs)


_ONE_SLASH_SCHEME = re.compile(r"^(https?):/(?!/)", re.IGNORECASE)


def embedded_urir(urim: str) -> str | None:
    """The URI-R a Wayback-style URI-M embeds: the rest after the stamp of
    ``wayback_split``, past an optional ``id_`` and then ``/``. None
    without such a stamp, or when another modifier (``im_``, a ``*``
    query) or nothing follows it. A scheme written with one slash,
    ``http:/example.com``, is read as ``http://example.com``."""
    split = wayback_split(urim)
    if split is None:
        return None
    rest = split[2].removeprefix("id_")
    if not rest.startswith("/") or len(rest) == 1:
        return None
    rest = _ONE_SLASH_SCHEME.sub(r"\1://", rest[1:])
    return rest if rest.lower().startswith(("http://", "https://")) else "http://" + rest


def ingest_published_list(
    path: str | Path,
    list_format: str,
    archive: ArchiveDescriptor,
    collection: MementoCollection,
    client: ArchiveClient,
    min_urirs: int,
) -> list[TimeMapRecord]:
    """Ingest an archive-published URI list until the archive hits its minimum.

    A ``urirs_only`` list holds one URI-R per line, looked up with ``_lookup``;
    a TimeMap counts only if a memento read is the owning archive's. The
    compact lines of a ``urirs_and_urims`` list are grouped by the URI-R each
    URI-M embeds and offered to a reducer by the same lookup, without a
    request. Unusable lines are skipped and logged.
    """
    if list_format not in LIST_FORMATS:
        raise ValueError(f"unknown list format {list_format!r}")

    def owned(uri: str, reducer: TimeMapReducer) -> TimeMapRecord | None:
        record = client.fetch_timemap_aggregator(uri, reducer)
        return record if archive.id in reducer.archives else None

    def listed() -> Iterator[TimeMapRecord]:
        uris = (uri for _, uri in content_lines(read_utf8(path, str(path))))
        yield from _lookup(uris, owned, collection, client)

    def compact() -> Iterator[TimeMapRecord]:
        # Compact lines grouped by their embedded URI-R, reduced without a request.
        groups: dict[str, list[tuple[datetime, str]]] = {}
        for lineno, line in content_lines(read_utf8(path, str(path))):
            try:
                dt, urim = parse_compact_line(line, lineno)
            except ParseError as exc:
                logger.info("line %d skipped: %s", lineno, exc)
                continue
            urir = embedded_urir(urim)
            if urir is None:
                logger.info("line %d skipped: no URI-R embedded in %s", lineno, urim)
                continue
            groups.setdefault(urir, []).append((dt, urim))

        def offered(urir: str, reducer: TimeMapReducer) -> TimeMapRecord:
            for dt, urim in groups[urir]:
                reducer.offer(dt, urim)
            return reducer.record(urir, Provenance.PUBLISHED_LIST, client.clock())

        yield from _lookup(groups, offered, collection, client)

    records = listed() if list_format == "urirs_only" else compact()
    return _top_up(archive, collection, records, min_urirs)


def method4_direct(
    archive: ArchiveDescriptor,
    collection: MementoCollection,
    client: ArchiveClient,
    min_urirs: int,
) -> list[TimeMapRecord]:
    """Grow an underfilled archive from its own TimeMap of each URI-R
    collected so far, in collection order. A direct TimeMap counts only for
    the archive that served it. Stops at ``min_urirs``."""

    def direct() -> Iterator[TimeMapRecord]:
        if not archive.memento_native or not archive.timemap_template:
            return
        fetch = partial(client.fetch_timemap_direct, archive)
        for record in list(collection.records()):
            found = _timemap(fetch, record.urir.final_uri, collection, client)
            if found is not None:
                yield found

    return _top_up(archive, collection, direct(), min_urirs)
