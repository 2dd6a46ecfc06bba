"""application/link-format TimeMap parsing, compact format, yearly filter.

TimeMaps (RFC 7089 section 5.1) are split by the RFC 6690 section 2 rule:
a document is a comma-separated list of link-values, each a
``<URI-Reference>`` followed by ``;``-separated link-params whose values
may be quoted-strings. A comma separates members only outside ``<...>``
and quotes, a semicolon separates params only outside quotes, and inside
quotes a backslash escapes the next character. An unterminated ``<`` or
``"`` runs to the end of the text.

Most members of a real TimeMap have one plain form,
``<target>; rel="..."; datetime="..."``: the two params in that order with
lowercase names, single spaces, no whitespace at either end of the target,
rel values separated by single spaces, and an IMF-fixdate (RFC 9110
section 5.6.7) as the datetime. Such a member is read directly by one
pattern, in ``parse_link_entries`` only. Every other member goes through
the RFC 6690 split above.

A :class:`TimeMapReader` is the one code that turns a TimeMap's members,
or a list's (datetime, URI-M) pairs, into ``Memento`` objects: it holds
the rules of the ``rel="original"``, the URI-R hint, undated mementos and
archive attribution. ``parse_timemap``, ``parse_compact`` and a fetch
without a reader keep every memento it reads. The pipeline does not build
the TimeMaps it fetches: its subclass :class:`TimeMapReducer` reduces each
one while it reads it, page by page, to the first memento per archive per
year, and builds a ``Memento`` only for those. It is the one place that
rule is written; the collection stores what it returns. To keep the first
of each URI-M it notes every URI-M read. A URI-M of the Wayback shape, a
head, a 14-digit stamp and a rest, split by ``model.wayback_split`` as raw
downloads and published lists split it, is noted by its stamp, 8 bytes in
one sorted ``array('q')`` per (head, rest) pair while the pair's stamps arrive
in increasing order, as an aggregator lists them; a stamp that arrives out
of order and is not in the array is one int, of the stamp and the pair's
number, in a set. Any other URI-M is noted as the string itself, in the
same set. The pair and the stamp give the URI-M back, so membership is
exact in any order; only the memory depends on it.

The compact format is two columns per memento: the 14-digit UTC capture
timestamp and the URI-M, separated by one space. It exists because full
link-format TimeMaps carry far more metadata than the sampling pipeline
needs.
"""

from __future__ import annotations

import logging
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .canonical import kept_uri, original_resource
from .errors import MalformedUri, MissingOriginal, ParseError, UnknownArchive
from .model import (
    _MONTHS,
    ArchiveDescriptor,
    ArchiveRegistry,
    Memento,
    OriginalResource,
    Provenance,
    TimeMapRecord,
    archive_of,
    compact14,
    format_http_datetime,
    header_value,
    parse_compact14,
    parse_http_datetime,
    wayback_split,
)
from .tsv import numbered_lines

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class LinkEntry:
    """One ``<target>; attr="value"`` member of a link-format document."""

    target: str
    rel: tuple[str, ...]
    datetime: datetime | None = None
    type_attr: str | None = None
    from_attr: datetime | None = None

    def is_memento(self) -> bool:
        return "memento" in self.rel


# The split rule of the module docstring. Each pattern matches at any
# position and stops only before a top-level separator or at the end.
_MEMBER = re.compile(r'(?:<[^>]*>?|"(?:[^"\\]|\\.)*"?|[^,<"]+)*', re.S)
_PARAM = re.compile(r'(?:"(?:[^"\\]|\\.)*"?|[^;"]+)*', re.S)


def _split(pattern: re.Pattern, text: str):
    """Yield (char_offset, piece) for each piece between top-level separators."""
    start = 0
    while True:
        end = pattern.match(text, start).end()
        yield start, text[start:end]
        if end == len(text):
            return
        start = end + 1


# The plain member form of the module docstring, with the separators
# around it: what the RFC 6690 split yields for such a member, stripped, is
# exactly the match without them. The target neither starts nor ends with
# whitespace, which is all that split strips of it. The IMF-fixdate's fields
# are held to their ranges, the day to its month: a 29th not in February of
# a year that is not a leap year (divisible by 4, and by 400 if by 100), a
# 30th not in February, a 31st in a month of 31 days. The host, in a URI-M
# of the plain form ``http(s)://host``, is the one ``model.parse_http_uri`` reads.
_PLAIN = re.compile(
    r"""\s*<(?=[^\s>])(?P<target>
        (?:[Hh][Tt][Tt][Pp][Ss]?://(?P<host>[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)*\.*)(?=[/?#>]))?
        [^>]*)(?<!\s)>
    ;\ rel="(?P<rel>[^\s"\\]+(?:\ [^\s"\\]+)*)"
    ;\ datetime="(?P<when>(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun),
        \ (?P<day>0[1-9]|1[0-9]|2[0-8]
            |29(?!\ Feb\ (?!(?:[0-9]{2}(?:0[48]|[2468][048]|[13579][26])
                              |(?:[02468][048]|[13579][26])00)\ ))
            |30(?!\ Feb)|31(?=\ (?:Jan|Mar|May|Jul|Aug|Oct|Dec)))
        \ (?P<month>Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)
        \ (?P<year>(?!0000)[0-9]{4})
        \ (?P<clock>(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9])\ GMT)"
    \s*(?:,|\Z)""",
    re.X,
)


def _byte_offset(text: str, char_offset: int) -> int:
    return len(text[:char_offset].encode("utf-8"))


def _parse_member(text: str, offset: int, raw: str) -> LinkEntry | None:
    member = raw.strip()
    if not member:
        return None
    if not member.startswith("<"):
        raise ParseError("member does not start with <target>", _byte_offset(text, offset))
    end = member.find(">")
    if end < 0:
        raise ParseError("unterminated <target>", _byte_offset(text, offset))
    target = member[1:end].strip()
    if not target:
        raise ParseError("empty target", _byte_offset(text, offset))
    attrs: dict[str, str] = {}
    for _, part in _split(_PARAM, member[end + 1 :]):
        part = part.strip()
        if not part:
            continue
        name, eq, value = part.partition("=")
        name = name.strip().lower()
        if not eq or not name:
            raise ParseError(f"bad parameter {part!r}", _byte_offset(text, offset))
        value = value.strip()
        if value.startswith('"'):
            if not value.endswith('"') or len(value) < 2:
                raise ParseError(
                    f"unterminated quoted value in {part!r}", _byte_offset(text, offset)
                )
            value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        attrs.setdefault(name, value)
    rel = tuple(attrs.get("rel", "").split())
    if not rel:
        raise ParseError(f"member {target!r} has no rel", _byte_offset(text, offset))
    dt = from_dt = None
    try:
        if "datetime" in attrs:
            dt = parse_http_datetime(attrs["datetime"])
        if "from" in attrs:
            from_dt = parse_http_datetime(attrs["from"])
    except ValueError as exc:
        raise ParseError(str(exc), _byte_offset(text, offset)) from None
    return LinkEntry(
        target=target,
        rel=rel,
        datetime=dt,
        type_attr=attrs.get("type"),
        from_attr=from_dt,
    )


def parse_link_entries(
    body: bytes | str, visit: Callable[[LinkEntry | re.Match], None] | None = None
) -> list[LinkEntry]:
    """Tokenize a link-format document into entries, order preserved.

    With ``visit``, each member is passed to it as it is read: a member of
    the plain form as its match of ``_PLAIN``, not built into an entry, and
    any other member as its entry. The entries built are returned as well.
    """
    if isinstance(body, bytes):
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}", exc.start) from None
    else:
        text = body
    if not text or text.isspace():
        raise ParseError("empty link-format document", 0)
    entries = []
    members = 0
    start, size = 0, len(text)
    while True:
        plain = _PLAIN.match(text, start)
        if plain is not None:
            members += 1
            if visit is not None:
                visit(plain)
            else:
                rel = tuple(plain["rel"].split(" "))
                entries.append(LinkEntry(plain["target"], rel, parse_http_datetime(plain["when"])))
            start = plain.end()
            if start == size:
                break
            continue
        end = _MEMBER.match(text, start).end()
        entry = _parse_member(text, start, text[start:end])
        if entry is not None:
            members += 1
            entries.append(entry)
            if visit is not None:
                visit(entry)
        if end == size:
            break
        start = end + 1
    if not members:
        raise ParseError("no members found", 0)
    return entries


def original_link(headers: Mapping[str, str]) -> str | None:
    """The target of the first ``rel="original"`` link in the HTTP ``Link``
    header of ``headers`` (RFC 8288), as a memento's response carries one
    (RFC 7089 §2.2.1); None without one, or when the header is not
    link-format."""
    value = header_value(headers, "Link")
    if not value:
        return None
    try:
        entries = parse_link_entries(value)
    except ParseError:
        return None
    return next((entry.target for entry in entries if "original" in entry.rel), None)


def _timemap_original(urir: str) -> OriginalResource:
    """The resource a TimeMap's ``rel="original"`` names; one that is not
    an http(s) URI is a ParseError of the TimeMap."""
    try:
        return original_resource(urir)
    except MalformedUri as exc:
        raise ParseError(f'malformed rel="original": {exc}') from None


def _sort_key(dt: datetime) -> str:
    """The order key the plain form's fields give, for a UTC datetime."""
    return "%04d%02d%02d%02d:%02d:%02d" % (dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second)


_MONTH_DIGITS = {month: "%02d" % number for month, number in _MONTHS.items()}


_NO_ARCHIVES = ArchiveRegistry(())


class TimeMapReader:
    """One TimeMap read page by page, or one memento at a time, into a
    record of every memento member, in the order read.

    The rules of reading a TimeMap are written here once. The first
    ``rel="original"`` names the URI-R, else the hint given to ``record``
    does; ``record`` raises for a ``rel="original"`` that is not an http(s)
    URI and for a memento member without a datetime. A memento's archive is
    the archive that served the page, when one did, else the registered
    archive of its host, looked up once per host and TimeMap; a memento of
    no registered archive has none. With no ``registry``, none is
    registered. A memento whose URI-M ``model.kept_uri`` refuses is
    read, and counted in ``mementos``, but not kept.
    """

    def __init__(self, registry: ArchiveRegistry | None = None):
        self.registry = registry if registry is not None else _NO_ARCHIVES
        self.mementos = 0  # memento members read
        self._serving: ArchiveDescriptor | None = None
        self._hosts: dict[str, ArchiveDescriptor | None] = {}
        self._links: list[str] = []
        self._resource: OriginalResource | None = None
        self._failure: ParseError | None = None
        self._undated: str | None = None  # the first memento member without a datetime
        # (URI-M, its archive, its IMF-fixdate or datetime) per memento read
        self._read: list[tuple[str, ArchiveDescriptor | None, str | datetime]] = []
        self._archive_ids: set[str] = set()

    @property
    def archives(self) -> set[str]:
        """The archives the memento members read are attributed to."""
        return set(self._archive_ids)

    def read(self, body: bytes | str, archive: ArchiveDescriptor | None = None) -> list[str]:
        """Read one page and return its ``rel="timemap"`` targets but self.
        ``archive``, when given, served the page as its own TimeMap: all its
        mementos are that archive's."""
        self._serving = archive
        self._links = []
        parse_link_entries(body, visit=self._visit)
        return self._links

    def offer(self, dt: datetime, urim: str) -> None:
        """Read one memento given outside link-format: ``urim``, captured
        at the UTC datetime ``dt``."""
        self.mementos += 1
        if kept_uri(urim):
            self._candidate(urim, None, _sort_key(dt), dt)

    def _visit(self, member: LinkEntry | re.Match) -> None:
        if isinstance(member, LinkEntry):
            if not self._roles(member.target, member.rel):
                return
            self.mementos += 1
            if member.datetime is None:
                self._undated = self._undated or member.target
            elif kept_uri(member.target):
                self._candidate(member.target, None, _sort_key(member.datetime), member.datetime)
            return
        target, host, rel, when, day, month, year, clock = member.groups()
        if rel != "memento" and not self._roles(target, rel.split(" ")):
            return
        self.mementos += 1
        if kept_uri(target):
            self._candidate(target, host, year + _MONTH_DIGITS[month] + day + clock, when)

    def _roles(self, target: str, rel: Iterable[str]) -> bool:
        """Note an original or a page link; whether the member is a memento."""
        if "original" in rel and self._resource is None and self._failure is None:
            try:
                resource = _timemap_original(target)
            except ParseError as exc:
                self._failure = exc  # record() raises it
            else:
                self._resolve(resource)
        if "timemap" in rel and "self" not in rel:
            self._links.append(target)
        return "memento" in rel

    def _resolve(self, resource: OriginalResource) -> None:
        """Key the TimeMap by ``resource``."""
        self._resource = resource

    def _archive(self, urim: str, host: str | None) -> ArchiveDescriptor | None:
        """The archive of a memento read, noted in ``archives``; ``host`` is
        its URI-M's host when the plain form gave it. A host's archive is
        noted when the host is first looked up."""
        archive = self._serving
        if archive is None and host is not None:
            try:
                return self._hosts[host]
            except KeyError:
                archive = self._hosts[host] = self.registry.match_host(host)
        elif archive is None:
            try:
                archive = archive_of(urim, self.registry)
            except (UnknownArchive, MalformedUri):
                logger.debug("no registered archive for %s", urim)
                return None
        if archive is not None:
            self._archive_ids.add(archive.id)
        return archive

    def _candidate(self, urim: str, host: str | None, key: str, when: str | datetime) -> None:
        """A dated memento read: ``when`` is its IMF-fixdate or UTC datetime,
        and ``key`` orders it."""
        self._read.append((urim, self._archive(urim, host), when))

    def _memento(self, urim: str, archive_id: str | None, when: str | datetime) -> Memento:
        dt = parse_http_datetime(when) if isinstance(when, str) else when
        return Memento(urim, dt, self._resource.canonical_key, archive_id)

    def _assemble(self) -> list[Memento]:
        """The record's mementos, once the TimeMap is keyed."""
        return [self._memento(urim, a and a.id, when) for urim, a, when in self._read]

    def record(
        self,
        urir_hint: str | None = None,
        provenance: Provenance = Provenance.AGGREGATOR,
        fetched_at: datetime | None = None,
    ) -> TimeMapRecord:
        """The record of what was read. The first ``rel="original"`` names
        the URI-R, else ``urir_hint`` does."""
        if self._resource is None and self._failure is None:
            if urir_hint is None:
                raise MissingOriginal("no rel=original entry and no URI-R hint")
            self._resolve(original_resource(urir_hint))
        if self._failure is not None:
            raise self._failure
        if self._undated is not None:
            raise ParseError(f"memento {self._undated!r} lacks a datetime attribute")
        fetched_at = fetched_at or datetime.now(timezone.utc)
        return TimeMapRecord(self._resource, tuple(self._assemble()), fetched_at, provenance)


def parse_timemap(
    body: bytes | str,
    urir_hint: str | None = None,
    registry: ArchiveRegistry | None = None,
    fetched_at: datetime | None = None,
) -> TimeMapRecord:
    """Parse a link-format TimeMap body into a record of every memento."""
    reader = TimeMapReader(registry)
    reader.read(body)
    return reader.record(urir_hint, fetched_at=fetched_at)


# The most (head, rest) pairs a reducer numbers; the URI-Ms of any further
# pair are kept as strings.
_MAX_PAIRS = 1024


class TimeMapReducer(TimeMapReader):
    """One TimeMap reduced while it is read, page by page, to the mementos
    a ``MementoCollection`` stores of it. This is the dataset's one
    reduction rule: of the memento members that name a registered archive,
    the first of each URI-M, and of those the earliest per (archive, UTC
    year), ties to the smaller URI-M.

    ``stored(key)`` is the record already stored under the TimeMap's key,
    or None. Once the key is known its mementos are offered first, in
    stored order, each kept as stored, so the record holds the winners of
    the stored and the read mementos together. Every member is read by
    ``TimeMapReader``'s visitor, so the reader's rules hold as written
    there; a plain member is matched once, its sort key is made of its
    date's fields, and the reducer's ``_candidate`` and ``_offer`` drop a
    URI-M seen before and update the winner of its year in place. Only the
    winners read become ``Memento`` objects. The record raises what
    ``TimeMapReader``'s would raise for the same members.

    Keeping the first of each URI-M needs every URI-M read, which is most of
    what a large TimeMap costs. A URI-M of the Wayback shape, ``head`` +
    ``/`` + a 14-digit stamp + ``rest`` as ``wayback_split`` gives them, is
    noted by its stamp in its (``head``, ``rest``) pair's
    ``array('q')``, 8 bytes each: appended when it is greater than the
    pair's last, else looked up there with ``bisect``, and if it is not
    there, kept in a set as the pair's number times 10**14 plus the stamp.
    Every other URI-M is kept in that set as itself. The split is a
    function of the URI-M alone, and the pair and the stamp give the URI-M
    back, so a URI-M is found seen only if it was offered, whatever the
    order of the members; a TimeMap listed in datetime order costs 8 bytes
    a URI-M, and one listed backwards what a set of ints costs. Once
    ``_MAX_PAIRS`` pairs are numbered, the URI-Ms of a new pair are kept as
    strings, so a TimeMap whose pairs are all distinct costs what its
    strings cost plus that many pairs.
    """

    def __init__(
        self,
        registry: ArchiveRegistry,
        stored: Callable[[str], TimeMapRecord | None] | None = None,
    ):
        super().__init__(registry)
        self.stored = stored
        self._pairs: dict[tuple[str, str], int] = {}  # (head, rest) -> its number
        self._stamps: list[array] = []  # a pair's number -> its stamps appended in order
        # The URI-Ms offered that no array holds: a pair's number * 10**14 +
        # a stamp that came out of order, or the URI-M itself.
        self._seen: set[int | str] = set()
        self._pending: list[tuple] = []  # candidates read before the key is known
        # archive id -> year -> (sort key, URI-M, its datetime, IMF-fixdate
        # or stored Memento)
        self._winners: dict[str, dict[str, tuple[str, str, str | datetime | Memento]]] = {}

    def _first(self, urim: str) -> bool:
        """Whether ``urim`` is offered for the first time; it is noted as
        offered."""
        split = wayback_split(urim)
        if split is not None:
            head, stamp, rest = split
            pair = self._pairs.get((head, rest))
            if pair is None and len(self._stamps) < _MAX_PAIRS:
                pair = self._pairs[head, rest] = len(self._stamps)
                self._stamps.append(array("q"))
            if pair is not None:
                stamps, stamp = self._stamps[pair], int(stamp)
                if not stamps or stamp > stamps[-1]:
                    stamps.append(stamp)
                    return True
                if stamps[bisect_left(stamps, stamp)] == stamp:
                    return False
                urim = pair * 10**14 + stamp
        if urim in self._seen:
            return False
        self._seen.add(urim)
        return True

    def _resolve(self, resource: OriginalResource) -> None:
        """Key the TimeMap by ``resource``, then offer the mementos stored
        under that key and the candidates held back."""
        super()._resolve(resource)
        stored = self.stored(resource.canonical_key) if self.stored is not None else None
        if stored is not None:
            for m in stored.mementos:
                self._offer(m.urim, m.archive_id, _sort_key(m.memento_datetime), m)
        for candidate in self._pending:
            self._offer(*candidate)
        self._pending.clear()

    def _candidate(self, urim: str, host: str | None, key: str, when: str | datetime) -> None:
        archive = self._archive(urim, host)
        if archive is None:
            return
        # Held until the key is known; after a malformed original, record()
        # raises, so nothing waits and the winners stay bounded.
        if self._resource is None and self._failure is None:
            self._pending.append((urim, archive.id, key, when))
        else:
            self._offer(urim, archive.id, key, when)

    def _offer(
        self, urim: str, archive_id: str, key: str, when: str | datetime | Memento
    ) -> None:
        if not self._first(urim):
            return
        years = self._winners.get(archive_id)
        if years is None:
            years = self._winners[archive_id] = {}
        year = key[:4]
        best = years.get(year)
        if best is None or key < best[0] or (key == best[0] and urim < best[1]):
            years[year] = (key, urim, when)

    def _assemble(self) -> list[Memento]:
        mementos = []
        for archive_id, years in self._winners.items():
            for year in sorted(years):
                _, urim, when = years[year]
                if not isinstance(when, Memento):
                    when = self._memento(urim, archive_id, when)
                mementos.append(when)
        return mementos


def _compact_text(mementos: Iterable[Memento]) -> str:
    return "".join(f"{compact14(m.memento_datetime)} {m.urim}\n" for m in mementos)


def serialize_compact(record: TimeMapRecord) -> str:
    """One ``YYYYMMDDhhmmss URI-M`` line per memento, order preserved."""
    return _compact_text(record.mementos)


def write_compact(
    path: str | Path, mementos: Iterable[Memento], comment: str | None = None
) -> None:
    """Write mementos as compact lines, after an optional ``# comment`` line."""
    head = "" if comment is None else f"# {comment}\n"
    Path(path).write_text(head + _compact_text(mementos), "utf-8")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each stripped line of ``tsv.numbered_lines`` with its 1-based
    number, skipping blank lines and ``#`` comments."""
    for lineno, line in numbered_lines(text):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_compact_line(line: str, lineno: int) -> tuple[datetime, str]:
    """Split one ``YYYYMMDDhhmmss URI-M`` line; ParseError carries ``lineno``."""
    line = line.strip()
    stamp, sep, urim = line.partition(" ")
    if not sep or not urim or " " in urim:
        raise ParseError(f"expected '14-digit-stamp URI', got {line!r}", lineno)
    try:
        return parse_compact14(stamp), urim
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def parse_compact(
    text: str,
    urir: str,
    registry: ArchiveRegistry | None = None,
    provenance: Provenance = Provenance.PUBLISHED_LIST,
    fetched_at: datetime | None = None,
) -> TimeMapRecord:
    """Parse compact two-column text back into a record.

    Blank lines and ``#`` comment lines are skipped.
    """
    reader = TimeMapReader(registry)
    reader._resolve(original_resource(urir))  # a malformed URI-R fails before any line
    for lineno, line in content_lines(text):
        reader.offer(*parse_compact_line(line, lineno))
    return reader.record(urir, provenance, fetched_at)


def serialize_linkformat(record: TimeMapRecord) -> str:
    """Render a record back to application/link-format text."""
    members = [f'<{record.urir.uri}>; rel="original"']
    for m in record.mementos:
        members.append(
            f'<{m.urim}>; rel="memento"; '
            f'datetime="{format_http_datetime(m.memento_datetime)}"'
        )
    return ",\n".join(members) + "\n"
