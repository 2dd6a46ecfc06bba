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
lowercase names, single spaces, no whitespace in the target and no
backslash or quote inside the values. Such a member is read directly by
one pattern. Every other member goes through the RFC 6690 split above.

The compact format is two columns per memento: the 14-digit UTC capture
timestamp and the URI-M, separated by one space. It exists because full
link-format TimeMaps carry far more metadata than the sampling pipeline
needs.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from .canonical import original_resource
from .errors import MalformedUri, MissingOriginal, ParseError, UnknownArchive
from .model import (
    ArchiveRegistry,
    Memento,
    Provenance,
    TimeMapRecord,
    archive_of,
    compact14,
    format_http_datetime,
    parse_compact14,
    parse_http_datetime,
    raw_variant,
)

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


# The plain member form of the module docstring, matched after the member is
# stripped. It needs no unquoting, and strict mode changes nothing for it.
_PLAIN_MEMBER = re.compile(r'<([^\s>]+)>; rel="([^"\\]*)"; datetime="([^"\\]*)"')


def _byte_offset(text: str, char_offset: int) -> int:
    return len(text[:char_offset].encode("utf-8"))


def _parse_member(text: str, offset: int, raw: str, strict: bool) -> LinkEntry | None:
    member = raw.strip()
    plain = _PLAIN_MEMBER.fullmatch(member)
    if plain is not None:
        target, rel, when = plain.groups()
        rel = tuple(rel.split())
        if rel:
            try:
                return LinkEntry(target, rel, parse_http_datetime(when))
            except ValueError:
                pass  # the general path below raises the ParseError
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
        elif strict:
            raise ParseError(
                f"unquoted parameter value in {part!r}", _byte_offset(text, offset)
            )
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


def parse_link_entries(body: bytes | str, strict: bool = False) -> list[LinkEntry]:
    """Tokenize a link-format document into entries, order preserved."""
    if isinstance(body, bytes):
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}", exc.start) from None
    else:
        text = body
    if not text.strip():
        raise ParseError("empty link-format document", 0)
    entries = []
    for offset, raw in _split(_MEMBER, text):
        entry = _parse_member(text, offset, raw, strict)
        if entry is not None:
            entries.append(entry)
    if not entries:
        raise ParseError("no members found", 0)
    return entries


def _attribute(urim: str, registry: ArchiveRegistry | None) -> str | None:
    if registry is None:
        return None
    try:
        return archive_of(urim, registry).id
    except (UnknownArchive, MalformedUri):
        logger.debug("no registered archive for %s", urim)
        return None


def _build_memento(
    urim: str, dt: datetime, urir_key: str, registry: ArchiveRegistry | None
) -> Memento:
    archive_id = _attribute(urim, registry)
    raw = None
    if archive_id is not None:
        raw = raw_variant(urim, registry.get(archive_id).raw_scheme)
    return Memento(
        urim=urim,
        memento_datetime=dt,
        urir_key=urir_key,
        archive_id=archive_id,
        raw_urim=raw,
    )


def record_from_entries(
    entries: Iterable[LinkEntry],
    urir_hint: str | None = None,
    registry: ArchiveRegistry | None = None,
    provenance: Provenance = Provenance.AGGREGATOR,
    fetched_at: datetime | None = None,
) -> TimeMapRecord:
    """Assemble a TimeMapRecord from parsed entries.

    The rel="original" entry names the URI-R; ``urir_hint`` is used when
    absent. Every entry whose rel includes "memento" (also "first
    memento"/"last memento") becomes one Memento, in document order.
    """
    entries = list(entries)
    original = next((e.target for e in entries if "original" in e.rel), None)
    urir = original or urir_hint
    if urir is None:
        raise MissingOriginal("no rel=original entry and no URI-R hint")
    resource = original_resource(urir)
    mementos = []
    for e in entries:
        if not e.is_memento():
            continue
        if e.datetime is None:
            raise ParseError(f"memento {e.target!r} lacks a datetime attribute")
        mementos.append(_build_memento(e.target, e.datetime, resource.canonical_key, registry))
    return TimeMapRecord(
        urir=resource,
        mementos=tuple(mementos),
        fetched_at=fetched_at or datetime.now(timezone.utc),
        provenance=provenance,
    )


def parse_timemap(
    body: bytes | str,
    urir_hint: str | None = None,
    registry: ArchiveRegistry | None = None,
    provenance: Provenance = Provenance.AGGREGATOR,
    strict: bool = False,
    fetched_at: datetime | None = None,
) -> TimeMapRecord:
    """Parse a link-format TimeMap body into a TimeMapRecord."""
    entries = parse_link_entries(body, strict=strict)
    return record_from_entries(entries, urir_hint, registry, provenance, fetched_at)


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
    """Each stripped line with its 1-based number, skipping blank lines
    and ``#`` comments."""
    for lineno, line in enumerate(text.splitlines(), start=1):
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


def compact_record(
    mementos: Iterable[tuple[datetime, str]],
    urir: str,
    registry: ArchiveRegistry | None = None,
    provenance: Provenance = Provenance.PUBLISHED_LIST,
    fetched_at: datetime | None = None,
) -> TimeMapRecord:
    """Build a record for ``urir`` from (datetime, URI-M) pairs, order preserved."""
    resource = original_resource(urir)
    built = [_build_memento(urim, dt, resource.canonical_key, registry) for dt, urim in mementos]
    return TimeMapRecord(resource, tuple(built), fetched_at or datetime.now(timezone.utc), provenance)


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
    pairs = (parse_compact_line(line, lineno) for lineno, line in content_lines(text))
    return compact_record(pairs, urir, registry, provenance, fetched_at)


def serialize_linkformat(record: TimeMapRecord) -> str:
    """Render a record back to application/link-format text."""
    members = [f'<{record.urir.uri}>; rel="original"']
    for m in record.mementos:
        members.append(
            f'<{m.urim}>; rel="memento"; '
            f'datetime="{format_http_datetime(m.memento_datetime)}"'
        )
    return ",\n".join(members) + "\n"


def dedupe(record: TimeMapRecord) -> TimeMapRecord:
    """Drop mementos with an already-seen URI-M string, keeping the first."""
    seen: set[str] = set()
    kept = []
    for m in record.mementos:
        if m.urim in seen:
            continue
        seen.add(m.urim)
        kept.append(m)
    return record.with_mementos(kept)


def yearly_first_filter(record: TimeMapRecord) -> TimeMapRecord:
    """Keep the earliest memento per (archive, UTC year).

    Ties on datetime break toward the lexicographically smallest URI-M.
    Output groups archives in order of first appearance, years ascending
    within each archive, which makes the filter idempotent.
    """
    winners: dict[str, dict[int, Memento]] = {}
    for m in record.mementos:
        if m.archive_id is None:
            raise UnknownArchive(m.urim, "URI-M")
        years = winners.setdefault(m.archive_id, {})
        best = years.get(m.year)
        if best is None or (m.memento_datetime, m.urim) < (best.memento_datetime, best.urim):
            years[m.year] = m
    kept = [
        years[year]
        for years in winners.values()
        for year in sorted(years)
    ]
    return record.with_mementos(kept)
