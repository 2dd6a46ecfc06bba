"""Property tests of TimeMap intake against the code it replaced, and of
the TimeMap reducer against the full records it stands in for.

The reference implementations below are the previous code, kept here
verbatim: the character-loop splitters, the linear domain scan, and the
general parsers behind the fixed-form fast paths (``parse_http_datetime``
through ``parsedate_to_datetime``, ``_parse_member`` through the RFC 6690
split, ``parse_compact14`` through ``strptime``). Each new function must return what its reference returns,
or fail with the same exception class and message; ``parse_compact14``
only with the same class, and it rejects stamps with non-ASCII digits.
``parse_http_datetime`` departs from its reference in one place: an
IMF-fixdate with a year 0000-0099 keeps that year instead of mapping it to
19xx/20xx, and year 0000 is rejected.

The previous full-record builders, ``record_from_entries`` and
``compact_record``, live in ``reduction_reference`` with the previous
reduction. ``TimeMapReader`` is held to them: reading each page, or
parsing compact lines, must give the record they gave of all the pages'
entries, re-attributed to the archive that served the pages as a direct
fetch did, or of the lines' pairs, and fail the same way; so must a fetch
without a reader. ``TimeMapReducer`` is held to the full-record path:
reducing each page while it is read, or each (datetime, URI-M) pair
offered, and adding the record must store what the previous
``MementoCollection.add`` (``reduction_reference.reference_add``) stored
of the full record, into an empty collection or over a reduced record
already stored, and fail the same way.
"""

import re
from dataclasses import replace
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mementoset import (
    ArchiveClient,
    ArchiveDescriptor,
    ArchiveRegistry,
    EmptyTimeMap,
    FetchPolicy,
    MementoCollection,
    ParseError,
    Provenance,
    Purpose,
    RawScheme,
    TimeMapReducer,
    default_registry,
    parse_compact,
)
from mementoset import linkformat
from mementoset.linkformat import (
    _MEMBER,
    _PARAM,
    LinkEntry,
    TimeMapReader,
    _byte_offset,
    _split,
    content_lines,
    parse_compact_line,
    parse_link_entries,
)
from mementoset.model import compact14, parse_compact14, parse_http_datetime
from mockserver import FakeTransport
from reduction_reference import compact_record, record_from_entries, reference_add


def reference_split_members(text: str):
    start = 0
    in_target = False
    in_quote = False
    escaped = False
    for i, ch in enumerate(text):
        if escaped:
            escaped = False
            continue
        if in_quote:
            if ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
        elif in_target:
            if ch == ">":
                in_target = False
        elif ch == '"':
            in_quote = True
        elif ch == "<":
            in_target = True
        elif ch == ",":
            yield start, text[start:i]
            start = i + 1
    yield start, text[start:]


def reference_split_params(raw: str):
    parts = []
    start = 0
    in_quote = False
    escaped = False
    for i, ch in enumerate(raw):
        if escaped:
            escaped = False
        elif in_quote:
            if ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
        elif ch == '"':
            in_quote = True
        elif ch == ";":
            parts.append(raw[start:i])
            start = i + 1
    parts.append(raw[start:])
    return parts


def reference_split(pattern, text):
    if pattern is _MEMBER:
        return reference_split_members(text)
    return ((None, part) for part in reference_split_params(text))


# Well-formed pieces, so that many documents parse, and the characters that
# steer the splitters, so that many do not.
FRAGMENTS = [
    "<http://a.example/m,1;x>",
    "<http://web.archive.org/web/20000101000000/http://a.example/>",
    '; rel="memento"',
    '; rel="original"',
    '; rel="first memento"',
    "; rel=memento",
    '; datetime="Sun, 08 Jan 2017 09:15:41 GMT"',
    '; datetime="Feb 30"',
    '; type="a;b,c"',
    '; title="q\\"uo,te;"',
    '; title="trailing\\\\"',
    ",\n",
    ", ",
    "<",
    ">",
    '"',
    "\\",
    ";",
    ",",
]
TEXT = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(alphabet='<>",;\\= ab\n\té', max_size=8)),
    max_size=12,
).map("".join)


def reference_parse_link_entries(text: str) -> list[LinkEntry]:
    if not text.strip():
        raise ParseError("empty link-format document", 0)
    with mock.patch.object(linkformat, "_split", reference_split):
        entries = [
            entry
            for offset, raw in reference_split_members(text)
            if (entry := reference_parse_member(text, offset, raw, strict=False)) is not None
        ]
    if not entries:
        raise ParseError("no members found", 0)
    return entries


def visited(text: str) -> list[LinkEntry]:
    """parse_link_entries with a visitor that builds each plain member's
    entry from its match; and the entries returned are the others."""
    seen = []

    def visit(member):
        if isinstance(member, LinkEntry):
            seen.append(member)
        else:
            rel = tuple(member["rel"].split())
            seen.append(LinkEntry(member["target"], rel, parse_http_datetime(member["when"])))

    built = parse_link_entries(text, visit=visit)
    # By identity: a plain member's entry may equal a built one.
    assert built == [m for m in seen if any(m is b for b in built)]
    return seen


def outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset)


def reference_matches_host(archive: ArchiveDescriptor, host: str) -> bool:
    host = host.lower().rstrip(".")
    return any(host == d or host.endswith("." + d) for d in archive.all_domains())


def reference_match_host(archives, host: str):
    return next((a for a in archives if reference_matches_host(a, host)), None)


def reference_overlaps(archives) -> bool:
    pats = [(d, a.id) for a in archives for d in a.all_domains()]
    for i, (p1, id1) in enumerate(pats):
        for p2, id2 in pats[i + 1 :]:
            if id1 != id2 and (p1 == p2 or p1.endswith("." + p2) or p2.endswith("." + p1)):
                return True
    return False


# A small label set makes overlaps common; the empty label covers domains
# such as "a..b" and "a." that a label walk and a string suffix could treat
# differently.
DOMAIN = st.lists(st.sampled_from(["a", "b", "ab", "c", ""]), min_size=1, max_size=3).map(".".join)
ARCHIVES = st.lists(
    st.tuples(st.lists(DOMAIN, min_size=1, max_size=3), st.lists(DOMAIN, max_size=2)),
    min_size=1,
    max_size=4,
).map(lambda specs: [
    ArchiveDescriptor(
        f"a{i}", f"A{i}", tuple(domains), Purpose.GENERAL, unverified_domains=tuple(extra)
    )
    for i, (domains, extra) in enumerate(specs)
])
LABELS = st.lists(st.sampled_from(["www", "a", "b", "web", "x-y", ""]), max_size=3)


def build_host(labels, domain, case, dots):
    host = ".".join([*labels, domain]) if labels else domain
    flips = case + [False] * len(host)
    host = "".join(ch.upper() if flip else ch for ch, flip in zip(host, flips))
    return host + "." * dots


HOST_PARTS = st.tuples(LABELS, st.lists(st.booleans(), max_size=30), st.integers(0, 2))


class TestHostIndexMatchesLinearScan:
    @given(ARCHIVES, st.lists(st.tuples(st.integers(0, 20), HOST_PARTS), max_size=6))
    def test_rejection_and_lookup_agree(self, archives, probes):
        try:
            registry = ArchiveRegistry(archives)
        except ValueError as exc:
            assert "overlapping domains" in str(exc)
            assert reference_overlaps(archives)
            return
        assert not reference_overlaps(archives)
        domains = [d for a in archives for d in a.all_domains()]
        for pick, (labels, case, dots) in probes:
            host = build_host(labels, domains[pick % len(domains)], case, dots)
            assert registry.match_host(host) is reference_match_host(archives, host)

    @given(st.integers(0, 100), HOST_PARTS, st.booleans())
    def test_bundled_registry_lookup_agrees(self, pick, host_parts, foreign):
        registry = default_registry()
        domains = [d for a in registry for d in a.all_domains()]
        labels, case, dots = host_parts
        domain = "example.org" if foreign else domains[pick % len(domains)]
        host = build_host(labels, domain, case, dots)
        assert registry.match_host(host) is reference_match_host(registry, host)


# The fixed-form fast paths of TimeMap intake against the general parsers
# they sit in front of. The references are the previous code, verbatim.


def reference_parse_http_datetime(value: str) -> datetime:
    """Parse an HTTP-date (RFC 1123 form) into an aware UTC datetime."""
    try:
        dt = parsedate_to_datetime(value.strip())
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad HTTP datetime {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


IMF_FIXDATE_EARLY = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun), ([0-9]{2}) "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) (00[0-9]{2}) "
    r"([0-9]{2}):([0-9]{2}):([0-9]{2}) GMT"
)
MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def expected_http_datetime(value: str) -> datetime:
    """The reference, except that an IMF-fixdate with a year 0000-0099 is
    read as written (year 0000 is out of range)."""
    early = IMF_FIXDATE_EARLY.fullmatch(value)
    if early is None:
        return reference_parse_http_datetime(value)
    day, month, year, hour, minute, second = early.groups()
    try:
        return datetime(
            int(year), MONTHS.index(month) + 1, int(day),
            int(hour), int(minute), int(second), tzinfo=timezone.utc,
        )
    except ValueError:
        raise ValueError(f"bad HTTP datetime {value!r}") from None


def reference_parse_member(text: str, offset: int, raw: str, strict: bool) -> LinkEntry | None:
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
            dt = expected_http_datetime(attrs["datetime"])
        if "from" in attrs:
            from_dt = expected_http_datetime(attrs["from"])
    except ValueError as exc:
        raise ParseError(str(exc), _byte_offset(text, offset)) from None
    return LinkEntry(
        target=target,
        rel=rel,
        datetime=dt,
        type_attr=attrs.get("type"),
        from_attr=from_dt,
    )


def reference_parse_compact14(stamp: str) -> datetime:
    if len(stamp) != 14 or not stamp.isdigit():
        raise ValueError(f"expected 14 digits, got {stamp!r}")
    return datetime.strptime(stamp, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)


def result(fn, *args):
    """The value with its repr (which shows the tzinfo), or the error."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return value, repr(value)


def pick(*options):
    return st.sampled_from(options)


def padded(width):
    return lambda n: f"{n:0{width}d}"


# Years on both sides of 1000, the email parser's two-digit mapping, and
# widths the fixed form does not have.
YEAR = st.one_of(
    st.integers(0, 99).map(padded(4)),
    st.integers(100, 999).map(padded(4)),
    st.integers(1000, 9999).map(padded(4)),
    st.integers(0, 999).map(str),
)

# Each strategy mixes inputs in the fixed form, varied only where that form
# allows, with inputs that leave it in one place or many.

# Days 00 and 32, Feb 29 in years that are not leap years, hour 24, second 60,
# and zones other than GMT.
FIXDATE = st.builds(
    "{}, {} {} {} {}:{}:{} {}".format,
    pick("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"),
    st.integers(0, 32).map(padded(2)),
    pick("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"),
    st.one_of(st.integers(1000, 9999).map(padded(4)), YEAR),
    st.integers(0, 24).map(padded(2)),
    st.integers(0, 60).map(padded(2)),
    st.integers(0, 61).map(padded(2)),
    pick("GMT", "GMT", "GMT", "UTC", "EST", "gmt", "+0000"),
)
HTTP_DATE = st.one_of(
    FIXDATE,
    st.builds(
        "{}{}{}{} {} {} {}:{}:{}{}{}".format,
        pick("", " ", "\t"),
        pick("Sun,", "Mon,", "Sat,", "sun,", "Xyz,", "Sun", ""),
        pick(" ", "  ", ""),
        st.one_of(st.integers(0, 32).map(padded(2)), pick("1", "6", "29")),
        pick("Jan", "Feb", "Nov", "Dec", "NOV", "nov", "February", "Foo"),
        YEAR,
        st.integers(0, 24).map(padded(2)),
        st.integers(0, 60).map(padded(2)),
        st.integers(0, 61).map(padded(2)),
        pick(" GMT", " UTC", " gmt", " +0000", " -0500", " EST", " Z", ""),
        pick("", " ", "\n"),
    ),
    st.text(alphabet="Sun, 0619Nov:GMT-+\t", max_size=32),
)

# Scheme case, userinfo, bracketed hosts, ports, percent-escapes and the
# characters urlsplit strips or refuses.
PLAIN_URI = st.builds(
    "{}://{}{}{}".format,
    pick("http", "https", "HTTP", "Https", "hTtPs"),
    st.text(alphabet="aZ09.-", min_size=1, max_size=12),
    pick("", ":80", ":0", ":08080"),
    pick("", "/", "/web/2000/http://a.example/", "?q=1", "#f", "/a@b", "/[x", "/%41", "/\t", "\n"),
)

# Names swapped or in upper case, extra params, separators and escapes
# inside quotes, and Unicode whitespace where the general path strips it.
SPACE = pick("", " ", "\t", "\n", "\u00a0", "\u2003", "\x1c")
PLAIN_MEMBER = st.builds(
    '{}<{}>; rel="{}"; datetime="{}"{}'.format,
    SPACE,
    st.text(alphabet='ab:/.,;<"\\', min_size=1, max_size=12),
    pick("memento", "first memento", "last memento", " memento ", "", " ", "a;b", "a,b", "a\\\\b", "a\\"),
    HTTP_DATE.filter(lambda d: '"' not in d and "\\" not in d),
    SPACE,
)
TARGET = pick(
    "http://web.archive.org/web/20000101000000/http://a.example/",
    "http://a.example/m,1;x", " http://a.example/ ", "", "a b", 'a"b', "a\\b",
)
REL = pick('"memento"', '"first memento"', '""', '"  "', "memento", '"a;b"', '"a,b"', '"q\\"x"')
WHEN = st.one_of(
    pick('"Sun, 08 Jan 2017 09:15:41 GMT"', '"Sun, 06 Nov 0099 08:49:37 GMT"', '"bad"', "x", '"a\\\\"'),
    FIXDATE.map('"{}"'.format),
)
PARAM = st.one_of(
    st.tuples(pick("rel", "REL", "Rel"), REL),
    st.tuples(pick("datetime", "DateTime"), WHEN),
    st.tuples(pick("type", "from", "title", ""), st.one_of(REL, WHEN)),
)
MEMBER = st.one_of(
    PLAIN_MEMBER,
    st.builds(
        lambda lead, target, inner, params, tail: (
            f"{lead}<{inner}{target}{inner}>"
            + "".join(f"{s1};{s2}{name}{s3}={s4}{value}" for (name, value), (s1, s2, s3, s4) in params)
            + tail
        ),
        SPACE,
        TARGET,
        SPACE,
        st.lists(
            st.tuples(
                PARAM,
                st.one_of(st.just(("", " ", "", "")), st.tuples(SPACE, SPACE, SPACE, SPACE)),
            ),
            max_size=4,
        ),
        SPACE,
    ),
)

# Documents of generated members, the plain form often among them.
# IMF-fixdates in range but for the day of the month (Feb 30, Apr 31, Feb 29
# of years that are not leap years).
IN_RANGE_FIXDATE = st.builds(
    "{}, {} {} {} {}:{}:{} GMT".format,
    pick("Mon", "Sun"),
    st.integers(1, 31).map(padded(2)),
    pick("Jan", "Feb", "Apr", "Dec"),
    st.integers(1, 9999).map(padded(4)),
    st.integers(0, 23).map(padded(2)),
    st.integers(0, 59).map(padded(2)),
    st.integers(0, 59).map(padded(2)),
)
FIXED_MEMBER = st.builds(
    '{}<{}>; rel="{}"; datetime="{}"{}'.format,
    SPACE,
    st.one_of(PLAIN_URI, TARGET),
    pick("memento", "first memento", "original", "timemap", "memento  x", "self timemap"),
    IN_RANGE_FIXDATE,
    SPACE,
)
DOCUMENT = st.lists(st.tuples(st.one_of(MEMBER, FIXED_MEMBER), pick(",", ",\n", " , ")), max_size=5).map(
    lambda members: "".join(m + sep for m, sep in members)
)


class TestTokenizerMatchesCharacterLoops:
    @given(TEXT)
    def test_splits_identical(self, text):
        assert list(_split(_MEMBER, text)) == list(reference_split_members(text))
        assert [part for _, part in _split(_PARAM, text)] == reference_split_params(text)

    @given(st.one_of(TEXT, DOCUMENT, DOCUMENT.map(lambda d: d.rstrip(", \n"))))
    @example('<http://a.example/>; rel="memento"; datetime="Sun, 06 Nov 1994 08:49:37 GMT"')
    @example('<http://a.example/>; rel="memento"; datetime="Thu, 29 Feb 1900 00:00:00 GMT",')
    @example(' <http://a.example/>; rel="memento"; datetime="Sun, 06 Nov 1994 08:49:37 GMT" x')
    @example(  # targets with inner and trailing whitespace, then a member that fails
        '<http://a0.test/x y>; rel="memento"; datetime="Sun, 06 Nov 1994 08:49:37 GMT",\n'
        '<http://a0.test/x\ty >; rel="memento"; datetime="Sun, 06 Nov 1994 08:49:38 GMT",\n'
        '<http://a0.test/z>; rel="memento"; datetime="soon"'
    )
    def test_entries_and_errors_identical(self, text):
        new = outcome(parse_link_entries, text)
        assert new == outcome(reference_parse_link_entries, text)
        assert outcome(visited, text) == new

    @pytest.mark.parametrize(
        "year", [1, 4, 100, 400, 1600, 1900, 1996, 2000, 2001, 2024, 2100, 9999]
    )
    def test_the_last_days_of_every_month_read_as_the_general_path_reads_them(self, year):
        for month in MONTHS:
            for day in (28, 29, 30, 31):
                when = f"Mon, {day} {month} {year:04d} 00:00:00 GMT"
                text = f'<http://a.example/>; rel="memento"; datetime="{when}"'
                new = outcome(parse_link_entries, text)
                assert new == outcome(reference_parse_link_entries, text)
                assert outcome(visited, text) == new


# Every field at and past its range, non-ASCII digits (which int() and
# str.isdigit() accept but strptime's patterns may not) in any position,
# and strings that are not 14 digits.
FIELDS = st.builds(
    "{}{:02d}{:02d}{:02d}{:02d}{:02d}".format,
    YEAR.filter(lambda y: len(y) == 4),
    st.integers(0, 13),
    st.integers(0, 32),
    st.integers(0, 24),
    st.integers(0, 60),
    st.integers(0, 61),
)
STAMP = st.one_of(
    FIELDS,
    st.builds(
        lambda stamp, i, ch: stamp[:i] + ch + stamp[i + 1 :],
        FIELDS,
        st.integers(0, 13),
        pick("٣", "٠", "²", "a", " "),
    ),
    st.text(alphabet="0123456789٣²a ", min_size=13, max_size=15),
)


class TestFastPathsMatchGeneralParsers:
    @given(HTTP_DATE)
    @example("Sun, 06 Nov 1994 08:49:37 GMT")
    @example("Mon, 01 Jan 0999 00:00:00 GMT")
    @example("Mon, 01 Jan 0099 00:00:00 GMT")
    @example("Mon, 01 Jan 0000 00:00:00 GMT")
    @example("Thu, 29 Feb 0001 00:00:00 GMT")
    @example("Thu, 29 Feb 1900 00:00:00 GMT")
    @example("Sun, 06 Nov 1994 08:49:60 GMT")
    @example("Sun, 00 Nov 1994 08:49:37 GMT")
    @example("Sun, 32 Nov 1994 08:49:37 GMT")
    def test_http_datetime(self, value):
        assert result(parse_http_datetime, value) == result(expected_http_datetime, value)

    @given(MEMBER)
    @example('<http://a.example/>; rel="memento"; datetime="Sun, 06 Nov 1994 08:49:37 GMT"')
    @example('<http://a.example/>; rel=" "; datetime="Sun, 06 Nov 1994 08:49:37 GMT"')
    @example('<http://a.example/>; rel="memento"; datetime="Sun, 06 Nov 0099 08:49:37 GMT"')
    def test_parse_member(self, member):
        text = "<http://x/>; rel=original,\n" + member
        offset = text.index(member)
        new = result(linkformat._parse_member, text, offset, member)
        assert new == result(reference_parse_member, text, offset, member, False)

    @given(STAMP)
    @example("09990101000000")
    @example("00000101000000")
    @example("19000229000000")
    @example("20001301000000")
    @example("20000101000060")
    @example("20000101240000")  # ISO 8601's hour 24, which fromisoformat may read
    @example("٢٠٠٠0101000000")
    def test_parse_compact14(self, stamp):
        # The value, or the error class without strptime's wording. Stamps
        # with non-ASCII digits, some of which strptime reads in the year,
        # are rejected.
        def verdict(fn):
            outcome = result(fn, stamp)
            return outcome[:1] if isinstance(outcome[0], type) else outcome

        expected = verdict(reference_parse_compact14) if stamp.isascii() else (ValueError,)
        assert verdict(parse_compact14) == expected


# -- the TimeMap reducer against the full-record path -------------------------

REDUCER_REGISTRY = ArchiveRegistry([
    ArchiveDescriptor("a0", "A0", ("a0.test",), Purpose.GENERAL, True,
                      RawScheme.WAYBACK_ID_SUFFIX, "http://a0.test/timemap/{uri}"),
    ArchiveDescriptor("a1", "A1", ("a1.test", "alias1.test"), Purpose.GENERAL, True),
])
FETCHED = datetime(2017, 11, 15, tzinfo=timezone.utc)
URIR = "http://site.test/page"
# The same key spelt another way, another key, and a URI-R surt refuses.
ORIGINALS = (URIR, "http://www.site.test/page", "http://other.test/", "not a uri")
# URI-Ms of the Wayback shape, which the reducer keeps as ints: one stamp
# under two heads, and under one head with an http and an https URI-R (as
# perma.cc lists them) and with the id_ modifier; digit runs of 13 and 15;
# a stamp ending in a non-ASCII digit, which int() would read as the ASCII
# stamp after it; two URI-Ms that differ only in case; and one with inner
# whitespace, which the plain form reads and the kept rule refuses.
WAYBACK_URIMS = (
    f"http://a0.test/web/20000101000000/{URIR}",
    f"http://a1.test/web/20000101000000/{URIR}",
    "http://a0.test/web/20000101000000/https://site.test/page",
    f"http://a0.test/web/20000101000000id_/{URIR}",
    f"http://a0.test/web/2000010100000/{URIR}",
    f"http://a0.test/web/200001010000000/{URIR}",
    f"http://a0.test/web/2000010100000٣/{URIR}",
    f"http://a0.test/web/20000101000003/{URIR}",
    "http://a0.test/web/20000101000000/http://site.test/Page",
    "http://A0.test/web/20000101000000/http://site.test/page",
    f"http://a0.test/web/20000101000000/{URIR} x",
)
# Attributed hosts in several spellings, an unregistered one, URI-Ms whose
# host only the general path reads or that have none, ones of a registered
# host that model.parse_http_uri refuses (an empty label, a port past 65535),
# an attributed URI-M holding a tab, a CR or an LF, which is read but never
# kept, and the above.
URIMS = tuple(
    f"{prefix}/web/2000{i}/{URIR}"
    for i, prefix in enumerate([
        "http://a0.test", "http://a0.test", "HTTP://A0.Test:80", "http://x.a0.test",
        "http://a1.test", "https://alias1.test", "http://unknown.test",
        "http://user@a1.test", "http://:80", "ftp://a0.test",
        "http://x..a0.test", "http://a0.test:65536", "http://a0.test..:0065535",
    ])
) + ("not-a-uri",) + tuple(
    f"http://a0.test/web/20000101000000/http://site.test/x{c}y" for c in "\t\r\n"
) + WAYBACK_URIMS
WAYBACK = len(URIMS) - len(WAYBACK_URIMS)  # the index of the first of them
# Duplicate URI-Ms pick among these: the same year, other years, dates the
# general path reads, and dates no path accepts.
DATES = (
    "Sun, 06 Nov 1994 08:49:37 GMT", "Sun, 06 Nov 1994 08:49:38 GMT", "Mon, 07 Nov 1994 00:00:00 GMT",
    "Sat, 01 Jan 2000 00:00:00 GMT", "Fri, 31 Dec 1999 23:59:59 GMT",
    "Sunday, 06-Nov-94 08:49:37 GMT", "Sat, 01 Jan 2000 00:30:00 +0100",
)
BAD_DATES = ("Sat, 31 Feb 2001 00:00:00 GMT", "Sun, 06 Nov 1994 24:00:00 GMT", "soon")
MEMENTO_RELS = ("memento", "first memento", "last memento", "memento  first", "original memento")


# Mostly URI-Ms of a0, so that the stored record and the TimeMap share some.
URIM = st.one_of(
    st.integers(0, 3), st.integers(WAYBACK, WAYBACK + 3), st.integers(0, len(URIMS) - 1)
)


def memento_member(urim, rel, when, extra):
    return f'<{URIMS[urim]}>; rel="{rel}"; datetime="{when}"{extra}'


MEMENTO_MEMBER = st.builds(
    memento_member,
    URIM,
    st.sampled_from(MEMENTO_RELS),
    st.sampled_from(DATES * 12 + BAD_DATES),
    pick("", "", "", '; type="text/html"', " "),
)
# Mostly mementos; the members that fail, rarely.
TIMEMAP_MEMBER = st.one_of(
    MEMENTO_MEMBER,
    MEMENTO_MEMBER,
    MEMENTO_MEMBER,
    MEMENTO_MEMBER,
    st.builds('<{}>; rel="original"{}'.format, st.sampled_from(ORIGINALS * 3 + ORIGINALS[3:]),
              st.sampled_from(["", f'; datetime="{DATES[0]}"'] * 4 + [f'; datetime="{BAD_DATES[0]}"'])),
    pick(
        '<http://agg.test/2>; rel="timemap"; type="application/link-format"',
        f'<http://agg.test/3>; rel="timemap"; datetime="{DATES[3]}"',
        '<http://agg.test/1>; rel="self timemap"',
        f'<http://agg.test/tg>; rel="timegate"; datetime="{DATES[4]}"',
    ),
    pick(
        '<http://agg.test/2>; rel="timemap"; type="application/link-format"',
        f'<http://agg.test/tg>; rel="timegate"; from="{BAD_DATES[0]}"',
        f'<http://agg.test/tg>; rel="timegate"; datetime="{BAD_DATES[1]}"',
        f"<{URIMS[0]}>; rel=memento",  # no datetime
    ),
)


@st.composite
def timemap_pages(draw):
    """One to three pages, a page often repeating the end of the one before."""
    pages = []
    for _ in range(draw(st.integers(1, 3))):
        members = draw(st.lists(TIMEMAP_MEMBER, min_size=1, max_size=8))
        if pages and draw(st.booleans()):
            members = pages[-1][-draw(st.integers(1, 3)):] + members
        pages.append(members)
    return [",\n".join(members) + draw(pick("", "\n", ",")) for members in pages]


# Members of two (head, rest) pairs of a0, as the second of their stamp,
# dated by their stamp or by another date: the first pair is the one the
# stored records use.
PAIRED = st.tuples(
    st.sampled_from([URIR, "https://site.test/page"]), st.integers(0, 59),
    st.sampled_from([None, *DATES[:5]]),
)


def paired_member(rest, second, when):
    when = when or f"Sat, 01 Jan 2000 00:00:{second:02d} GMT"
    return f'<http://a0.test/web/200001010000{second:02d}/{rest}>; rel="memento"; datetime="{when}"'


@st.composite
def ordered_pages(draw):
    """Pages of a TimeMap whose URI-Ms share two pairs, listed in stamp
    order, backwards or in any order, after a page holding the original. A
    stamp may repeat, the pairs' stamps interleave, and a page often
    repeats the end of the one before."""
    members = draw(st.lists(PAIRED, min_size=1, max_size=30))
    order = draw(st.sampled_from(["forward", "backward", "any"]))
    if order == "any":
        members = draw(st.permutations(members))
    else:
        members.sort(key=lambda m: m[1], reverse=order == "backward")
    members = [paired_member(*m) for m in members]
    cuts = sorted(draw(st.lists(st.integers(0, len(members)), max_size=3)))
    pages = [[f'<{URIR}>; rel="original"']]
    for start, end in zip([0, *cuts], [*cuts, len(members)]):
        repeat = draw(st.integers(0, 3))
        pages.append(pages[-1][max(0, len(pages[-1]) - repeat):] + members[start:end])
    return [",\n".join(page) for page in pages if page]


STORED = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(ORIGINALS[:3]),
        st.lists(st.tuples(URIM, st.sampled_from(DATES)), max_size=6),
    ),
)


def stored_collection(stored) -> MementoCollection:
    """A collection holding, reduced, the record ``stored`` lists, if any."""
    collection = MementoCollection()
    if stored is not None:
        urir, mementos = stored
        entries = [LinkEntry(URIMS[i], ("memento",), parse_http_datetime(when)) for i, when in mementos]
        reference_add(collection, record_from_entries(entries, urir, REDUCER_REGISTRY, fetched_at=FETCHED))
    return collection


def links(entries):
    return [e.target for e in entries if "timemap" in e.rel and "self" not in e.rel]


def mementos_read(pages) -> int:
    """The memento members of ``pages``, kept or not."""
    return sum(e.is_memento() for page in pages for e in parse_link_entries(page))


def full_record(pages, hint, registry, archive, provenance=Provenance.AGGREGATOR):
    """The full-record path: every page's entries and one record of them
    all, re-attributed to a serving archive as a direct fetch did."""
    parsed = [parse_link_entries(page) for page in pages]
    record = record_from_entries(
        [e for page in parsed for e in page], hint, registry, provenance, FETCHED
    )
    if archive is not None:
        record = record.with_mementos(replace(m, archive_id=archive.id) for m in record.mementos)
    return [links(page) for page in parsed], record


def full_intake(pages, hint, archive, stored):
    """The full record of the pages, added."""
    collection = stored_collection(stored)
    read, record = full_record(pages, hint, REDUCER_REGISTRY, archive)
    archives = {m.archive_id for m in record.mementos} - {None}
    stored_form = reference_add(collection, record)
    return read, mementos_read(pages), archives, stored_form, collection.totals()


def reduced_intake(pages, hint, archive, stored):
    collection = stored_collection(stored)
    reducer = TimeMapReducer(REDUCER_REGISTRY, collection.get)
    read = [reducer.read(page, archive) for page in pages]
    record = reducer.record(hint, Provenance.AGGREGATOR, FETCHED)
    stored_form = collection.add(record)
    return read, reducer.mementos, reducer.archives, stored_form, collection.totals()


# (datetime, URI-M) pairs as a published list gives them: duplicate URI-Ms,
# unregistered hosts and URI-Ms without one, and equal datetimes.
OFFERED = st.lists(st.tuples(st.sampled_from(DATES).map(parse_http_datetime), URIM), max_size=12)


def offered_intake(pairs, stored):
    """What offering ``pairs`` to a reducer stores, and what the full-record
    path stores of them."""
    mementos = [(dt, URIMS[i]) for dt, i in pairs]
    collection = stored_collection(stored)
    reducer = TimeMapReducer(REDUCER_REGISTRY, collection.get)
    for dt, urim in mementos:
        reducer.offer(dt, urim)
    offered = collection.add(reducer.record(URIR, Provenance.PUBLISHED_LIST, FETCHED))
    full = stored_collection(stored)
    record = compact_record(mementos, URIR, REDUCER_REGISTRY, fetched_at=FETCHED)
    return (offered, collection.totals()), (reference_add(full, record), full.totals())


def intake(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestReducerMatchesFullRecords:
    @given(timemap_pages(), pick(URIR, ORIGINALS[1], "not a uri"),
           st.sampled_from([None, *REDUCER_REGISTRY]), STORED)
    @example(  # a duplicate URI-M: its first datetime, not a later one, competes
        [f'<{URIR}>; rel="original",\n{memento_member(0, "memento", DATES[1], "")},\n'
         f'{memento_member(0, "memento", DATES[0], "")},\n{memento_member(1, "memento", DATES[2], "")}'],
        URIR, None, None,
    )
    @example(  # a stored URI-M read again, earlier, does not compete
        [f'{memento_member(0, "memento", DATES[0], "")},\n{memento_member(1, "memento", DATES[1], "")},\n'
         f'<{URIR}>; rel="original"'],
        URIR, None, (URIR, [(0, DATES[2])]),
    )
    @example(  # only unattributed mementos: read, counted, none kept
        [f'<{URIR}>; rel="original",\n{memento_member(6, "memento", DATES[0], "")}'], URIR, None, None,
    )
    @example(  # the direct fetch: every memento is the serving archive's
        [f'{memento_member(6, "memento", DATES[0], "")},\n{memento_member(9, "memento", DATES[1], "")}'],
        URIR, REDUCER_REGISTRY.get("a1"), (URIR, [(6, DATES[2])]),
    )
    @example(  # a stored URI-M read before the original, then again with another datetime
        [f'{memento_member(WAYBACK, "memento", DATES[0], "")},\n<{URIR}>; rel="original",\n'
         f'{memento_member(WAYBACK, "memento", DATES[3], "")},\n'
         f'{memento_member(WAYBACK + 1, "memento", DATES[1], "")}'],
        URIR, None, (URIR, [(WAYBACK, DATES[2])]),
    )
    @example(  # a plain member whose target has inner whitespace: read, never kept
        [f'<{URIR}>; rel="original",\n<http://a0.test/x y>; rel="memento"; datetime="{DATES[0]}"'],
        URIR, None, None,
    )
    @example(  # a stamp ending in a non-ASCII digit, then the ASCII stamp int() reads in it
        [f'<{URIR}>; rel="original",\n{memento_member(WAYBACK + 6, "memento", DATES[1], "")},\n'
         f'{memento_member(WAYBACK + 7, "memento", DATES[0], "")}'],
        URIR, None, None,
    )
    @example(  # one head + rest split at two places: not one URI-M
        [f'<{URIR}>; rel="original",\n'
         f'<http://a0.test/web//20000101000000{URIR}>; rel="memento"; datetime="{DATES[1]}",\n'
         f'<http://a0.test/web/20000101000000/{URIR}>; rel="memento"; datetime="{DATES[0]}"'],
        URIR, None, None,
    )
    @example(  # plain members of a registered host that model.parse_http_uri refuses or reads
        [f'<{URIR}>; rel="original",\n' + ",\n".join(
            memento_member(i, "memento", DATES[3 + i % 2], "") for i in (10, 11, 12)
        )],
        URIR, None, None,
    )
    def test_adding_the_reduced_record_stores_what_the_full_record_does(
        self, pages, hint, archive, stored
    ):
        assert intake(reduced_intake, pages, hint, archive, stored) == intake(
            full_intake, pages, hint, archive, stored
        )

    @given(OFFERED, STORED)
    @example(  # equal datetimes: the smaller URI-M wins, whichever came first
        [(parse_http_datetime(DATES[0]), 1), (parse_http_datetime(DATES[0]), 0)], None,
    )
    @example(  # a pair already stored does not compete again
        [(parse_http_datetime(DATES[0]), 0), (parse_http_datetime(DATES[1]), 1)], (URIR, [(0, DATES[2])]),
    )
    def test_offering_pairs_stores_what_the_full_record_does(self, pairs, stored):
        offered, full = offered_intake(pairs, stored)
        assert offered == full

    @given(timemap_pages(), st.sampled_from([None, *REDUCER_REGISTRY]), STORED, st.integers(0, 3))
    def test_urims_of_pairs_past_the_limit_are_kept_exactly(self, pages, archive, stored, limit):
        # Past its limit of (head, rest) pairs a reducer keeps URI-Ms as strings.
        with mock.patch.object(linkformat, "_MAX_PAIRS", limit):
            reduced = intake(reduced_intake, pages, URIR, archive, stored)
        assert reduced == intake(full_intake, pages, URIR, archive, stored)

    @given(ordered_pages(), st.sampled_from([None, *REDUCER_REGISTRY]), STORED)
    def test_the_order_of_the_members_changes_nothing_stored(self, pages, archive, stored):
        # A pair's stamps are kept in an array while they arrive in order,
        # and a stamp out of order is looked up there, then in a set.
        assert intake(reduced_intake, pages, URIR, archive, stored) == intake(
            full_intake, pages, URIR, archive, stored
        )

    def test_all_unattributed_timemap_is_accepted_and_stored_empty(self):
        transport = FakeTransport()
        body = f'<{URIR}>; rel="original",\n' + memento_member(6, "memento", DATES[0], "")
        transport.add("GET", f"http://agg.test/{URIR}", 200, {}, body.encode())
        client = ArchiveClient(
            REDUCER_REGISTRY, FetchPolicy(min_request_interval=0.0, retries=0), transport,
            aggregator_template="http://agg.test/{uri}",
        )
        collection = MementoCollection()
        record = client.fetch_timemap_aggregator(URIR, TimeMapReducer(client.registry, collection.get))
        assert record.mementos == ()
        assert collection.add(record).mementos == ()
        assert record.urir.canonical_key in collection


# -- the full reader against the previous full-record builders ----------------

REGISTRY_OR_NONE = st.sampled_from([None, REDUCER_REGISTRY])
HINT = pick(URIR, ORIGINALS[1], "not a uri")


def read_record(pages, hint, registry, archive):
    reader = TimeMapReader(registry)
    read = [reader.read(page, archive) for page in pages]
    record = reader.record(hint, Provenance.AGGREGATOR, FETCHED)
    assert reader.mementos == mementos_read(pages)
    assert reader.archives == {m.archive_id for m in record.mementos} - {None}
    return read, record


# Compact lines: the pairs a published list gives, and lines that fail.
COMPACT_LINE = st.one_of(
    st.tuples(st.sampled_from(DATES).map(parse_http_datetime), URIM).map(
        lambda pair: f"{compact14(pair[0])} {URIMS[pair[1]]}"
    ),
    pick("", "# comment", "  ", "2012 http://x", "20001301000000 http://a0.test/x",
         f"20000101000000 {URIMS[0]} x", "20000101000000"),
)
COMPACT_URIR = pick(URIR, ORIGINALS[1], "not a uri", "ftp://x/")


def reference_parse_compact(text, urir, registry):
    """The previous ``parse_compact``."""
    pairs = (parse_compact_line(line, lineno) for lineno, line in content_lines(text))
    return compact_record(pairs, urir, registry, Provenance.PUBLISHED_LIST, FETCHED)


DIRECT = REDUCER_REGISTRY.get("a0")
PAGE_2 = "http://a0.test/timemap/page2"
ONE_PAGE = st.lists(TIMEMAP_MEMBER, min_size=1, max_size=8).map(",\n".join)


def fetched_direct(pages):
    """``fetch_timemap_direct`` without a reader, over the two ``pages`` a0
    serves; the page links the generated members name answer 404."""
    transport = FakeTransport()
    transport.add("GET", DIRECT.timemap_template.format(uri=URIR), 200, {}, pages[0])
    transport.add("GET", PAGE_2, 200, {}, pages[1])
    for missing in ("http://agg.test/2", "http://agg.test/3"):
        transport.add("GET", missing, 404)
    client = ArchiveClient(
        REDUCER_REGISTRY, FetchPolicy(min_request_interval=0.0, retries=0), transport,
        clock=lambda: FETCHED,
    )
    return client.fetch_timemap_direct(DIRECT, URIR)


def reference_fetched_direct(pages):
    _, record = full_record(pages, URIR, REDUCER_REGISTRY, DIRECT, Provenance.DIRECT_ARCHIVE)
    if not mementos_read(pages):
        raise EmptyTimeMap(URIR)
    return record


class TestReaderMatchesFullRecords:
    @given(timemap_pages(), HINT, st.sampled_from([None, *REDUCER_REGISTRY]), REGISTRY_OR_NONE)
    @example(  # a malformed hint and a page that fails: the page fails first
        ['<http://x/>; rel="memento"; datetime="soon"'], "not a uri", None, None,
    )
    @example(  # a malformed hint and an undated memento: the hint fails first
        [f"<{URIMS[0]}>; rel=memento"], "not a uri", None, REDUCER_REGISTRY,
    )
    @example(  # no registry, served by a0: every memento is a0's
        [f'{memento_member(6, "memento", DATES[0], "")},\n{memento_member(9, "memento", DATES[1], "")}'],
        URIR, REDUCER_REGISTRY.get("a0"), None,
    )
    @example(  # plain members of a registered host that model.parse_http_uri refuses or reads
        [",\n".join(memento_member(i, "memento", DATES[0], "") for i in (10, 11, 12))],
        URIR, None, REDUCER_REGISTRY,
    )
    def test_reading_pages_gives_the_full_record(self, pages, hint, archive, registry):
        assert intake(read_record, pages, hint, registry, archive) == intake(
            full_record, pages, hint, registry, archive
        )

    @given(st.lists(COMPACT_LINE, max_size=10).map("\n".join), COMPACT_URIR, REGISTRY_OR_NONE)
    @example("2012 http://x", "ftp://x/", None)  # a malformed URI-R fails before any line
    @example(f"20000101000000 {URIMS[0]}\n2012 http://x", "not a uri", REDUCER_REGISTRY)
    def test_parse_compact_gives_the_full_record(self, text, urir, registry):
        new = intake(parse_compact, text, urir, registry, Provenance.PUBLISHED_LIST, FETCHED)
        assert new == intake(reference_parse_compact, text, urir, registry)

    @given(ONE_PAGE, ONE_PAGE)
    @example(f'<{URIR}>; rel="original"', '<http://agg.test/1>; rel="self timemap"')  # no memento
    def test_direct_fetch_without_a_reader_gives_the_full_record(self, first, second):
        pages = [f'{first},\n<{PAGE_2}>; rel="timemap"', second]  # the first links to the second
        assert intake(fetched_direct, pages) == intake(reference_fetched_direct, pages)
