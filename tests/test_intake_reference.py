"""Property tests of TimeMap intake against the character loops and the
linear domain scan it replaced.

The reference implementations below are the previous code, kept here
verbatim: the tokenizer must split, parse and fail exactly as they did, and
the registry must match hosts and reject overlaps exactly as they did.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from mementoset import ArchiveDescriptor, ArchiveRegistry, ParseError, Purpose, default_registry
from mementoset import linkformat
from mementoset.linkformat import _MEMBER, _PARAM, _split, parse_link_entries


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


def outcome(text: str, strict: bool):
    try:
        return parse_link_entries(text, strict=strict)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset)


class TestTokenizerMatchesCharacterLoops:
    @settings(max_examples=300, deadline=None)
    @given(TEXT)
    def test_splits_identical(self, text):
        assert list(_split(_MEMBER, text)) == list(reference_split_members(text))
        assert [part for _, part in _split(_PARAM, text)] == reference_split_params(text)

    @settings(max_examples=300, deadline=None)
    @given(TEXT)
    def test_entries_and_errors_identical(self, text):
        for strict in (False, True):
            new = outcome(text, strict)
            with mock.patch.object(linkformat, "_split", reference_split):
                old = outcome(text, strict)
            assert new == old


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
    @settings(max_examples=300, deadline=None)
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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 100), HOST_PARTS, st.booleans())
    def test_bundled_registry_lookup_agrees(self, pick, host_parts, foreign):
        registry = default_registry()
        domains = [d for a in registry for d in a.all_domains()]
        labels, case, dots = host_parts
        domain = "example.org" if foreign else domains[pick % len(domains)]
        host = build_host(labels, domain, case, dots)
        assert registry.match_host(host) is reference_match_host(registry, host)
