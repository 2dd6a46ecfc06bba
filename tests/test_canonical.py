import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mementoset import (
    ArchiveClient,
    FetchPolicy,
    HopLimitExceeded,
    MalformedUri,
    PathBucket,
    RedirectLoop,
    path_length,
    registrable_domain,
    surt,
    unsurt,
)
from mementoset.canonical import MAX_HOPS, kept_uri
from mementoset.model import absolute_uri, parse_http_uri
from mockserver import FakeTransport
from reduction_reference import kept
from uri_reference import _host_of, _split


class TestSurt:
    def test_strips_www_and_scheme(self):
        assert surt("http://www.example.com") == "com,example)/"

    def test_drops_default_port(self):
        assert surt("http://www.example.com:80") == "com,example)/"
        assert surt("https://www.example.com:443") == "com,example)/"

    def test_lowercases_host(self):
        assert surt("http://www.EXAMPLE.com") == "com,example)/"

    def test_scheme_less_input(self):
        # Canonicalizers in the wild accept bare hosts; treat them as http.
        assert surt("www.EXAMPLE.com") == "com,example)/"

    def test_multi_label_host_keeps_path_case(self):
        assert surt("https://a.b.co.uk/P/q.html") == "uk,co,b,a)/P/q.html"

    def test_non_default_port_kept(self):
        assert surt("http://example.com:8080/x") == "com,example:8080)/x"

    def test_query_kept_fragment_dropped(self):
        assert surt("http://a.com/x?b=2&a=1#frag") == "com,a)/x?b=2&a=1"

    def test_digit_suffixed_www_stripped(self):
        assert surt("http://www2.example.com/") == "com,example)/"

    def test_www_only_host_not_emptied(self):
        assert surt("http://www.com/") == "com)/"

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "ftp://example.com/", "mailto:someone@example.com",
         "javascript:void(0)", "http://", "http:///path", "http://..../",
         "not a uri", "http://a b.test/", "http://a\x00b.test/", "a\u3000b.test"],
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedUri):
            surt(bad)

    @pytest.mark.parametrize(
        "bad",
        [" http://a.test/", "http://a.test/\n", "http://a.test/x y", "http://a.test/x\u2028y",
         "http://a.test/x\x85y", "http://a.test/x\x7fy", "http://a.test/\u00a0"],
    )
    def test_whitespace_or_a_control_anywhere_is_malformed(self, bad):
        with pytest.raises(MalformedUri, match="whitespace or control character"):
            surt(bad)

    def test_unsurt_inverts(self):
        assert unsurt("com,example)/") == "http://example.com/"
        assert unsurt("com,example:8080)/x?a=1") == "http://example.com:8080/x?a=1"

    def test_unsurt_rejects_non_surt(self):
        with pytest.raises(MalformedUri):
            unsurt("http://example.com/")
        with pytest.raises(MalformedUri):
            unsurt(")/")


def test_kept_uri_refuses_whitespace_and_controls_at_every_code_point():
    # The ASCII test and the pattern together, against the reference rule.
    chars = (chr(cp) for cp in range(0x110000) if not 0xD800 <= cp <= 0xDFFF)
    assert [hex(ord(c)) for c in chars if kept_uri(c) is not kept(c)] == []


def random_uri(rng: random.Random) -> str:
    scheme = rng.choice(["http", "https"])
    www = rng.choice(["", "www.", "www2.", "WWW."])
    labels = rng.randint(1, 3)
    host = ".".join(
        "".join(rng.choices("abcdefgh", k=rng.randint(2, 6))) for _ in range(labels)
    ) + rng.choice([".com", ".org", ".co.uk", ".de"])
    port = rng.choice(["", "", ":80", ":443", ":8080"])
    segs = rng.randint(0, 5)
    path = "".join(
        "/" + "".join(rng.choices("abcXYZ059", k=rng.randint(1, 8))) for _ in range(segs)
    )
    query = rng.choice(["", "?a=1&b=2", "?Z=%20x"])
    frag = rng.choice(["", "#top"])
    return f"{scheme}://{www}{host}{port}{path}{query}{frag}"


class TestSurtProperties:
    N = 10_000

    def test_idempotent_and_invariant(self):
        from urllib.parse import urlsplit, urlunsplit

        rng = random.Random(20170608)
        for _ in range(self.N):
            uri = random_uri(rng)
            key = surt(uri)
            # Idempotence via the reconstructed URI.
            assert surt(unsurt(key)) == key
            # Host case never matters.
            parts = urlsplit(uri)
            upper = urlunsplit(parts._replace(netloc=parts.netloc.upper()))
            assert surt(upper) == key

    def test_default_port_and_scheme_invariance(self):
        rng = random.Random(42)
        for _ in range(2_000):
            host = "ex" + "".join(rng.choices("lmnop", k=4)) + ".com"
            path = rng.choice(["", "/a", "/a/B.html"])
            base = surt(f"http://{host}{path}")
            assert surt(f"http://{host}:80{path}") == base
            assert surt(f"https://{host}:443{path}") == base
            assert surt(f"https://{host}{path}") == base


class TestPathLength:
    def test_zero(self):
        assert path_length("http://www.example.com") is PathBucket.S0

    def test_three_scheme_less(self):
        assert path_length("www.example.com/1/2/file3.html") is PathBucket.S3

    def test_query_ignored(self):
        # One segment ("watch"); the v= parameter is not a path segment.
        assert path_length("http://www.youtube.com/watch?v=cpPG0bKHYKc") is PathBucket.S1

    def test_four_plus_collapses(self):
        assert path_length("http://e.com/1/2/3/file4.html") is PathBucket.S4PLUS
        assert path_length("http://e.com/1/2/3/4/5/6") is PathBucket.S4PLUS

    def test_trailing_slash_ignored(self):
        assert path_length("http://e.com/a/") is PathBucket.S1
        assert path_length("http://e.com/") is PathBucket.S0

    def test_invariance_properties(self):
        rng = random.Random(7)
        for _ in range(2_000):
            uri = random_uri(rng)
            base = path_length(uri)
            stripped = uri.split("?", 1)[0].split("#", 1)[0]
            assert path_length(stripped) is base
            assert path_length(stripped.rstrip("/") + "/") is base

    def test_malformed(self):
        with pytest.raises(MalformedUri):
            path_length("mailto:x@y")


class TestRegistrableDomain:
    def test_plain(self):
        assert registrable_domain("www.youtube.com") == "youtube.com"

    def test_two_level_suffix(self):
        assert registrable_domain("news.bbc.co.uk") == "bbc.co.uk"
        assert registrable_domain("www.collectionscanada.gc.ca") == "collectionscanada.gc.ca"

    def test_from_uri(self):
        assert registrable_domain("http://sub.a.example.org/x") == "example.org"

    def test_bare_second_level(self):
        assert registrable_domain("example.com") == "example.com"


class TestResolveRedirects:
    """Redirects resolve through ``ArchiveClient.resolve``, the one driver
    of ``redirect_steps``: each hop a request in the client's lanes."""

    @pytest.fixture()
    def resolver(self, registry):
        def build(mapping):
            """A client over a transport that answers each URI's HEAD with
            ``(status, location)``, and its GET with a third status."""
            transport = FakeTransport()
            for uri, (status, location, *rest) in mapping.items():
                headers = {"Location": location} if location else {}
                transport.add("HEAD", uri, status, headers)
                if rest:
                    transport.add("GET", uri, rest[0], headers)
            return ArchiveClient(registry, FetchPolicy(0, 0), transport), transport

        return build

    def test_no_redirect_single_hop(self, resolver):
        client, transport = resolver({"http://a.com/": (200, None)})
        chain = client.resolve("http://a.com/")
        assert chain.final_uri == "http://a.com/"
        assert chain.terminal_status == 200
        assert chain.hops == (("http://a.com/", 200),)
        assert transport.requests == [("HEAD", "http://a.com/")]

    def test_fb_unification(self, resolver):
        client, _ = resolver(
            {
                "http://www.fb.com": (301, "https://www.facebook.com/"),
                "http://facebook.com": (301, "https://www.facebook.com/"),
                "https://www.facebook.com/": (200, None),
            }
        )
        a = client.resolve("http://www.fb.com")
        b = client.resolve("http://facebook.com")
        assert a.final_uri == b.final_uri == "https://www.facebook.com/"
        assert a.hops[0] == ("http://www.fb.com", 301)
        assert surt(a.final_uri) == surt(b.final_uri)

    def test_relative_location(self, resolver):
        client, _ = resolver(
            {
                "http://h.com/old": (302, "/new"),
                "http://h.com/new": (200, None),
            }
        )
        assert client.resolve("http://h.com/old").final_uri == "http://h.com/new"

    def test_loop_detected(self, resolver):
        client, _ = resolver(
            {
                "http://a.com/1": (301, "http://a.com/2"),
                "http://a.com/2": (301, "http://a.com/1"),
            }
        )
        with pytest.raises(RedirectLoop):
            client.resolve("http://a.com/1")

    def test_hop_limit(self, resolver):
        client, transport = resolver(
            {f"http://a.com/{i}": (301, f"http://a.com/{i + 1}") for i in range(2 * MAX_HOPS)}
        )
        with pytest.raises(HopLimitExceeded) as info:
            client.resolve("http://a.com/0")
        assert info.value.limit == MAX_HOPS
        assert len(transport.requests) == MAX_HOPS

    def test_a_chain_of_max_hops_resolves(self, resolver):
        client, _ = resolver(
            {f"http://a.com/{i}": (301, f"http://a.com/{i + 1}") for i in range(MAX_HOPS - 1)}
            | {f"http://a.com/{MAX_HOPS - 1}": (200, None)}
        )
        chain = client.resolve("http://a.com/0")
        assert len(chain.hops) == MAX_HOPS
        assert chain.final_uri == f"http://a.com/{MAX_HOPS - 1}"

    def test_head_falls_back_to_get(self, resolver):
        client, transport = resolver({"http://h.com/": (405, None, 200)})
        chain = client.resolve("http://h.com/")
        assert chain.terminal_status == 200
        assert transport.requests == [("HEAD", "http://h.com/"), ("GET", "http://h.com/")]

    def test_redirect_without_location_terminates(self, resolver):
        client, _ = resolver({"http://a.com/": (301, None)})
        chain = client.resolve("http://a.com/")
        assert chain.terminal_status == 301
        assert chain.final_uri == "http://a.com/"


# Absolute URIs in parts: scheme case, userinfo, names with case and
# trailing dots, IP literals, ports default, other and unparsable, empty
# paths, queries and fragments, and the parts the parse refuses.
SCHEME = st.sampled_from(["http", "https", "HTTP", "hTtPs", "ftp", "mailto"])
USERINFO = st.sampled_from(["", "u@", "u:p@", "@", "a%40b@"])
LABEL = st.from_regex(r"[A-Za-z0-9]([A-Za-z0-9-]{0,4}[A-Za-z0-9])?", fullmatch=True)
NAME = st.builds(
    "{}{}".format, st.lists(LABEL, min_size=1, max_size=3).map(".".join), st.sampled_from(["", ".", ".."])
)
HOST = st.one_of(
    NAME,
    st.sampled_from(["1.2.3.4", "[::1]", "[2001:DB8::1]", "[::ffff:1.2.3.4]"]),
    st.sampled_from(["", "a..b", ".a", ".", "..", "a.b..c"]),
)
PORT = st.sampled_from(["", ":", ":80", ":443", ":8080", ":0", ":065535", ":65536", ":x"])
PATH = st.sampled_from(["", "/", "/a/B", "/a@b", "/%41", "/web/2000/http://a.example/", "/x y", "/x\x85"])
QUERY = st.sampled_from([None, "", "a=1&b", "x?y"])
FRAGMENT = st.sampled_from([None, "", "f", "a?b", "x\u2028y"])

# What the parse refuses, each with the old readers that accepted such a
# URI (``uri_reference``): the request key, ``client._split``, and the
# attribution host, ``model._host_of``.
REFUSED = {
    "a scheme other than http or https": ("client._split",),
    "whitespace or a control character": ("client._split", "model._host_of"),
    "no host": ("client._split",),
    "an empty host label": ("client._split", "model._host_of"),
    "a port that does not parse": ("model._host_of",),
}
OLD = {"client._split": _split, "model._host_of": _host_of}


def refused_for(scheme, host, port, path, fragment) -> set[str]:
    """The classes of ``REFUSED`` a URI of these parts falls in."""
    classes = set()
    if scheme.lower() not in ("http", "https"):
        classes.add("a scheme other than http or https")
    if not kept(path + (fragment or "")):
        classes.add("whitespace or a control character")
    if not host:
        classes.add("no host")
    elif "" in host.rstrip(".").split("."):
        classes.add("an empty host label")
    if port in (":65536", ":x"):
        classes.add("a port that does not parse")
    return classes


class TestOneParse:
    """``model.parse_http_uri`` reads every URI the old request key and
    attribution host read as they did, and refuses only the classes
    ``REFUSED`` lists."""

    @given(SCHEME, USERINFO, HOST, PORT, PATH, QUERY, FRAGMENT)
    @example("http", "", "a..b", "", "/", None, None)
    @example("HTTP", "u@", "[2001:DB8::1]", ":80", "", "", "f")
    @example("https", "", "Example.COM..", ":0443", "", None, None)
    def test_the_lane_key_and_archive_host_are_the_old_ones(
        self, scheme, userinfo, host, port, path, query, fragment
    ):
        uri = f"{scheme}://{userinfo}{host}{port}{path}"
        uri += "" if query is None else f"?{query}"
        uri += "" if fragment is None else f"#{fragment}"
        classes = refused_for(scheme, host, port, path, fragment)
        try:
            parsed = parse_http_uri(uri)
        except MalformedUri:
            assert classes and classes <= REFUSED.keys()
            if len(classes) == 1:
                for old in REFUSED[classes.pop()]:
                    OLD[old](uri)  # accepted: it does not raise
            return
        assert not classes
        assert (parsed.host, parsed.equivalent) == _split(uri)
        assert parsed.host == _host_of(uri)

    @pytest.mark.parametrize("written, absolute", [
        ("www.example.com", "http://www.example.com"),
        ("example.com", "http://example.com"),
        ("//example.com/x", "http://example.com/x"),
        ("example.com:8080/x", "http://example.com:8080/x"),
        ("HTTPS://Example.com:443/#f", "HTTPS://Example.com:443/#f"),
        ("http://a.example/x?", "http://a.example/x?"),
    ])
    def test_a_urir_reads_as_the_absolute_uri_it_is_keyed_by(self, written, absolute):
        assert absolute_uri(written) == absolute
        assert surt(written) == surt(absolute)
        assert path_length(written) is path_length(absolute)
        assert registrable_domain(written) == registrable_domain(absolute)

    @pytest.mark.parametrize("written", ["", "mailto:x@y", "ftp://a.example/", "HTTP:a.example"])
    def test_a_urir_of_another_scheme_is_refused(self, written):
        with pytest.raises(MalformedUri):
            absolute_uri(written)
