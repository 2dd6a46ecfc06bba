import random

import pytest

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
from mementoset.canonical import MAX_HOPS
from mockserver import FakeTransport


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

    def test_unsurt_inverts(self):
        assert unsurt("com,example)/") == "http://example.com/"
        assert unsurt("com,example:8080)/x?a=1") == "http://example.com:8080/x?a=1"

    def test_unsurt_rejects_non_surt(self):
        with pytest.raises(MalformedUri):
            unsurt("http://example.com/")
        with pytest.raises(MalformedUri):
            unsurt(")/")


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
