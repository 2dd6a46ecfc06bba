"""Seeded inputs for the three workloads, with their expected results.

``scan_inputs`` cuts a candidate stream from ``tests/universe.py``.
``dataset_inputs`` generates everything a four-method run and the
downsampling need: source lists, aggregator TimeMaps (some paged and
holding duplicate URI-Ms), live-web redirects, raw memento pages with
links, two published lists and direct perma.cc TimeMaps.

Where ``tests/published_counts.py`` holds a marginal of the published
dataset, the generator follows it: the share of URI-Rs each archive
holds, the capture years of each archive, the share of URI-Rs with an
empty path and the live-web error rate per path bucket. The TimeMap
sizes, the share of unregistered-archive entries and the raw-download
failure rates have no published figure; they are assumptions, named as
such where they are set.

The structure of the dataset inputs is fixed: every seed yields the same
number of candidates of each kind, the same per-archive presence counts
and the same positions for the rows that drive Methods 2-4, so the
number of operations a run attempts never depends on the seed. The seed
picks the names, paths, capture times, live statuses, TimeMap sizes per
URI-R and the order of the candidate stream.

Besides the inputs the program sees (files and routes), each builder
returns what the checkers need and the program never sees: the Method 1
selection re-derived from planted identities, the planted archive of
every URI-M, the planted non-archival raw responses and the published
groups.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import format_datetime
from pathlib import Path

from mockserver import Route
from published_counts import (
    S0_URIRS, STATUS_BUCKETS, UNIQUE_URIRS, URIMS_PER_YEAR, URIR_COUNTS, YEAR_TOTALS,
)

from server import Routes, Web

AGGREGATOR = "http://timetravel.test/timemap/link/{uri}"
AGGREGATOR_PAGE = "http://timetravel.test/timemap/link/{page}/{uri}"
# The bundled registry's direct TimeMap endpoint for perma.cc.
PERMA_TIMEMAP = "https://perma-archives.org/warc/timemap/*/{uri}"

IA = "web.archive.org"
NO_RAW = ("archive.is", "webcitation.org")

# URI-M shapes per archive; ``{s}`` is the 14-digit stamp, ``{u}`` the URI-R.
URIM_TEMPLATES = {
    "web.archive.org": ("http://web.archive.org/web/{s}/{u}", "http://wayback.archive.org/web/{s}/{u}"),
    "swap.stanford.edu": ("http://swap.stanford.edu/{s}/{u}",),
    "archive.bibalex.org": ("http://archive.bibalex.org/web/{s}/{u}",),
    "arquivo.pt": ("http://arquivo.pt/wayback/{s}/{u}",),
    "collectionscanada.gc.ca": ("http://www.collectionscanada.gc.ca/webarchives/{s}/{u}",),
    "digar.ee": ("http://veebiarhiiv.digar.ee/a/{s}/{u}",),
    "nationalarchives.gov.uk": ("http://webarchive.nationalarchives.gov.uk/{s}/{u}",),
    "vefsafn.is": ("http://wayback.vefsafn.is/wayback/{s}/{u}",),
    "webarchive.loc.gov": ("http://webarchive.loc.gov/all/{s}/{u}",),
    "webarchive.org.uk": ("http://www.webarchive.org.uk/wayback/archive/{s}/{u}",),
    "webarchive.proni.gov.uk": ("http://webarchive.proni.gov.uk/{s}/{u}",),
    "webharvest.gov": ("http://webharvest.gov/peth04/{s}/{u}",),
    "archive-it.org": ("http://wayback.archive-it.org/all/{s}/{u}",),
    "archive.is": ("http://archive.is/{s}/{u}", "http://archive.today/{s}/{u}"),
    "perma.cc": ("https://perma-archives.org/warc/{s}/{u}",),
    "webcitation.org": ("http://www.webcitation.org/{s}/{u}",),
    "europarchive.org": ("http://collection.europarchive.org/{s}/{u}",),
}
UNREGISTERED = "http://archive.example-memory.net/{s}/{u}"

# Published marginals. An archive appears in the TimeMaps of the same
# share of Method 1 URI-Rs as it holds of the published URI-Rs, except the
# Internet Archive, which appears in all of them: an aggregator TimeMap
# almost always lists it, and its published count reflects the per-archive
# cap rather than its coverage.
URIR_SHARE = {a: n / UNIQUE_URIRS for a, n in URIR_COUNTS.items() if a != IA}
S0_SHARE = S0_URIRS / UNIQUE_URIRS
LIVE_ERROR_RATE = {b: err / (ok + err) for b, (ok, err) in STATUS_BUCKETS.items()}
BUCKETS = ("s0", "s1", "s2", "s3", "s4plus")

# Assumptions, with no published figure behind them.
COVERED_ENTRY_SHARE = 0.05  # of a TimeMap's entries, per well-covered archive
UNREGISTERED_PER = 100  # one unregistered-archive entry per this many, in TimeMaps of 100+
HEAD_REFUSED = 0.1  # live hosts answering HEAD with 405
NON_ARCHIVAL_RATE = 0.06  # raw downloads answering a 500/502/504 without Memento-Datetime
ARCHIVAL_404_RATE = 0.03  # raw downloads answering an archival 404

METHOD2_TARGETS = ("swap.stanford.edu", "vefsafn.is")
LIST_ONLY = "webarchive.org.uk"  # Method 3, urirs_only list
LIST_COMPACT = "nationalarchives.gov.uk"  # Method 3, urirs_and_urims list

TLDS = ("com", "org", "net", "co.uk", "de", "fr", "com.au", "org.uk", "info", "edu", "ca", "gov.uk")
WORDS = (
    "river", "atlas", "civic", "harbor", "pixel", "orbit", "maple", "delta", "summit",
    "lumen", "cedar", "vector", "ember", "quartz", "prairie", "nova", "basalt", "fjord",
)


@dataclass(frozen=True)
class Sizes:
    """How much of each thing one dataset run gets."""

    fresh: int = 100  # new resource, nonempty TimeMap: accepted
    fresh_redirect: int = 20  # the same, reached through 1-2 redirects
    empty: int = 14  # new resource whose TimeMap is empty
    variant: int = 20  # exact-SURT variant of an accepted URI-R
    alias: int = 20  # redirect to an accepted URI-R
    collider: int = 24  # registrable domain and bucket already used
    dead: int = 16  # host that never answers
    # (mementos in the aggregator TimeMap, how many accepted URI-Rs get it):
    # an assumption, a heavy tail with no published figure behind it.
    timemap_sizes: tuple[tuple[int, int], ...] = (
        (20000, 1), (1000, 3), (150, 10), (30, 30), (8, 76),
    )
    page_size: int = 2500  # aggregator TimeMap page length
    page_overlap: int = 50  # URI-Ms repeated at the start of the next page
    min_urirs: int = 20
    max_urims: int = 200
    keep_quota: int = 3

    @property
    def accepted(self) -> int:
        return self.fresh + self.fresh_redirect

    @property
    def candidates(self) -> int:
        return (
            self.accepted + self.empty + self.variant + self.alias
            + self.collider + self.dead
        )

    def presence(self) -> dict[str, int]:
        """Method 1 TimeMaps each archive but the Internet Archive is in."""
        return {a: round(share * self.accepted) for a, share in URIR_SHARE.items()}


@dataclass
class DatasetInputs:
    seed: int
    sizes: Sizes
    web: Web
    source_files: dict[str, Path]  # moz, damage, httparchive, "#tag" -> path
    published_lists: list[dict]
    expected_accepted: list[str]
    planted_archive: dict[str, str | None]  # URI-M -> archive id
    non_archival: set[str]  # URI-Ms whose raw download is a non-archival 5xx
    published: dict[str, tuple[tuple[str, str], ...]]  # URI-R -> compact entries


def http_date(stamp: str) -> str:
    dt = datetime.strptime(stamp, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)
    return format_datetime(dt, usegmt=True)


_RAW = re.compile(r"/(\d{14})id_/")


def _year_table(weights: dict[int, int]) -> tuple[list[int], list[int]]:
    years = sorted(weights)
    return years, list(itertools.accumulate(weights[y] for y in years))


YEARS = {a: _year_table(w) for a, w in URIMS_PER_YEAR.items()}
YEARS[None] = _year_table(YEAR_TOTALS)


class _Builder:
    def __init__(self, seed: int, sizes: Sizes):
        self.rng = random.Random(f"dataset:{seed}")
        self.sizes = sizes
        self.web = Web(Routes(self.raw_route))
        self.planted: dict[str, str | None] = {}
        self.raw_status: dict[str, int] = {}  # URI-M -> raw status, when not 200
        self.pages: dict[str, bytes] = {}  # URI-M -> raw body with links
        self._names = 0

    # -- names -------------------------------------------------------------

    def domain(self) -> str:
        self._names += 1
        return f"{self.rng.choice(WORDS)}{self._names}.{self.rng.choice(TLDS)}"

    def path(self, segments: int) -> str:
        if segments == 0:
            return self.rng.choice(("/", "/", "/?lang=en"))
        parts = [f"{self.rng.choice(WORDS)[:4]}{self.rng.randint(0, 99)}" for _ in range(segments)]
        return "/" + "/".join(parts) + self.rng.choice(("", "", ".html", "/"))

    def fresh_uri(self) -> tuple[str, str, int]:
        """(final URI, registrable domain, path segments)."""
        domain = self.domain()
        host = self.rng.choice(("", "", "www.")) + domain
        # The published share of empty paths; the other buckets evenly.
        segments = 0 if self.rng.random() < S0_SHARE else self.rng.randint(1, 4)
        return f"http://{host}{self.path(segments)}", domain, segments

    def stamp(self, archive: str | None) -> str:
        years, cum = YEARS[archive]
        year = self.rng.choices(years, cum_weights=cum)[0]
        start = datetime(year, 1, 1, tzinfo=timezone.utc).timestamp()
        second = self.rng.randrange(int(datetime(year + 1, 1, 1, tzinfo=timezone.utc).timestamp() - start))
        return datetime.fromtimestamp(start + second, timezone.utc).strftime("%Y%m%d%H%M%S")

    # -- routes ------------------------------------------------------------

    def head(self, uri: str, status: int, location: str | None = None) -> None:
        self.web.add("HEAD", uri, status, {"Location": location} if location else None)

    def live(self, uri: str, segments: int) -> None:
        """A live resource: the published error rate of its path bucket."""
        error = self.rng.random() < LIVE_ERROR_RATE[BUCKETS[min(segments, 4)]]
        status = self.rng.choice((404, 410, 500)) if error else 200
        if self.rng.random() < HEAD_REFUSED:  # the resolver falls back to GET
            self.head(uri, 405)
            self.web.add("GET", uri, status, None, b"<html></html>")
        else:
            self.head(uri, status)

    def mementos(self, urir: str, counts: dict[str | None, int]) -> list[tuple[str, str]]:
        """Planted (urim, stamp) pairs sorted by time, unique URI-Ms."""
        out: dict[str, str] = {}
        for archive, n in counts.items():
            templates = URIM_TEMPLATES[archive] if archive else (UNREGISTERED,)
            raw = archive is not None and archive not in NO_RAW
            made = 0
            while made < n:
                stamp = self.stamp(archive)
                urim = self.rng.choice(templates).format(s=stamp, u=urir)
                if urim in out:
                    continue
                out[urim] = stamp
                self.planted[urim] = archive
                made += 1
                if raw:
                    roll = self.rng.random()
                    if roll < NON_ARCHIVAL_RATE:
                        self.raw_status[urim] = self.rng.choice((500, 502, 504))
                    elif roll < NON_ARCHIVAL_RATE + ARCHIVAL_404_RATE:
                        self.raw_status[urim] = 404
        return sorted(out.items(), key=lambda kv: (kv[1], kv[0]))

    def raw_route(self, uri: str) -> Route | None:
        """The raw download of a planted URI-M, made when it is requested."""
        found = _RAW.search(uri)
        if found is None:
            return None
        stamp = found.group(1)
        urim = f"{uri[:found.start()]}/{stamp}/{uri[found.end():]}"
        archive = self.planted.get(urim)
        if archive is None or archive in NO_RAW:
            return None
        status = self.raw_status.get(urim, 200)
        if status >= 500:
            return Route(status, {}, b"archive error")
        body = self.pages.get(urim)
        if body is None:
            urir = urim.split(f"/{stamp}/", 1)[1]
            body = (
                f'<html><body><a href="{urir}">home</a> <a href="#top">top</a>'
                f' <a href="mailto:info@example.org">mail</a></body></html>'
            ).encode()
        headers = {"Memento-Datetime": http_date(stamp), "Content-Type": "text/html"}
        return Route(status, headers, body)

    def timemap(self, urir: str, entries: list[tuple[str, str]], first_uri: str) -> None:
        """Serve ``entries`` as a link-format TimeMap, paged when long."""
        size, overlap = self.sizes.page_size, self.sizes.page_overlap
        chunks = [entries[0:size]]
        start = size
        while start < len(entries):
            chunks.append(entries[start - overlap : start + size])
            start += size
        uris = [first_uri] + [
            AGGREGATOR_PAGE.format(page=k + 1, uri=urir) for k in range(1, len(chunks))
        ]
        for k, chunk in enumerate(chunks):
            members = [
                f'<{urir}>; rel="original"',
                f'<{uris[k]}>; rel="self"; type="application/link-format"',
                f'<http://timetravel.test/timegate/{urir}>; rel="timegate"',
            ]
            if k + 1 < len(chunks):
                members.append(f'<{uris[k + 1]}>; rel="timemap"; type="application/link-format"')
            last = len(chunk) - 1
            for j, (urim, stamp) in enumerate(chunk):
                rel = "first memento" if k == 0 and j == 0 else (
                    "last memento" if k + 1 == len(chunks) and j == last else "memento")
                members.append(f'<{urim}>; rel="{rel}"; datetime="{http_date(stamp)}"')
            body = (",\n".join(members) + "\n").encode()
            self.web.add_timemap(
                uris[k], 200, body, urir, chunk, {"Content-Type": "application/link-format"}
            )

    def empty_timemap(self, uri: str) -> None:
        body = b"" if self.rng.random() < 0.25 else b"not archived"
        self.web.add_timemap(uri, 200 if not body else 404, body)

    def link_page(self, urir: str, links: list[str]) -> bytes:
        anchors = " ".join(f'<a href="{u}">{self.rng.choice(WORDS)}</a>' for u in links)
        words = " ".join(self.rng.choice(WORDS) for _ in range(60))
        return (
            f"<html><head><title>{self.rng.choice(WORDS)}</title></head><body>"
            f"<p>{words}</p><p>{anchors} <a href=\"{links[0]}\">again</a>"
            f' <a href="{urir}">home</a> <a href="#top">top</a>'
            f' <a href="mailto:info@example.org">mail</a></p></body></html>'
        ).encode()


def _archive_sets(b: _Builder, perma: list[int]) -> list[list[str]]:
    """Archives of each Method 1 TimeMap, in acceptance order."""
    sizes = b.sizes
    accepted = sizes.accepted
    presence = sizes.presence()
    sparse = (*METHOD2_TARGETS, LIST_ONLY, LIST_COMPACT, "perma.cc")
    if any(presence[a] >= sizes.min_urirs for a in sparse) or any(
        presence[a] < sizes.min_urirs for a in NO_RAW
    ):
        raise ValueError("sizes must leave Methods 2-4 work and cover archive.is and webcitation.org")
    sets: list[list[str]] = [[IA] for _ in range(accepted)]
    for archive, count in presence.items():
        where = perma if archive == "perma.cc" else b.rng.sample(range(accepted), count)
        for i in where:
            sets[i].append(archive)
    return sets


def _counts(b: _Builder, size: int, archives: list[str], covered: set[str]) -> dict[str | None, int]:
    counts: dict[str | None, int] = {}
    for archive in archives[1:]:
        if archive in covered:
            counts[archive] = max(1, int(size * COVERED_ENTRY_SHARE))
        else:
            counts[archive] = b.rng.randint(1, 3)
    if size >= UNREGISTERED_PER:
        counts[None] = size // UNREGISTERED_PER
    # A small TimeMap drawn into many archives grows to hold one of each.
    counts[IA] = max(1, size - sum(counts.values()))
    return counts


def _variant(b: _Builder, final: str, n: int) -> str:
    scheme, rest = final.split("://", 1)
    host, slash, path = rest.partition("/")
    form = b.rng.randrange(4)
    if form == 0:
        host = host.upper()
    elif form == 1:
        host = f"{host}:80"
    elif form == 2:
        scheme = "https"
    else:
        host = host[4:] if host.startswith("www.") else "www." + host
    return f"{scheme}://{host}{slash}{path}#v{n}"


def dataset_inputs(seed: int, out_dir: Path, sizes: Sizes = Sizes()) -> DatasetInputs:
    """Generate the dataset workloads' inputs; files go under ``out_dir``."""
    b = _Builder(seed, sizes)
    rng = b.rng

    # -- Method 1 stream ---------------------------------------------------
    kinds = (
        ["fresh"] * (sizes.fresh - 1) + ["fresh_redirect"] * sizes.fresh_redirect
        + ["empty"] * sizes.empty + ["variant"] * sizes.variant + ["alias"] * sizes.alias
        + ["collider"] * sizes.collider + ["dead"] * sizes.dead
    )
    rng.shuffle(kinds)
    kinds.insert(0, "fresh")

    stream_uris: list[str] = []
    accepted: list[tuple[str, str, str, int]] = []  # (candidate, final, domain, segments)
    used: set[str] = set()
    # Planted identities for the brute-force selection: resource, domain, bucket.
    planted: list[tuple[str | None, str | None, int | None, bool]] = []
    for n, kind in enumerate(kinds):
        if kind in ("fresh", "fresh_redirect", "empty"):
            final, domain, segments = b.fresh_uri()
            b.live(final, segments)
            uri = final
            if kind == "fresh_redirect":
                uri = f"http://go{n}.{rng.choice(('tinylink.net', 'shrt.io', 'bit.example'))}/{n:x}"
                hop = uri
                if n % 5 < 2:
                    mid = f"{uri}/next"
                    b.head(uri, 302, mid)
                    hop = mid
                b.head(hop, rng.choice((301, 302, 307)), final)
            if kind == "empty":
                b.empty_timemap(AGGREGATOR.format(uri=final))
            else:
                accepted.append((uri, final, domain, segments))
            planted.append((final, domain, segments, kind != "empty"))
        elif kind == "variant":
            _, final, domain, segments = rng.choice(accepted)
            uri = _variant(b, final, n)
            b.head(uri, 200)
            planted.append((final, domain, segments, True))
        elif kind == "alias":
            _, final, domain, segments = rng.choice(accepted)
            uri = f"http://r{n}.redirector.example/to/{n}"
            b.head(uri, 301, final)
            planted.append((final, domain, segments, True))
        elif kind == "collider":
            _, final, domain, segments = rng.choice(accepted)
            sub = rng.choice(("blog", "shop", "news", "m"))
            uri = f"http://{sub}{n}.{domain}{b.path(segments)}"
            b.live(uri, segments)
            planted.append((uri, domain, segments, True))
        else:
            uri = f"http://down{n}.unreachable.example/"
            planted.append((None, None, None, False))
        assert uri not in used
        used.add(uri)
        stream_uris.append(uri)

    # Independent re-evaluation of the selection conditions on the planted
    # identities (no canonicalization code involved).
    expected: list[str] = []
    chosen: set[str] = set()
    domains: set[tuple[int, str]] = set()
    for uri, (resource, domain, segments, archived) in zip(stream_uris, planted):
        if resource is None:
            continue
        identity = resource.split("#")[0]
        bucket = min(segments, 4)
        if identity in chosen or (bucket, domain) in domains or not archived:
            continue
        chosen.add(identity)
        domains.add((bucket, domain))
        expected.append(uri)
    # By construction exactly the fresh, archived resources are selected.
    if len(expected) != sizes.accepted:
        raise AssertionError("planted stream does not select every fresh resource")

    # -- Method 1 TimeMaps -------------------------------------------------
    n_acc = sizes.accepted
    n_perma = sizes.presence()["perma.cc"]
    perma = [round((j + 0.5) * n_acc / n_perma) for j in range(n_perma)]
    direct = {i for i in range(n_acc) if i % 3 == 2 and i not in perma}
    sets = _archive_sets(b, perma)
    # The larger TimeMaps sit at fixed, evenly spread places in the
    # acceptance order, so state.json grows the same way for every seed;
    # the seed shuffles the small ones.
    tm_sizes = sorted((s for s, k in sizes.timemap_sizes for _ in range(k)), reverse=True)
    if len(tm_sizes) != n_acc:
        raise ValueError("timemap_sizes must cover every accepted URI-R")
    large = [s for s in tm_sizes if s >= 100]
    small = tm_sizes[len(large):]
    rng.shuffle(small)
    places = {round((j + 0.5) * n_acc / len(large)): size for j, size in enumerate(large)} if large else {}
    tm_sizes = [places[i] if i in places else small.pop() for i in range(n_acc)]
    finals = [final for _, final, _, _ in accepted]
    covered = {a for a, n in sizes.presence().items() if n >= sizes.min_urirs}
    targets: dict[str, list[tuple[str, str]]] = {a: [] for a in METHOD2_TARGETS}
    for i, final in enumerate(finals):
        entries = b.mementos(final, _counts(b, tm_sizes[i], sets[i], covered))
        b.timemap(final, entries, AGGREGATOR.format(uri=final))
        for urim, stamp in entries:
            if b.planted[urim] in targets:
                targets[b.planted[urim]].append((urim, final))

    # -- Method 2: target pages link to fresh URI-Rs holding the target ------
    for archive, entries in targets.items():
        for urim, base in entries:
            links = []
            for _ in range(2):
                urir, _, _ = b.fresh_uri()
                counts = {archive: rng.randint(1, 2), IA: rng.randint(2, 6)}
                b.timemap(urir, b.mementos(urir, counts), AGGREGATOR.format(uri=urir))
                links.append(urir)
            b.pages[urim] = b.link_page(base, links)

    files: dict[str, Path] = {}
    out_dir.mkdir(parents=True, exist_ok=True)

    # -- Method 3: a urirs_only list and a urirs_and_urims list ------------
    lines = ["# published URI-Rs", ""]
    contributing = 0
    k = 0
    while contributing < sizes.min_urirs + 5:
        slot = k % 8
        k += 1
        if slot == 1:
            lines.append(rng.choice(finals))  # already collected
        elif slot == 7 and k % 16 == 0:
            lines.append(f"ftp://files{k}.example.org/pub/")  # not a web URI
        else:
            urir, _, _ = b.fresh_uri()
            uri = AGGREGATOR.format(uri=urir)
            if slot == 6:
                b.empty_timemap(uri)
            else:
                counts = {IA: rng.randint(2, 5), "arquivo.pt": 1}
                if slot != 3:  # slot 3: the list archive is missing
                    counts[LIST_ONLY] = rng.randint(1, 3)
                    contributing += 1
                b.timemap(urir, b.mementos(urir, counts), uri)
            lines.append(urir)
    files["ukwa"] = out_dir / "ukwa-urirs.txt"
    files["ukwa"].write_text("\n".join(lines) + "\n", "utf-8")

    published: dict[str, tuple[tuple[str, str], ...]] = {}
    lines = ["# published mementos"]
    for g in range(sizes.min_urirs + 10):
        if g % 9 == 4:
            lines.append("2004 http://webarchive.nationalarchives.gov.uk/short-stamp/")
        urir = rng.choice(finals) if g % 11 == 5 else b.fresh_uri()[0]
        entries = b.mementos(urir, {LIST_COMPACT: rng.randint(2, 9)})
        if urir not in published:
            published[urir] = tuple(entries)
        lines.extend(f"{stamp} {urim}" for urim, stamp in entries)
    files["tna"] = out_dir / "tna-mementos.txt"
    files["tna"].write_text("\n".join(lines) + "\n", "utf-8")
    published_lists = [
        {"archive": LIST_ONLY, "path": str(files["ukwa"]), "format": "urirs_only"},
        {"archive": LIST_COMPACT, "path": str(files["tna"]), "format": "urirs_and_urims"},
    ]

    # -- Method 4: direct perma.cc TimeMaps -----------------------------------
    for i, final in enumerate(finals):
        uri = PERMA_TIMEMAP.format(uri=final)
        if i not in direct:
            b.web.add_timemap(uri, 404, b"")
            continue
        entries = b.mementos(final, {"perma.cc": rng.randint(3, 15)})
        b.timemap(final, entries, uri)

    # -- source files in interleave order ----------------------------------
    _write_sources(stream_uris, out_dir, files)
    return DatasetInputs(
        seed=seed,
        sizes=sizes,
        web=b.web,
        source_files=files,
        published_lists=published_lists,
        expected_accepted=expected,
        planted_archive=b.planted,
        non_archival={u for u, status in b.raw_status.items() if status >= 500},
        published=published,
    )


TAGS = ("#paris", "#climatemarch")


def _write_sources(uris: list[str], out_dir: Path, files: dict[str, Path]) -> None:
    """Split the planned order into source lists that interleave back to it.

    Moz leads, the damage list follows, then rounds of ten from HTTP
    Archive alternate with ten from one hashtag, the hashtags in turn.
    """
    head = (len(uris) % 20) // 2 + 20 * (len(uris) // 160)
    if (len(uris) - 2 * head) % 20:
        raise ValueError("candidate count must be even")
    lists: dict[str, list[str]] = {"moz": uris[:head], "damage": uris[head : 2 * head]}
    lists["httparchive"], lists[TAGS[0]], lists[TAGS[1]] = [], [], []
    rest = uris[2 * head :]
    for r in range(len(rest) // 10):
        key = "httparchive" if r % 2 == 0 else TAGS[(r // 2) % 2]
        lists[key].extend(rest[r * 10 : (r + 1) * 10])
    for key, items in lists.items():
        path = out_dir / f"source-{key.strip('#')}.txt"
        path.write_text("# candidate URI-Rs\n" + "\n".join(items) + "\n", "utf-8")
        files[key] = path


# -- scan-backoff ----------------------------------------------------------


@dataclass
class ScanInputs:
    seed: int
    web: Web
    stream: list[tuple[str, str]]
    expected_accepted: list[str]
    source_file: Path
    aggregator: str


def _hops(head: dict, uri: str) -> int:
    """HEAD requests a redirect walk from ``uri`` makes."""
    hops, seen = 1, {uri}
    route = head.get(uri)
    while isinstance(route, tuple) and 300 <= route[0] < 400 and route[1] not in seen:
        seen.add(route[1])
        hops += 1
        route = head.get(route[1])
    return hops


def scan_inputs(
    seed: int, out_dir: Path, live: int, dead: int, accepted: int, mementos: int, heads: int
) -> ScanInputs:
    """The first ``live`` answering and first ``dead`` dead candidates of a
    ``tests/universe.py`` stream, in stream order.

    Universes are drawn from ``seed`` until one makes ``heads`` +-2 HEAD
    requests to resolve its answering candidates and selects exactly
    ``accepted`` URI-Rs whose TimeMaps hold ``mementos`` mementos. With
    these counts fixed, the back-off cost, the request count, the TimeMap
    intake and the state size of a run barely depend on the seed; which
    candidates die, where they sit in the stream and what the others
    resolve to still do. The selection comes from
    ``tests/universe.brute_force_select``, which canonicalizes with
    ``mementoset.canonical``: a change to canonicalization can change the
    universe a seed draws.
    """
    from universe import AGG_TEMPLATE, ERROR, Universe, brute_force_select, build_universe, install_universe

    for draw in range(10_000):
        u = build_universe(seed * 10_000 + draw, 3 * (live + dead))
        kept, seen, n_live, n_dead = [], set(), 0, 0
        for uri, source in u.candidates:
            if uri in seen:  # source loading keeps the first of equal strings
                continue
            seen.add(uri)
            if u.head.get(uri) == ERROR:
                if n_dead < dead:
                    n_dead += 1
                    kept.append((uri, source))
            elif n_live < live:
                n_live += 1
                kept.append((uri, source))
        if (n_live, n_dead) != (live, dead):
            continue
        if abs(sum(_hops(u.head, uri) for uri, _ in kept if u.head.get(uri) != ERROR) - heads) > 2:
            continue
        sub = Universe(candidates=kept, head=u.head, timemaps=u.timemaps)
        selected = brute_force_select(sub, quota=2000)
        held = sum(u.timemaps[u.resolve(uri)] for uri, _, _ in selected)
        if len(selected) == accepted and held == mementos:
            break
    else:
        raise ValueError("no universe matches the requested counts")
    expected = [uri for uri, _, _ in selected]

    web = Web()
    agg_prefix = AGG_TEMPLATE.format(uri="")
    memento = re.compile(rb'<([^>]+)>; rel="memento"')

    def add_route(method, uri, status, headers, body):
        if method == "HEAD":
            web.add(method, uri, status, headers, body)
            return
        urims = [m.decode() for m in memento.findall(body)]
        entries = [(urim, re.search(r"/(\d{14})/", urim).group(1)) for urim in urims]
        web.add_timemap(uri, status, body, uri[len(agg_prefix):], entries, headers)

    install_universe(u, add_route)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = out_dir / "candidates.txt"
    source.write_text("\n".join(uri for uri, _ in kept) + "\n", "utf-8")
    return ScanInputs(seed, web, [(uri, "moz") for uri, _ in kept], expected, source, AGG_TEMPLATE)
