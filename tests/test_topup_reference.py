"""Methods 2-4 against the loops they replaced, on generated worlds.

The reference functions below are the previous code, kept verbatim:
``method2_expand`` and ``ingest_published_list`` as they were, and the
stage loops of ``DiscoveryPipeline`` (``_run_method2``..``_run_method4``)
with their state saves left out. One rule was added since: a
``urirs_only`` list, like Method 2's links, asks for each key at most once,
so ``reference_ingest_published_list`` skips a key it has already tried in
the same list (``attempted``), as ``reference_method2_expand`` does. And
mementos no longer store their raw URI-M, so where the previous code read
it, ``reference_method2_expand`` derives it (``reference_raw_urim``).
Each adds its records through the previous ``MementoCollection.add``,
``reduction_reference.reference_add``. Each stage of the new code must
send the same requests in the same order, add records of the same URI-Rs in the
same order, and leave the same stored records and per-archive totals. The
records it adds hold what their TimeMap's reducer kept, merged with the
record stored under the same key, where the previous code added every
memento.

A world is a small registry, an initial collection and a ``FakeTransport``
generated from a seed. Every world plants links to URI-Rs already
collected, duplicate and malformed links, raw fetches that fail, mementos
without raw access, 404, 500 and unparseable TimeMaps, list entries with no
memento in the owning archive, a list line that repeats the key of such an
entry on the line before it, bad compact lines, an archive that starts at
its minimum, an archive whose minimum is reached in the middle of a page
of links, and an archive that grows only from its own TimeMaps.
"""

import logging
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from email.utils import format_datetime
from pathlib import Path

import pytest

from mementoset import ArchiveClient, FetchPolicy
from mementoset.canonical import surt
from mementoset.discovery import (
    MementoCollection,
    embedded_urir,
    extract_urirs_from_html,
    ingest_published_list,
    method2_expand,
    method4_direct,
)
from mementoset.errors import (
    EmptyTimeMap,
    MalformedUri,
    MementosetError,
    NetworkError,
    NoTimeMapEndpoint,
    ParseError,
)
from mementoset.linkformat import parse_compact_line, parse_link_entries
from mementoset.model import ArchiveDescriptor, ArchiveRegistry, Purpose, RawScheme
from mockserver import FakeTransport
from reduction_reference import (
    compact_record,
    record_from_entries,
    reference_add,
    reference_raw_urim,
)

logger = logging.getLogger(__name__)
FIXED_NOW = datetime(2017, 11, 15, tzinfo=timezone.utc)
AGG = "http://agg.test/timemap/link/{uri}"
# a0, a2 and a4 serve direct TimeMaps; a2 has no raw access; a3 is not
# Memento-native. The aggregator knows no a4 memento, so a4 grows only in
# Method 4.
REGISTRY = ArchiveRegistry([
    ArchiveDescriptor("a0", "A0", ("a0.test",), Purpose.GENERAL, True,
                      RawScheme.WAYBACK_ID_SUFFIX, "http://a0.test/timemap/{uri}"),
    ArchiveDescriptor("a1", "A1", ("a1.test",), Purpose.GENERAL, True,
                      RawScheme.WAYBACK_ID_SUFFIX),
    ArchiveDescriptor("a2", "A2", ("a2.test",), Purpose.GENERAL, True,
                      RawScheme.NONE, "http://a2.test/timemap/{uri}"),
    ArchiveDescriptor("a3", "A3", ("a3.test",), Purpose.GENERAL, False,
                      RawScheme.WAYBACK_ID_SUFFIX),
    ArchiveDescriptor("a4", "A4", ("a4.test",), Purpose.GENERAL, True,
                      RawScheme.WAYBACK_ID_SUFFIX, "http://a4.test/timemap/{uri}"),
])
ARCHIVES = [a.id for a in REGISTRY]
AGGREGATED = ["a0", "a1", "a2", "a3"]  # the archives aggregator TimeMaps name
MALFORMED = ["http://:80/", "http://s1.test:99999/"]
SEEDS = range(40)


# -- the previous code, verbatim ----------------------------------------------


def reference_method2_expand(
    archive,
    collection,
    client,
    min_urirs: int = 200,
    max_new: int | None = None,
):
    new_records = []
    if collection.urir_count(archive.id) >= min_urirs:
        return new_records
    attempted: set[str] = set()
    for memento in collection.mementos_of(archive.id):
        if reference_raw_urim(memento, client.registry) is None:
            continue
        base_record = collection.get(memento.urir_key)
        base = base_record.urir.final_uri if base_record else memento.urim
        try:
            raw = client.fetch_raw_memento(memento)
        except MementosetError as exc:
            logger.info("raw fetch failed for %s: %s", memento.urim, exc)
            continue
        for uri in extract_urirs_from_html(raw.body, base):
            try:
                key = surt(uri)
            except MalformedUri:
                continue
            if key in collection or key in attempted:
                continue
            attempted.add(key)
            try:
                record = client.fetch_timemap_aggregator(uri)
            except EmptyTimeMap:
                continue
            except (NetworkError, ParseError) as exc:
                logger.info("timemap fetch failed for %s: %s", uri, exc)
                continue
            reference_add(collection, record)
            new_records.append(record)
            if collection.urir_count(archive.id) >= min_urirs:
                return new_records
            if max_new is not None and len(new_records) >= max_new:
                return new_records
    return new_records


def reference_ingest_published_list(
    path,
    list_format: str,
    archive,
    collection,
    client,
    min_urirs: int = 200,
):
    if list_format not in ("urirs_only", "urirs_and_urims"):
        raise ValueError(f"unknown list format {list_format!r}")
    text = Path(path).read_text("utf-8")
    new_records = []

    if list_format == "urirs_only":
        attempted: set[str] = set()
        for lineno, line in enumerate(text.splitlines(), start=1):
            uri = line.strip()
            if not uri or uri.startswith("#"):
                continue
            if collection.urir_count(archive.id) >= min_urirs:
                break
            try:
                key = surt(uri)
            except MalformedUri as exc:
                logger.info("line %d skipped: %s", lineno, exc)
                continue
            if key in collection or key in attempted:
                continue
            attempted.add(key)
            try:
                record = client.fetch_timemap_aggregator(uri)
            except EmptyTimeMap:
                continue
            except (NetworkError, ParseError) as exc:
                logger.info("timemap fetch failed for %s: %s", uri, exc)
                continue
            if not any(m.archive_id == archive.id for m in record.mementos):
                continue
            reference_add(collection, record)
            new_records.append(record)
        return new_records

    # urirs_and_urims: compact lines grouped by their embedded URI-R.
    groups: dict[str, list[tuple[datetime, str]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
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
    for urir, mementos in groups.items():
        if collection.urir_count(archive.id) >= min_urirs:
            break
        try:
            key = surt(urir)
        except MalformedUri as exc:
            logger.info("group %s skipped: %s", urir, exc)
            continue
        if key in collection:
            continue
        record = compact_record(mementos, urir, client.registry, fetched_at=client.clock())
        reference_add(collection, record)
        new_records.append(record)
    return new_records


def reference_stage2(registry, collection, client, minimum):
    added = []
    for archive in list(registry):
        if collection.urir_count(archive.id) >= minimum:
            continue
        added += reference_method2_expand(archive, collection, client, min_urirs=minimum)
    return added


def reference_stage3(registry, collection, client, minimum, published_lists):
    added = []
    for entry in published_lists:
        archive = registry.get(entry["archive"])
        if collection.urir_count(archive.id) >= minimum:
            continue
        added += reference_ingest_published_list(
            entry["path"],
            entry["format"],
            archive,
            collection,
            client,
            min_urirs=minimum,
        )
    return added


def reference_stage4(registry, collection, client, minimum):
    added = []  # the previous loop returned nothing; its additions are collected here
    underfilled = [a for a in registry if collection.urir_count(a.id) < minimum]
    for archive in underfilled:
        if not archive.memento_native or not archive.timemap_template:
            continue
        for record in list(collection.records()):
            if collection.urir_count(archive.id) >= minimum:
                break
            try:
                direct = client.fetch_timemap_direct(
                    archive, record.urir.final_uri
                )
            except (EmptyTimeMap, NoTimeMapEndpoint):
                continue
            except (NetworkError, ParseError) as exc:
                logger.info("method4 fetch failed for %s: %s", record.urir.uri, exc)
                continue
            reference_add(collection, direct)
            added.append(direct)
    return added


# -- the new code, stage by stage ------------------------------------------------


def stage2(registry, collection, client, minimum):
    return [r for a in registry for r in method2_expand(a, collection, client, minimum)]


def stage3(registry, collection, client, minimum, published_lists):
    added = []
    for entry in published_lists:
        archive = registry.get(entry["archive"])
        added += ingest_published_list(
            entry["path"], entry["format"], archive, collection, client, minimum
        )
    return added


def stage4(registry, collection, client, minimum):
    return [r for a in registry for r in method4_direct(a, collection, client, minimum)]


# -- generated worlds -------------------------------------------------------------


def site(i: int) -> str:
    return f"http://s{i}.test/"


def respelled(minimum: int) -> str:
    """Another spelling of ``site(minimum + 5)``, with the same key."""
    return f"https://www.s{minimum + 5}.test/"


def urim(archive_id: str, dt: datetime, urir: str) -> str:
    return f"http://{archive_id}.test/web/{dt:%Y%m%d%H%M%S}/{urir}"


def timemap(urir: str, mementos, garbled: bool = False) -> str:
    """Link-format TimeMap; ``garbled`` drops the first memento's datetime."""
    members = [f'<{urir}>; rel="original"']
    for n, (archive_id, dt) in enumerate(mementos):
        member = f'<{urim(archive_id, dt, urir)}>; rel="memento"'
        if not (garbled and n == 0):
            member += f'; datetime="{format_datetime(dt, usegmt=True)}"'
        members.append(member)
    return ",\n".join(members) + "\n"


@dataclass
class World:
    minimum: int
    collected: list[str]
    fresh_a0: list[str]  # the three fresh a0 sites that open a0's first page
    published_lists: list[dict] = field(default_factory=list)
    routes: dict[tuple[str, str], tuple] = field(default_factory=dict)
    bodies: dict[str, str] = field(default_factory=dict)  # each site's full TimeMap
    kinds: dict[str, str] = field(default_factory=dict)  # URI -> how it is served

    def route(self, uri: str, kind: str, status: int = 200, body: str = "") -> None:
        self.kinds[uri] = kind
        if kind != "missing":
            self.routes[("GET", uri)] = (status, None, body)

    def install(self) -> tuple[FakeTransport, ArchiveClient, MementoCollection]:
        transport = FakeTransport()
        for (method, uri), (status, headers, body) in self.routes.items():
            transport.add(method, uri, status, headers, body)
        policy = FetchPolicy(min_request_interval=0.0, retries=0, timeout=5.0)
        client = ArchiveClient(REGISTRY, policy, transport, AGG, clock=lambda: FIXED_NOW)
        collection = MementoCollection()
        for urir in self.collected:
            reference_add(collection, record_from_entries(
                parse_link_entries(self.bodies[urir]), registry=REGISTRY, fetched_at=FIXED_NOW
            ))
        return transport, client, collection


def serve_timemap(world: World, uri: str, urir: str, mementos, kind: str) -> None:
    if kind == "ok":
        world.route(uri, kind, 200, timemap(urir, mementos))
    elif kind == "404":
        world.route(uri, kind, 404)
    elif kind == "500":
        world.route(uri, kind, 500, "server error")
    elif kind == "garbled":
        world.route(uri, kind, 200, timemap(urir, mementos or [("a1", FIXED_NOW)], garbled=True))
    else:
        world.route(uri, "missing")


def build_world(seed: int, tmp_path: Path) -> World:
    rng = random.Random(seed)
    minimum = rng.randint(3, 6)
    n_sites = 60
    kinds = ["ok"] * 6 + ["404", "500", "garbled", "missing"]

    def mementos(holders):
        out = []
        for archive_id in holders:
            for _ in range(rng.randint(1, 3)):
                # Few distinct years, so the yearly filter has work to do.
                dt = datetime(rng.randint(2000, 2004), rng.randint(1, 12), rng.randint(1, 28),
                              tzinfo=timezone.utc)
                out.append((archive_id, dt))
        return out

    holders = {i: {a for a in AGGREGATED if rng.random() < 0.4} for i in range(n_sites)}
    # Collected at the start: s0..s(minimum+1). a3 holds them all, so it
    # starts at its minimum; a0 holds the first minimum-2 and s(minimum+1)
    # is also held by a2, which has no raw access.
    collected = list(range(minimum + 2))
    for i in collected:
        holders[i] = (holders[i] - {"a0"}) | {"a3"} | ({"a0"} if i < minimum - 2 else set())
    holders[minimum + 1].add("a2")
    # a0 needs two more URI-Rs, and its first page opens with three fresh
    # sites it holds: it reaches its minimum in mid-page.
    fresh_a0 = [minimum + 2, minimum + 3, minimum + 4]
    for i in fresh_a0:
        holders[i].add("a0")
    # Listed for a1 and a2 but held only by a0, or by nobody.
    holders[minimum + 5] = {"a0"}
    holders[minimum + 6] = set()
    always_ok = set(collected) | set(fresh_a0) | {minimum + 5, minimum + 6}

    world = World(minimum, [site(i) for i in collected], [site(i) for i in fresh_a0])
    for i in range(n_sites):
        urir = site(i)
        held = mementos(sorted(holders[i]))
        world.bodies[urir] = timemap(urir, held)
        kind = "ok" if i in always_ok else rng.choice(kinds)
        serve_timemap(world, AGG.format(uri=urir), urir, held, kind)
        # Direct TimeMaps, whatever hosts their URI-Ms name.
        for archive_id in ("a0", "a2", "a4"):
            direct = REGISTRY.get(archive_id).timemap_template.format(uri=urir)
            held = mementos([rng.choice(ARCHIVES)])
            serve_timemap(world, direct, urir, held, rng.choice(kinds))

    # Raw pages of the collected mementos: links to collected and fresh
    # sites, duplicates, relative and malformed links; some fetches fail.
    first_a0_page = True
    for i in collected:
        for archive_id, raw_urim in raw_urims(world.bodies[site(i)]):
            if raw_urim is None:
                continue
            links = [site(rng.randrange(n_sites)) for _ in range(rng.randint(2, 8))]
            links += rng.sample(links, k=2)  # duplicates
            links += [site(rng.choice(collected)), "/relative", rng.choice(MALFORMED)]
            rng.shuffle(links)
            if archive_id == "a0" and first_a0_page:
                links = world.fresh_a0 + links
                first_a0_page = False
            elif rng.random() < 0.2:
                world.route(raw_urim, "missing")
                continue
            html = "".join(f'<a href="{href}">x</a>' for href in links)
            status = 404 if rng.random() < 0.1 else 200
            world.route(raw_urim, "page", status, f"<html><body>{html}</body></html>")

    # Published lists: for a1 and a2 in both formats, and for a3, which
    # starts at its minimum.
    listed = [site(rng.randrange(n_sites)) for _ in range(25)]
    listed += [site(minimum + 5), site(minimum + 6), "not a uri", MALFORMED[0], "", "# comment"]
    rng.shuffle(listed)
    # Each s(minimum+5) line, which no list's archive holds, is followed by
    # another spelling of its key, so in either order a list meets the key
    # again right after a lookup of it that added nothing.
    listed = [
        line
        for uri in listed
        for line in ([uri, respelled(minimum)] if uri == site(minimum + 5) else [uri])
    ]
    world.route(AGG.format(uri=respelled(minimum)), "ok", 200, world.bodies[site(minimum + 5)])
    compact = []
    for _ in range(20):
        dt = datetime(rng.randint(2000, 2004), rng.randint(1, 12), 1, tzinfo=timezone.utc)
        compact.append(f"{dt:%Y%m%d%H%M%S} {urim('a2', dt, site(rng.randrange(n_sites)))}")
    compact += [
        "not a compact line",
        "20051301000000 http://a2.test/web/20051301000000/http://s1.test/",
        "20050101000000 http://a2.test/elsewhere",
        f"20050101000000 http://a2.test/web/20050101000000/{MALFORMED[0]}",
        "",
        "# comment",
    ]
    rng.shuffle(compact)
    for name, archive_id, fmt, lines in [
        ("a1.txt", "a1", "urirs_only", listed),
        ("a2.txt", "a2", "urirs_and_urims", compact),
        ("a3.txt", "a3", "urirs_only", listed),
        ("a2-uris.txt", "a2", "urirs_only", list(reversed(listed))),
    ]:
        path = tmp_path / f"{seed}-{name}"
        path.write_text("\n".join(lines) + "\n")
        world.published_lists.append({"archive": archive_id, "path": str(path), "format": fmt})
    return world


def raw_urims(body: str):
    """(archive id, raw URI-M) of each memento a TimeMap body keeps once
    the collection has reduced it, in stored order."""
    record = record_from_entries(parse_link_entries(body), registry=REGISTRY, fetched_at=FIXED_NOW)
    return [
        (m.archive_id, reference_raw_urim(m, REGISTRY))
        for m in reference_add(MementoCollection(), record).mementos
    ]


def run_stages(world, stages):
    """Methods 2, 3 and 4 in turn on a fresh copy of the world: per stage,
    the requests sent, the records added, the totals after it and the
    records stored then."""
    transport, client, collection = world.install()
    out = []
    for stage in stages:
        sent = len(transport.requests)
        args = (REGISTRY, collection, client, world.minimum)
        if stage in (stage3, reference_stage3):
            args += (world.published_lists,)
        added = stage(*args)
        out.append((transport.requests[sent:], added, collection.totals(), list(collection.records())))
    return out


def added(record):
    """What a stage added, apart from the mementos it read."""
    return record.urir, record.provenance, record.fetched_at


NEW = [stage2, stage3, stage4]
REFERENCE = [reference_stage2, reference_stage3, reference_stage4]


@pytest.mark.parametrize("seed", SEEDS)
def test_methods_2_to_4_match_the_previous_loops(seed, tmp_path):
    world = build_world(seed, tmp_path)
    new = run_stages(world, NEW)
    old = run_stages(world, REFERENCE)
    for method, (n, o) in enumerate(zip(new, old), start=2):
        assert n[0] == o[0], f"method {method}: requests differ"
        assert [added(r) for r in n[1]] == [added(r) for r in o[1]], f"method {method}: added records differ"
        assert n[2] == o[2], f"method {method}: totals differ"
        assert n[3] == o[3], f"method {method}: stored records differ"


def test_worlds_reach_every_planted_case(tmp_path):
    """Over the seeds, the reference run meets each case the worlds plant."""
    met = dict.fromkeys(
        ["404", "500", "garbled", "missing", "raw fetch failed", "not owned", "repeated key",
         "compact", "direct", "a4 filled"],
        0,
    )
    for seed in SEEDS:
        world = build_world(seed, tmp_path)
        (sent2, _, totals2, _), (sent3, added3, _, _), (sent4, added4, totals4, _) = run_stages(
            world, REFERENCE
        )
        agg = [("GET", AGG.format(uri=u)) for u in world.fresh_a0]
        # a0's first page: two fresh sites fill a0, so the third is not
        # asked for next (another archive's page may link it later).
        assert sent2[1:3] == agg[:2] and sent2[3:4] != agg[2:3]
        assert totals2["a0"][1] >= world.minimum
        # a3 starts at its minimum: none of its pages is fetched.
        assert not any(uri.startswith("http://a3.test/") for _, uri in sent2)
        for _, uri in sent2 + sent3 + sent4:
            kind = world.kinds.get(uri)  # None: a URI the world does not know
            if kind in met:
                met[kind] += 1
            met["raw fetch failed"] += kind == "missing" and "id_/" in uri
        met["not owned"] += ("GET", AGG.format(uri=site(world.minimum + 5))) in sent3
        # A list that asked for one spelling went on to the other one.
        met["repeated key"] += any(
            ("GET", AGG.format(uri=uri)) in sent3
            for uri in (site(world.minimum + 5), respelled(world.minimum))
        )
        met["compact"] += any(r.provenance.value == "published_list" for r in added3)
        met["direct"] += bool(added4)
        met["a4 filled"] += totals4.get("a4", (0, 0))[1] >= world.minimum
        # a0 is at its minimum by Method 4: its own TimeMaps are not asked for.
        assert not any(uri.startswith("http://a0.test/timemap/") for _, uri in sent4)
    assert all(met.values()), met
