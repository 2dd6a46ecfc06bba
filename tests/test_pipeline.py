import csv
import json
import re
from collections import Counter
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path

import pytest

import mementoset as ms
from mementoset.client import (
    DEFAULT_AGGREGATOR_TEMPLATE,
    FixtureStore,
    FixtureTransport,
    TransportResponse,
)
from mementoset.model import ArchiveDescriptor, Classification, default_registry
from mementoset.pipeline import DiscoveryPipeline, RunConfig
from mementoset.sampler import rows_from_selection
import test_sampler

FIXED_NOW = datetime(2017, 11, 15, tzinfo=timezone.utc)
AGG = "http://aggregator.test/timemap/link/{uri}"

WAYBACK = "web.archive.org"
VEFSAFN_HOST = "wayback.vefsafn.is"
DIGAR_HOST = "veebiarhiiv.digar.ee"
UKWA_HOST = "www.webarchive.org.uk"
PERMA = "https://perma-archives.org/warc"
MEMENTO_DATETIME = {"Memento-Datetime": "Thu, 06 Jun 2002 00:00:00 GMT"}


def linkformat(urir, mementos):
    """mementos: list of (host_path_prefix, stamp)."""
    members = [f'<{urir}>; rel="original"']
    for prefix, stamp in mementos:
        dt = datetime.strptime(stamp, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)
        members.append(
            f'<{prefix}/{stamp}/{urir}>; rel="memento"; '
            f'datetime="{format_datetime(dt, usegmt=True)}"'
        )
    return (",\n".join(members) + "\n").encode()


def build_fixture_corpus(root):
    """Scripted world for a miniature four-method run.

    Method 1 stream: m0..m5 (m3 never archived, m4 dead on HEAD).
    vefsafn.is starts underfilled and recovers via raw-page links
    (method 2, dragging digar.ee along); webarchive.org.uk recovers via a
    published list (method 3); perma.cc via direct TimeMaps (method 4).
    """
    store = FixtureStore(root)

    def put(method, uri, status=200, headers=None, body=b""):
        if isinstance(body, str):
            body = body.encode()
        store.save(method, uri, TransportResponse(status, dict(headers or {}), body))

    stream_uris = [f"http://m{i}.example/" for i in range(6)]
    for uri in stream_uris:
        put("HEAD", uri, 200)

    # m0/m1/m2/m5 archived at the Internet Archive; m2 also at vefsafn.
    put("GET", AGG.format(uri="http://m0.example/"),
        body=linkformat("http://m0.example/", [(f"http://{WAYBACK}/web", "20000101000000")]))
    put("GET", AGG.format(uri="http://m1.example/"),
        body=linkformat("http://m1.example/", [(f"http://{WAYBACK}/web", "20010101000000")]))
    put("GET", AGG.format(uri="http://m2.example/"),
        body=linkformat("http://m2.example/", [
            (f"http://{WAYBACK}/web", "20020101000000"),
            (f"http://{VEFSAFN_HOST}/wayback", "20020606000000"),
        ]))
    put("GET", AGG.format(uri="http://m3.example/"), status=404, body=b"never archived")
    # m4: no HEAD fixture at all -> transport failure, scan must skip it.
    put("GET", AGG.format(uri="http://m5.example/"),
        body=linkformat("http://m5.example/", [(f"http://{WAYBACK}/web", "20050101000000")]))

    # Method 2: vefsafn's raw memento links to f0/f1.
    put("GET", f"http://{VEFSAFN_HOST}/wayback/20020606000000id_/http://m2.example/",
        headers={"Memento-Datetime": "Thu, 06 Jun 2002 00:00:00 GMT"},
        body='<html><a href="http://f0.example/">0</a><a href="http://f1.example/">1</a></html>')
    for i in range(2):
        uri = f"http://f{i}.example/"
        put("GET", AGG.format(uri=uri),
            body=linkformat(uri, [
                (f"http://{VEFSAFN_HOST}/wayback", f"200{3 + i}0101000000"),
                (f"http://{DIGAR_HOST}/a", f"201{i}0101000000"),
            ]))

    # Method 3: UKWA published list.
    for i in range(2):
        uri = f"http://uk{i}.example/"
        put("GET", AGG.format(uri=uri),
            body=linkformat(uri, [(f"http://{UKWA_HOST}/wayback", f"201{2 + i}0101000000")]))

    # Method 4: direct perma TimeMaps for the two URI-Rs it holds.
    perma_stamps = {"http://m0.example/": "20150101000000", "http://m1.example/": "20160101000000"}
    for urir, stamp in perma_stamps.items():
        put("GET", f"{PERMA}/timemap/*/{urir}",
            body=linkformat(urir, [(PERMA, stamp)]))
    for urir in ["http://m2.example/", "http://m5.example/",
                 "http://f0.example/", "http://f1.example/",
                 "http://uk0.example/", "http://uk1.example/"]:
        put("GET", f"{PERMA}/timemap/*/{urir}", status=404, body=b"")

    return stream_uris


def write_config(tmp_path, fixtures_dir, out_name="out"):
    moz = tmp_path / "moz.txt"
    moz.write_text("".join(f"http://m{i}.example/\n" for i in range(6)))
    ukwa_list = tmp_path / "ukwa_published.txt"
    ukwa_list.write_text("http://uk0.example/\nhttp://uk1.example/\n")
    config = {
        "out_dir": out_name,
        "aggregator_endpoint": AGG,
        "sources": {"moz": "moz.txt"},
        "published_lists": [
            {"archive": "webarchive.org.uk", "path": "ukwa_published.txt",
             "format": "urirs_only"}
        ],
        "constraints": {"min_urirs_per_archive": 2, "max_urims_per_archive": 1600},
        "target": 10,
        "quota_per_bucket": 10,
        "fixtures": str(fixtures_dir),
        "min_request_interval": 0.0,
        "retries": 0,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture()
def corpus(tmp_path, corpus_cadence):
    fixtures_dir = tmp_path / "fixtures"
    build_fixture_corpus(fixtures_dir)
    return write_config(tmp_path, fixtures_dir)


def run_pipeline(config_path, **kwargs):
    config = RunConfig.from_file(config_path)
    pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
    stage = pipeline.run(**kwargs)
    return pipeline, stage


def read_counts(pipeline, stage):
    """The stage's counts_<stage>.csv: archive id -> [urims, urirs]."""
    with open(pipeline.config.out_dir / f"counts_{stage}.csv", newline="") as f:
        rows = csv.DictReader(f)
        return {row["archive"]: [int(row["urims"]), int(row["urirs"])] for row in rows}


class TestDiscoveryPipeline:
    def test_full_run_counts(self, corpus):
        pipeline, stage = run_pipeline(corpus)
        assert stage == "done"
        totals = pipeline.collection.totals()
        assert totals["web.archive.org"] == (4, 4)
        assert totals["vefsafn.is"][1] == 2  # recovered by method 2
        # Method 2 stops at the minimum, so only the first harvested link
        # was pulled; digar.ee grew as a side effect of that one TimeMap.
        assert totals["digar.ee"][1] == 1
        assert totals["webarchive.org.uk"][1] == 2  # method 3
        assert totals["perma.cc"][1] == 2  # method 4
        assert [r.uri for r in pipeline.accepted] == [
            "http://m0.example/", "http://m1.example/",
            "http://m2.example/", "http://m5.example/",
        ]

    def test_method_tables_monotone(self, corpus):
        pipeline, _ = run_pipeline(corpus)
        stages = ["method1", "method2", "method3", "method4"]
        tables = {stage: read_counts(pipeline, stage) for stage in stages}
        archives = set().union(*(tables[s].keys() for s in stages))
        for earlier, later in zip(stages, stages[1:]):
            for archive_id in archives:
                e_urims, e_urirs = tables[earlier].get(archive_id, [0, 0])
                l_urims, l_urirs = tables[later].get(archive_id, [0, 0])
                assert l_urims >= e_urims
                assert l_urirs >= e_urirs

    def test_outputs_written(self, corpus):
        pipeline, _ = run_pipeline(corpus)
        out = pipeline.config.out_dir
        assert (out / "state.json").exists()
        assert (out / "urirs.tsv").exists()
        for stage in ("method1", "method2", "method3", "method4"):
            assert (out / f"counts_{stage}.csv").exists()
        timemaps = sorted((out / "timemaps").glob("*.txt"))
        assert len(timemaps) == len(pipeline.collection)
        # Each emitted file reads back as a compact record.
        from mementoset import parse_compact

        text = timemaps[0].read_text()
        urir = text.splitlines()[0].lstrip("# ").strip()
        record = parse_compact(text, urir)
        assert len(record.mementos) >= 1

    def test_rerun_with_fewer_records_removes_the_stale_timemap_files(self, corpus):
        pipeline, _ = run_pipeline(corpus)
        timemaps = pipeline.config.out_dir / "timemaps"
        assert len(pipeline.collection) == 7
        others = ["notes.txt", "0000001.txt", "000001.txt.bak", "00000a.txt"]
        for name in others:
            (timemaps / name).write_text("kept\n")
        config = RunConfig.from_file(corpus)
        config.target = 1
        pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
        assert pipeline.run(resume=False) == "done"
        written = [f"{i:06d}.txt" for i in range(len(pipeline.collection))]
        assert len(written) < 7
        assert sorted(p.name for p in timemaps.iterdir()) == sorted([*written, *others])

    def test_interrupted_resume_matches_single_run(self, corpus, tmp_path):
        # Uninterrupted reference run.
        reference, _ = run_pipeline(corpus)
        reference_state = reference.state_path.read_text()

        # Interrupted run in a separate out dir: a few candidates at a
        # time, then stage by stage, each step a fresh pipeline object.
        config = RunConfig.from_file(corpus)
        config.out_dir = tmp_path / "resumed_out"
        steps = 0
        stage = "method1"
        while stage != "done":
            pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
            stage = pipeline.run(max_candidates=2, stop_after=stage)
            steps += 1
            assert steps < 50
        pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
        assert pipeline.run() == "done"
        resumed_state = pipeline.state_path.read_text()
        assert resumed_state == reference_state

    def test_a_scan_index_past_shrunk_source_lists_finishes_method1(self, corpus):
        config = RunConfig.from_file(corpus)
        scanned = len(DiscoveryPipeline(config)._stream()) + 5  # the lists had more URI-Rs
        config.out_dir.mkdir()
        state = {"records": [], "scan_index": scanned, "stage": "method1"}
        (config.out_dir / "state.json").write_text(json.dumps(state))
        pipeline, stage = run_pipeline(corpus)
        assert stage == "done"
        assert pipeline.accepted == []
        assert pipeline.scan_index == scanned

    def test_all_satisfied_skips_expansion(self, corpus):
        config = RunConfig.from_file(corpus)
        config.constraints = type(config.constraints)(
            min_urirs_per_archive=1, max_urims_per_archive=1600
        )
        config.out_dir = config.out_dir.parent / "easy_out"
        pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
        pipeline.run()
        tables = {stage: read_counts(pipeline, stage) for stage in ("method1", "method4")}
        # Archives that had any URI-R after method 1 gained nothing later
        # except perma (method 4 needs no shortfall in other archives).
        assert tables["method1"]["web.archive.org"] == tables["method4"]["web.archive.org"]
        assert tables["method1"]["vefsafn.is"] == tables["method4"]["vefsafn.is"]

    def test_config_with_only_out_dir_is_all_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"out_dir": "o"}))
        assert RunConfig.from_file(path) == RunConfig(out_dir=(tmp_path / "o").resolve())
        path.write_text("{}")  # out_dir too has a default, next to the file
        assert RunConfig.from_file(path) == RunConfig(out_dir=(tmp_path / "out").resolve())

    def test_missing_config_file_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"sources": {"moz": "missing.txt"}}))
        with pytest.raises(FileNotFoundError):
            RunConfig.from_file(config)

    def test_wahr_sources_wired_through_config(self, tmp_path):
        (tmp_path / "moz.txt").write_text("http://m.example/\n")
        (tmp_path / "tag_a.txt").write_text("http://wa.example/\n")
        (tmp_path / "tag_b.txt").write_text("http://wb.example/\n")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "out_dir": "out",
            "sources": {
                "moz": "moz.txt",
                "wahr": {"#a": "tag_a.txt", "#b": "tag_b.txt"},
            },
            "fixtures": str(tmp_path / "fx"),
        }))
        pipeline = DiscoveryPipeline(RunConfig.from_file(config_path))
        stream = pipeline._stream()
        assert ("http://m.example/", "moz") in stream
        assert ("http://wa.example/", "wahr:#a") in stream
        assert ("http://wb.example/", "wahr:#b") in stream

    def test_fixture_mode_runs_are_byte_reproducible(self, corpus, tmp_path):
        # No injected clock: fixture mode must pin fetch stamps itself.
        states = []
        for name in ("first", "second"):
            config = RunConfig.from_file(corpus)
            config.out_dir = tmp_path / name
            pipeline = DiscoveryPipeline(config)
            assert pipeline.run(resume=False) == "done"
            states.append(pipeline.state_path.read_bytes())
        assert states[0] == states[1]


class CountingTransport:
    """Passes requests on and logs each (method, URI) it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[tuple[str, str]] = []

    def request(self, method, uri):
        self.requests.append((method, uri))
        return self.inner.request(method, uri)


class TestDownloadOncePerRun:
    """Discovery, then the README's downsampling on the pipeline's client."""

    def test_each_raw_uri_is_requested_once_and_classified_as_a_fresh_download(
        self, tmp_path, registry
    ):
        fixtures = tmp_path / "fixtures"
        build_fixture_corpus(fixtures)
        transport = CountingTransport(FixtureTransport(fixtures))
        pipe = DiscoveryPipeline(
            RunConfig.from_file(write_config(tmp_path, fixtures)),
            transport=transport, clock=lambda: FIXED_NOW,
        )
        assert pipe.run() == "done"
        records = list(pipe.collection.records())
        # Raw content for every memento Method 2 did not download: one of
        # each classification, so pruning removes something.
        store = FixtureStore(fixtures)
        answers = [(200, MEMENTO_DATETIME), (404, MEMENTO_DATETIME), (500, {})]
        schemes = {a.id: a.raw_scheme for a in pipe.registry}
        raw_urims = sorted({
            ms.raw_variant(m.urim, schemes[m.archive_id])
            for r in records for m in r.mementos if m.archive_id
        } - {None})
        for i, raw_urim in enumerate(raw_urims):
            if store.load("GET", raw_urim) is None:
                status, headers = answers[i % len(answers)]
                store.save("GET", raw_urim, TransportResponse(status, headers, b"<html></html>"))

        client = pipe.client
        scope = {"ms": ms, "client": client, "records": records,
                 "constraints": ms.SelectionConstraints(download_budget=timedelta(hours=40))}
        exec(test_sampler.TestReadmeDownsampling.snippet(), scope)
        capped, classes = scope["capped"], scope["classes"]
        urir_by_key = {rec.urir.canonical_key: rec.urir.final_uri for rec in records}
        rows = rows_from_selection(scope["pruned"], urir_by_key, classes)
        ms.write_manifest(rows, tmp_path / "manifest.tsv")

        raw_requests = Counter(uri for _, uri in transport.requests if uri in raw_urims)
        assert raw_requests and max(raw_requests.values()) == 1
        method2_download = f"http://{VEFSAFN_HOST}/wayback/20020606000000id_/http://m2.example/"
        assert raw_requests[method2_download] == 1

        fresh = {
            m.urim: ms.ArchiveClient(registry, client.policy, FixtureTransport(fixtures))
            .fetch_raw_memento(m).classification
            for kept in capped.values() for m in kept
        }
        assert set(fresh.values()) == set(Classification) - {Classification.LIVE}
        expected = rows_from_selection(
            ms.prune_non_archival(capped, fresh, keep_quota=0), urir_by_key, fresh
        )
        assert ms.read_manifest(tmp_path / "manifest.tsv") == expected


class TestReadmeSchemas:
    """The README's config and registry JSON blocks, read as written."""

    @staticmethod
    def readme() -> str:
        return (Path(__file__).parent.parent / "README.md").read_text("utf-8")

    def block(self, after: str) -> str:
        return self.readme().split(after, 1)[1].split("```json\n", 1)[1].split("```", 1)[0]

    def test_config_block_loads_and_its_numbers_are_the_defaults(self, tmp_path):
        base = tmp_path.resolve()
        text = self.block("### Discover config")
        for name in re.findall(r'"([\w/]+\.txt)"', text):
            (base / name).parent.mkdir(exist_ok=True)
            (base / name).write_text("http://a.example/\n")
        path = base / "run.json"
        path.write_text(text)
        assert RunConfig.from_file(path) == RunConfig(
            out_dir=base / "out",
            aggregator_endpoint=DEFAULT_AGGREGATOR_TEMPLATE,
            moz_path=base / "sources/moz.txt",
            damage_path=base / "sources/damage.txt",
            httparchive_path=base / "sources/httparchive.txt",
            wahr_paths={"#climatemarch": base / "sources/climatemarch.txt"},
            published_lists=[
                {"archive": "webarchive.org.uk", "path": str(base / "lists/ukwa.txt"),
                 "format": "urirs_only"}
            ],
        )

    def test_every_key_in_the_config_table_is_known(self, tmp_path):
        table = self.readme().split("| key | default |", 1)[1].split("\n\n", 1)[0]
        rows = table.splitlines()[2:]
        keys = [k for row in rows for k in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert len(keys) == 14
        path = tmp_path / "run.json"

        def error(key):
            path.write_text(json.dumps({key: None}))
            try:
                RunConfig.from_file(path)
            except ValueError as exc:
                return str(exc)
            return ""

        assert error("checkpoint") == "config: unknown key 'checkpoint'"
        assert [k for k in keys if "unknown key" in error(k)] == []

    def test_registry_entry_is_the_bundled_one(self):
        entry = json.loads(self.block("A registry file is"))
        assert ArchiveDescriptor.from_dict(entry) == default_registry().get(entry["id"])
