"""Each job has one code path: the Method 1 scan, the stage loop, transport
choice, compact lines and TSV tables.

These tests pin the behaviour the shared paths must keep: the pipeline's
Method 1 is ``select_initial`` over a resumable cursor, so its
checkpoints, ``scan_index`` and interruption rule are checked here. Which
code may call a one-way path, such as the redirect walk or a raw download,
is a rule in ``test_architecture.py``.
"""

import json
import subprocess
import sys
import textwrap
from datetime import datetime, timezone

import pytest

from mementoset import (
    ArchiveClient,
    Classification,
    ParseError,
    Provenance,
    SelectionState,
    UnknownArchive,
    default_registry,
    ingest_published_list,
    parse_compact,
    select_initial,
)
from mementoset.client import FixtureTransport, RecordingTransport, RequestsTransport, open_transport
from mementoset.discovery import MementoCollection
from mementoset.linkformat import parse_compact_line, write_compact
from mementoset.model import load_registry
from mementoset.pipeline import DiscoveryPipeline, RunConfig
from mementoset.sampler import ManifestRow, write_manifest
from mementoset.tsv import read_tsv, write_tsv
from mockserver import FakeTransport
from test_cli import child_env
from test_discovery import make_client
from test_pipeline import FIXED_NOW, build_fixture_corpus, write_config
from universe import AGG_TEMPLATE, timemap_body

STREAM = [f"http://m{i}.example/" for i in range(6)]
ACCEPTED = ["http://m0.example/", "http://m1.example/", "http://m2.example/", "http://m5.example/"]
CANADA = "http://www.collectionscanada.gc.ca/webarchives"


@pytest.fixture()
def config(tmp_path, corpus_cadence):
    fixtures_dir = tmp_path / "fixtures"
    build_fixture_corpus(fixtures_dir)
    return RunConfig.from_file(write_config(tmp_path, fixtures_dir))


def pipeline_with_saves(config):
    """A pipeline that logs (stage, scan_index) at every state save."""
    pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
    saves = []
    save = pipeline.save_state

    def logged():
        save()
        saves.append((pipeline.stage, pipeline.scan_index))

    pipeline.save_state = logged
    return pipeline, saves


def saved_state(pipeline):
    return json.loads(pipeline.state_path.read_text())


def loaded_cursor(config):
    """(stage, scan_index) as a fresh pipeline loads them: a cut leaves its
    cursor in the journal beside ``state.json``."""
    pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
    assert pipeline.load_state()
    return pipeline.stage, pipeline.scan_index


class TestMethod1Cursor:
    def test_checkpoint_every_n_candidates_then_stage_save(self, config):
        pipeline, saves = pipeline_with_saves(config)
        assert pipeline.run(stop_after="method1") == "method2"
        assert saves == [("method1", 2), ("method1", 4), ("method1", 6), ("method2", 6)]
        assert [r.uri for r in pipeline.accepted] == ACCEPTED

    def test_interrupt_saves_exact_scan_index(self, config):
        pipeline, saves = pipeline_with_saves(config)
        assert pipeline.run(max_candidates=3) == "method1"
        assert saves == [("method1", 2), ("method1", 3)]
        assert loaded_cursor(config) == ("method1", 3)
        assert [r.uri for r in pipeline.accepted] == ACCEPTED[:3]

    def test_one_candidate_per_run_advances_scan_index_by_one(self, config):
        for expected in range(1, len(STREAM) + 1):
            pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
            pipeline.run(max_candidates=1, stop_after="method1")
            assert loaded_cursor(config)[1] == expected
        assert loaded_cursor(config)[0] == "method2"
        resumed = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
        assert resumed.load_state()
        assert [r.uri for r in resumed.accepted] == ACCEPTED

    def test_target_met_on_last_allowed_candidate_completes(self, config):
        config.target = 2
        pipeline, saves = pipeline_with_saves(config)
        assert pipeline.run(max_candidates=2, stop_after="method1") == "method2"
        assert pipeline.scan_index == 2
        assert saves == [("method1", 2), ("method2", 2)]

    def test_target_counts_urirs_accepted_before_resume(self, config):
        config.target = 3
        DiscoveryPipeline(config, clock=lambda: FIXED_NOW).run(max_candidates=2)
        pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
        assert pipeline.run(stop_after="method1") == "method2"
        assert [r.uri for r in pipeline.accepted] == ACCEPTED[:3]
        assert pipeline.scan_index == 3

    def test_stop_rule_checked_before_next_candidate_is_taken(self, registry):
        transport = FakeTransport()
        uris = ["http://first.com/", "http://second.com/"]
        for uri in uris:
            transport.add("HEAD", uri, 200)
            transport.add("GET", AGG_TEMPLATE.format(uri=uri), 200, body=timemap_body(uri, 1))
        taken = []

        def stream():
            for uri in uris:
                taken.append(uri)
                yield uri, "moz"

        client = make_client(transport, registry)
        accepted = select_initial(stream(), client, SelectionState(), target=1)
        assert [r.uri for r in accepted] == uris[:1]
        assert taken == uris[:1]


class TestStageLoop:
    def test_stop_after_each_stage_and_outputs_at_done(self, config):
        pipeline = DiscoveryPipeline(config, clock=lambda: FIXED_NOW)
        stops = [pipeline.run(stop_after=s) for s in ("method1", "method2", "method3")]
        assert stops == ["method2", "method3", "method4"]
        urirs = config.out_dir / "urirs.tsv"
        assert not urirs.exists()
        assert pipeline.run(stop_after="method4") == "done"
        assert urirs.exists()

    def test_stop_after_an_earlier_stage_runs_nothing(self, config):
        DiscoveryPipeline(config, clock=lambda: FIXED_NOW).run(stop_after="method1")
        transport = FakeTransport()
        pipeline = DiscoveryPipeline(config, transport, clock=lambda: FIXED_NOW)
        assert pipeline.run(stop_after="method1") == "method2"
        assert transport.requests == []
        assert saved_state(pipeline)["stage"] == "method2"

    def test_stop_after_no_stage_is_rejected_before_any_request(self, config):
        transport = FakeTransport()
        pipeline = DiscoveryPipeline(config, transport, clock=lambda: FIXED_NOW)
        with pytest.raises(ValueError, match="methd1"):
            pipeline.run(stop_after="methd1")
        assert transport.requests == []
        assert not pipeline.state_path.exists()

    def test_methods_2_to_4_save_only_after_an_archive_that_grew(self, config):
        # Every other archive stays short or full without a save. A stage's
        # end saves under the next stage's name.
        pipeline, saves = pipeline_with_saves(config)
        assert pipeline.run() == "done"
        assert saves[3:] == [
            ("method2", 6),  # Method 1's end
            ("method2", 6),  # vefsafn.is grew
            ("method3", 6),  # Method 2's end
            ("method3", 6),  # webarchive.org.uk grew
            ("method4", 6),  # Method 3's end
            ("method4", 6),  # perma.cc grew
            ("done", 6),  # Method 4's end
        ]

    @pytest.mark.parametrize(
        "entry, error",
        [({"archive": "nowhere.test"}, UnknownArchive), ({"format": "urirs_and_titles"}, ValueError)],
    )
    def test_bad_published_list_is_rejected_when_the_pipeline_is_built(self, config, entry, error):
        config.published_lists = [{**config.published_lists[0], **entry}]
        with pytest.raises(error):
            DiscoveryPipeline(config)

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"path": "x.txt", "format": "urirs_only"}, "missing key 'archive'"),
            ({"archive": "perma.cc", "format": "urirs_only"}, "missing key 'path'"),
            ({"archive": "perma.cc", "path": 3, "format": "urirs_only"}, "path: expected a string"),
            ({"archive": "perma.cc", "path": "x.txt", "format": "titles"}, "'titles'"),
        ],
    )
    def test_bad_published_list_is_rejected_when_the_config_is_built(self, entry, named):
        with pytest.raises(ValueError, match=named):
            RunConfig(published_lists=[entry])

    def test_resumed_done_run_rewrites_outputs(self, config):
        DiscoveryPipeline(config, clock=lambda: FIXED_NOW).run()
        urirs = config.out_dir / "urirs.tsv"
        written = urirs.read_bytes()
        urirs.unlink()
        assert DiscoveryPipeline(config, clock=lambda: FIXED_NOW).run() == "done"
        assert urirs.read_bytes() == written


class TestFactories:
    def test_fixtures_win_over_record(self, tmp_path):
        transport = open_transport(tmp_path / "fx", tmp_path / "rec")
        assert isinstance(transport, FixtureTransport)

    def test_record_wraps_live(self, tmp_path):
        transport = open_transport(None, tmp_path / "rec", timeout=5.0)
        assert isinstance(transport, RecordingTransport)
        assert isinstance(transport.inner, RequestsTransport)
        assert transport.inner.timeout == 5.0

    def test_live_by_default(self):
        transport = open_transport(timeout=7.0)
        assert isinstance(transport, RequestsTransport)
        assert transport.timeout == 7.0

    def test_pipeline_and_client_default_share_the_factory(self, config, tmp_path):
        config.fixtures_dir = None
        config.record_dir = tmp_path / "rec"
        assert isinstance(DiscoveryPipeline(config).client.transport, RecordingTransport)
        assert isinstance(ArchiveClient(default_registry()).transport, RequestsTransport)

    def test_offline_paths_load_no_http_stack(self, tmp_path):
        # A fresh interpreter: this one imports requests through mockserver.
        fixtures_dir = tmp_path / "fixtures"
        build_fixture_corpus(fixtures_dir)
        config = write_config(tmp_path, fixtures_dir)
        manifest = tmp_path / "manifest.tsv"
        stamp = datetime(2001, 1, 1, tzinfo=timezone.utc)
        write_manifest([
            ManifestRow("ia", f"http://m{i}.example/", f"http://web.archive.org/web/{i}/",
                        stamp, Classification.ARCHIVAL_OK)
            for i in range(2)
        ], manifest)
        script = textwrap.dedent("""
            import json, sys
            manifest, reports, config = sys.argv[1:]
            loaded = lambda: [m for m in ("requests", "urllib3") if m in sys.modules]
            steps = {}
            import mementoset
            steps["import"] = loaded()
            from mementoset.cli import main
            assert main(["canon", "http://www.EXAMPLE.com"]) == 0
            steps["canon"] = loaded()
            assert main(["stats", "--manifest", manifest, "--out", reports]) == 0
            steps["stats"] = loaded()
            assert main(["discover", "--config", config]) == 0
            steps["discover"] = loaded()
            from mementoset.client import open_transport
            transport = open_transport(timeout=5.0)
            steps["live"] = [type(transport).__name__, loaded()]
            print(json.dumps(steps))
        """)
        child = subprocess.run(
            [sys.executable, "-c", script, str(manifest), str(tmp_path / "reports"), str(config)],
            env=child_env(), capture_output=True, text=True, check=True,
        )
        steps = json.loads(child.stdout.splitlines()[-1])
        assert steps == {
            "import": [], "canon": [], "stats": [], "discover": [],
            "live": ["RequestsTransport", ["requests", "urllib3"]],
        }

    def test_load_registry(self, tmp_path):
        assert load_registry(None) is default_registry()
        path = tmp_path / "registry.json"
        default_registry().dump(path)
        assert [a.id for a in load_registry(path)] == [a.id for a in default_registry()]


class TestCompactCodec:
    def test_write_compact_reads_back(self, tmp_path, registry):
        record = parse_compact(
            f"20050101000000 {CANADA}/20050101000000/http://a.ca/\n"
            f"20060101000000 {CANADA}/20060101000000/http://a.ca/\n",
            "http://a.ca/",
            registry=registry,
        )
        path = tmp_path / "a.txt"
        write_compact(path, record.mementos, "http://a.ca/")
        text = path.read_text()
        assert text.startswith("# http://a.ca/\n20050101000000 ")
        assert parse_compact(text, "http://a.ca/", registry=registry).mementos == record.mementos

    def test_write_compact_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_compact(path, [])
        assert path.read_text() == ""

    @pytest.mark.parametrize(
        "line",
        ["2000 http://x/", "20001301000000 http://x/", "20000101000000", "20000101000000 http://x/ y"],
    )
    def test_bad_line_is_parse_error_at_its_line(self, line):
        with pytest.raises(ParseError) as info:
            parse_compact_line(line, 7)
        assert info.value.offset == 7

    def test_published_list_skips_bad_lines_one_by_one(self, registry, tmp_path):
        listing = tmp_path / "canada.txt"
        listing.write_text(
            f"20050101000000 {CANADA}/20050101000000/http://site-a.ca/\n"
            f"20051301000000 {CANADA}/20051301000000/http://site-a.ca/\n"
            f"20060101000000 {CANADA}/20060101000000/http://site-a.ca/ trailing\n"
            f"20070101000000 {CANADA}/20070101000000/http://site-a.ca/\n"
        )
        collection = MementoCollection()
        added = ingest_published_list(
            listing, "urirs_and_urims", registry.get("collectionscanada.gc.ca"),
            collection, make_client(FakeTransport(), registry), min_urirs=10,
        )
        assert [r.urir.uri for r in added] == ["http://site-a.ca/"]
        assert [m.memento_datetime.year for m in added[0].mementos] == [2005, 2007]


class TestTsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(path, ("n", "name"), [("1", "x"), ("2", "y")])
        assert path.read_text() == "n\tname\n1\tx\n2\ty\n"
        rows = read_tsv(path, ("n", "name"), lambda cells: (int(cells[0]), cells[1]), "test")
        assert rows == [(1, "x"), (2, "y")]

    def test_crlf_rows_read(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"n\tname\r\n1\tx\r\n\r\n2\ty\r\n")
        rows = read_tsv(path, ("n", "name"), lambda cells: (int(cells[0]), cells[1]), "test")
        assert rows == [(1, "x"), (2, "y")]

    @pytest.mark.parametrize(
        "text, offset",
        [("m\tname\n", 1), ("n\tname\n1\n", 2), ("n\tname\n\nNaN\tx\n", 3)],
    )
    def test_errors_carry_line_numbers(self, tmp_path, text, offset):
        path = tmp_path / "t.tsv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            read_tsv(path, ("n", "name"), lambda cells: (int(cells[0]), cells[1]), "test")
        assert info.value.offset == offset


class TestPublishedListClock:
    def test_client_clock_always_callable(self):
        assert ArchiveClient(default_registry(), transport=FakeTransport()).clock().tzinfo

    def test_published_records_stamped_by_client_clock(self, registry, tmp_path):
        listing = tmp_path / "canada.txt"
        listing.write_text(f"20050101000000 {CANADA}/20050101000000/http://site-a.ca/\n")
        client = make_client(FakeTransport(), registry, clock=lambda: FIXED_NOW)
        (record,) = ingest_published_list(
            listing, "urirs_and_urims", registry.get("collectionscanada.gc.ca"),
            MementoCollection(), client, min_urirs=10,
        )
        assert record.fetched_at == FIXED_NOW

    def test_fixture_runs_with_published_list_are_byte_identical(self, tmp_path):
        fixtures_dir = tmp_path / "fixtures"
        build_fixture_corpus(fixtures_dir)
        config_path = write_config(tmp_path, fixtures_dir)
        (tmp_path / "canada.txt").write_text(
            f"20050101000000 {CANADA}/20050101000000/http://site-a.ca/\n"
            f"20060101000000 {CANADA}/20060101000000/http://site-b.ca/\n"
        )
        raw = json.loads(config_path.read_text())
        raw["published_lists"].append(
            {"archive": "collectionscanada.gc.ca", "path": "canada.txt", "format": "urirs_and_urims"}
        )
        config_path.write_text(json.dumps(raw))
        states = []
        for name in ("first", "second"):
            config = RunConfig.from_file(config_path)
            config.out_dir = tmp_path / name
            pipeline = DiscoveryPipeline(config)
            assert pipeline.run(resume=False) == "done"
            states.append(pipeline.state_path.read_bytes())
        assert states[0] == states[1]
        published = [
            r for r in json.loads(states[0])["records"]
            if r["provenance"] == Provenance.PUBLISHED_LIST.value
        ]
        assert len(published) == 2
        assert {r["fetched_at"] for r in published} == {"20000101000000"}
