import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import mementoset
from mementoset.cli import main
from mementoset.client import FixtureStore, FixtureTransport, TransportResponse
from mementoset.discovery import MementoCollection
from mementoset.linkformat import (
    TimeMapReducer,
    parse_compact,
    parse_timemap,
    serialize_compact,
    serialize_linkformat,
)
from mementoset.model import default_registry

from published_counts import build_published_manifest
from reduction_reference import reference_add
from mementoset.sampler import write_manifest
from test_pipeline import AGG, build_fixture_corpus, write_config

URIR_FOM = "http://www.futureofmusic.org/about/positions.cfm"


def child_env(**changes):
    """This process's environment for a child interpreter that imports the
    package from where this one does, with ``changes`` applied."""
    path = [str(Path(mementoset.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **changes}


class TestCanon:
    def test_single_uri(self, capsys):
        assert main(["canon", "http://www.EXAMPLE.com"]) == 0
        assert capsys.readouterr().out == "com,example)/\n"

    def test_multiple_uris(self, capsys):
        code = main(["canon", "http://www.example.com", "https://a.b.co.uk/P/q.html"])
        assert code == 0
        assert capsys.readouterr().out == "com,example)/\nuk,co,b,a)/P/q.html\n"

    def test_no_args_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["canon"])
        assert info.value.code == 2

    def test_invalid_stops_without_keep_going(self, capsys):
        code = main(["canon", "mailto:x@y", "http://ok.example/"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_keep_going_prints_valid_lines(self, capsys):
        code = main(["canon", "--keep-going", "http://a.com/", "mailto:x@y", "http://b.com/"])
        assert code == 1
        assert capsys.readouterr().out == "com,a)/\ncom,b)/\n"


@pytest.fixture()
def aggregator_fixture(tmp_path, fom_full_compact):
    """Fixture dir whose aggregator response is the 64-memento TimeMap."""
    store = FixtureStore(tmp_path / "fixtures")
    record = parse_compact(fom_full_compact, URIR_FOM, registry=default_registry())
    body = serialize_linkformat(record).encode()
    store.save("GET", AGG.format(uri=URIR_FOM), TransportResponse(200, {}, body))
    return tmp_path / "fixtures"


def write_registry(path, change):
    """The bundled registry, ``change`` merged into its first entry."""
    entries = [asdict(a) for a in default_registry()]
    entries[0] |= change
    path.write_text(json.dumps({"archives": entries}))


def timemap_args(fixtures, *extra):
    return [
        "timemap", "--fixtures", str(fixtures), "--endpoint", AGG,
        "--interval", "0", *extra,
    ]


class TestTimemap:
    def test_yearly_compact_matches_filtered_fixture(
        self, aggregator_fixture, fom_yearly_compact, capsys
    ):
        code = main(timemap_args(aggregator_fixture, "--filter-yearly", "--compact", URIR_FOM))
        assert code == 0
        assert capsys.readouterr().out == fom_yearly_compact

    def test_unfiltered_compact_keeps_all(self, aggregator_fixture, fom_full_compact, capsys):
        code = main(timemap_args(aggregator_fixture, "--compact", URIR_FOM))
        assert code == 0
        assert capsys.readouterr().out == fom_full_compact

    def test_linkformat_output_default(self, aggregator_fixture, capsys):
        code = main(timemap_args(aggregator_fixture, URIR_FOM))
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(f'<{URIR_FOM}>; rel="original"')
        assert out.count('rel="memento"') == 64

    def test_direct_archive_fetch(self, tmp_path, perma_timemap, capsys):
        store = FixtureStore(tmp_path)
        urir = "http://www.whitehouse.gov/"
        store.save(
            "GET",
            f"https://perma-archives.org/warc/timemap/*/{urir}",
            TransportResponse(200, {}, perma_timemap),
        )
        code = main(timemap_args(tmp_path, "--direct", "perma.cc", "--compact", urir))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 57

    @pytest.mark.parametrize("fixture", ["inria_timemap", "cnn_timemap", "perma_timemap"])
    @pytest.mark.parametrize("direct", [False, True])
    @pytest.mark.parametrize("form", [[], ["--compact"]])
    def test_filter_yearly_prints_what_discovery_stores(
        self, tmp_path, capsys, request, fixture, direct, form
    ):
        """The reduced fetch prints byte for byte what discovery stores of
        the TimeMap in an empty collection: what the previous reduction
        stored of its full record."""
        body = request.getfixturevalue(fixture)
        urir = "http://www.whitehouse.gov/"
        registry = default_registry()
        record = parse_timemap(body, urir, registry)
        serving = None
        if direct:
            serving = registry.get("perma.cc")
            uri = serving.timemap_template.format(uri=urir)
            record = record.with_mementos(replace(m, archive_id=serving.id) for m in record.mementos)
            form = [*form, "--direct", "perma.cc"]
        else:
            uri = AGG.format(uri=urir)
        collection = MementoCollection()
        reducer = TimeMapReducer(registry, collection.get)
        reducer.read(body, serving)
        stored = collection.add(reducer.record(urir))
        assert stored.mementos == reference_add(MementoCollection(), record).mementos
        FixtureStore(tmp_path).save("GET", uri, TransportResponse(200, {}, body))
        assert main(timemap_args(tmp_path, "--filter-yearly", *form, urir)) == 0
        write = serialize_compact if "--compact" in form else serialize_linkformat
        assert capsys.readouterr().out == write(stored)

    def test_empty_timemap_exit_three(self, tmp_path, capsys):
        store = FixtureStore(tmp_path)
        store.save("GET", AGG.format(uri="http://gone.example/"),
                   TransportResponse(404, {}, b""))
        code = main(timemap_args(tmp_path, "http://gone.example/"))
        assert code == 3
        assert "empty timemap" in capsys.readouterr().err

    def test_filter_yearly_drops_mementos_of_unregistered_archives(self, tmp_path, capsys):
        urir = "http://a.example/"
        wayback = f"http://web.archive.org/web/20100101000000/{urir}"
        body = (
            f'<{urir}>; rel="original",\n'
            f'<{wayback}>; rel="memento"; datetime="Fri, 01 Jan 2010 00:00:00 GMT",\n'
            f'<http://unregistered.test/20110101000000/{urir}>; rel="memento"; '
            f'datetime="Sat, 01 Jan 2011 00:00:00 GMT"\n'
        )
        response = TransportResponse(200, {}, body.encode())
        FixtureStore(tmp_path).save("GET", AGG.format(uri=urir), response)
        code = main(timemap_args(tmp_path, "--filter-yearly", "--compact", urir))
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [f"20100101000000 {wayback}"]

    def test_direct_from_an_unknown_archive_names_its_id(self, tmp_path, capsys):
        code = main(timemap_args(tmp_path, "--direct", "bogus", "http://a.example/"))
        assert code == 1
        assert capsys.readouterr().err == "error: no registered archive has the id 'bogus'\n"

    @pytest.mark.parametrize(
        "entry, named",
        [({"timemap-template": "http://x.test/{uri}"}, "'timemap-template'"),
         ({"memento_native": "false"}, "memento_native"),
         ({"domains": "web.archive.org"}, "domains"),
         ({"purpose": "museum"}, "Purpose"),
         (None, "No such file")],
    )
    def test_registry_errors_exit_two(self, tmp_path, capsys, entry, named):
        registry = tmp_path / "registry.json"
        if entry is not None:
            write_registry(registry, entry)
        code = main(timemap_args(tmp_path, "--registry", str(registry), "http://a.example/"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_an_infinite_interval_exits_two(self, tmp_path, capsys):
        code = main(timemap_args(tmp_path, "--interval", "inf", "http://a.example/"))
        assert code == 2
        assert capsys.readouterr().err == "error: min_request_interval: out of range: inf\n"

    def test_network_failure_exit_one(self, tmp_path, capsys):
        code = main(timemap_args(tmp_path, "http://unrecorded.example/"))
        assert code == 1

    @pytest.mark.parametrize("garbled", [b"{not json", b'{"status": 200, "body_b64": ""}'])
    def test_garbled_fixture_exits_one(self, tmp_path, capsys, garbled):
        urir = "http://a.example/"
        store = FixtureStore(tmp_path)
        store.save("GET", AGG.format(uri=urir), TransportResponse(200, {}, b""))
        (path,) = tmp_path.iterdir()
        path.write_bytes(garbled)
        assert main(timemap_args(tmp_path, urir)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: fixture {path} ") and err.count("\n") == 1

    @pytest.mark.parametrize("endpoint", ["http://agg.test/x", "http://agg.test/{uri}/{x}"])
    def test_endpoint_without_one_uri_field_exits_two(self, tmp_path, capsys, endpoint):
        args = ["timemap", "--fixtures", str(tmp_path), "--endpoint", endpoint]
        code = main([*args, "http://a.example/"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: aggregator template")


class TestStats:
    def test_published_dataset_reports(self, tmp_path, capsys):
        rows = build_published_manifest()
        manifest = tmp_path / "manifest.tsv"
        write_manifest(rows, manifest)
        out_dir = tmp_path / "reports"
        code = main(["stats", "--manifest", str(manifest), "--out", str(out_dir)])
        assert code == 0
        per_year = (out_dir / "urims-per-year.csv").read_text().splitlines()
        assert per_year[0].startswith("archive,total,1996,")
        assert per_year[-1].startswith("Total,16627,137,121,110,109,114,")
        assert per_year[-1].endswith(",926")
        totals = {
            line.split(",")[0]: line.split(",")[1:]
            for line in (out_dir / "archive-totals.csv").read_text().splitlines()[1:]
        }
        assert totals["web.archive.org"] == ["1566", "1566"]
        assert totals["perma.cc"] == ["175", "182"]
        assert totals["Total"] == ["3698", "16627"]
        histogram = dict(
            line.split(",")
            for line in (out_dir / "path-histogram.csv").read_text().splitlines()[1:]
        )
        assert histogram["s0"] == "1996"

    def test_empty_manifest_header_only(self, tmp_path):
        manifest = tmp_path / "empty.tsv"
        write_manifest([], manifest)
        out_dir = tmp_path / "reports"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out_dir)]) == 0
        lines = (out_dir / "urims-per-year.csv").read_text().splitlines()
        assert lines[0].startswith("archive,total,1996")
        assert len(lines) == 2  # header + all-zero Total row

    def test_bad_manifest_exit_one(self, tmp_path, capsys):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text("not a manifest\n")
        assert main(["stats", "--manifest", str(manifest), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("missing", ["--manifest", "--urirs"])
    def test_missing_input_is_reported_before_anything_is_written(
        self, tmp_path, capsys, missing
    ):
        manifest = tmp_path / "manifest.tsv"
        write_manifest([], manifest)
        inputs = {"--manifest": manifest, "--urirs": manifest}
        inputs[missing] = tmp_path / "does-not-exist.tsv"
        out_dir = tmp_path / "reports"
        code = main([
            "stats", "--manifest", str(inputs["--manifest"]), "--urirs", str(inputs["--urirs"]),
            "--out", str(out_dir),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does-not-exist.tsv" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("empty", ["--manifest", "--urirs"])
    def test_input_without_a_header_line_is_rejected(self, tmp_path, capsys, empty):
        from mementoset.reports import URIR_TABLE_HEADER

        manifest = tmp_path / "manifest.tsv"
        write_manifest([], manifest)
        urirs = tmp_path / "urirs.tsv"
        urirs.write_text("\t".join(URIR_TABLE_HEADER) + "\n")
        inputs = {"--manifest": manifest, "--urirs": urirs}
        inputs[empty].write_bytes(b"")
        out_dir = tmp_path / "reports"
        code = main([
            "stats", "--manifest", str(manifest), "--urirs", str(urirs), "--out", str(out_dir),
        ])
        assert code == 1
        name = "manifest" if empty == "--manifest" else "URI-R table"
        assert capsys.readouterr().err == f"error: bad {name} header '' (at offset 1)\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("garbled", ["--manifest", "--urirs"])
    def test_input_that_is_not_utf8_is_rejected(self, tmp_path, capsys, garbled):
        from mementoset.reports import URIR_TABLE_HEADER

        manifest = tmp_path / "manifest.tsv"
        write_manifest([], manifest)
        urirs = tmp_path / "urirs.tsv"
        urirs.write_text("\t".join(URIR_TABLE_HEADER) + "\n")
        inputs = {"--manifest": manifest, "--urirs": urirs}
        inputs[garbled].write_bytes(b"\xff\xfea\x00\n")  # a UTF-16 byte-order mark
        out_dir = tmp_path / "reports"
        code = main([
            "stats", "--manifest", str(manifest), "--urirs", str(urirs), "--out", str(out_dir),
        ])
        assert code == 1
        name = "manifest" if garbled == "--manifest" else "URI-R table"
        assert capsys.readouterr().err == f"error: {name} is not UTF-8 (at offset 1)\n"
        assert not out_dir.exists()

    def test_out_naming_an_existing_file_is_an_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        write_manifest([], manifest)
        out = tmp_path / "reports"
        out.write_text("not a directory\n")
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert out.read_text() == "not a directory\n"

    def test_urir_table_enables_extra_reports(self, tmp_path):
        from mementoset.model import OriginalResource, PathBucket
        from mementoset.reports import write_urir_table

        manifest = tmp_path / "m.tsv"
        write_manifest([], manifest)
        urirs = tmp_path / "urirs.tsv"
        write_urir_table(
            [OriginalResource("http://a/", "a)/", "http://a/", PathBucket.S0, "moz", 200)],
            urirs,
        )
        out_dir = tmp_path / "reports"
        code = main([
            "stats", "--manifest", str(manifest), "--urirs", str(urirs),
            "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "source-buckets.csv").exists()
        assert (out_dir / "live-status.csv").exists()


class TestDiscoverCommand:
    def test_end_to_end(self, tmp_path, capsys, corpus_cadence):
        fixtures_dir = tmp_path / "fixtures"
        build_fixture_corpus(fixtures_dir)
        config_path = write_config(tmp_path, fixtures_dir)
        code = main(["discover", "--config", str(config_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "discovery stopped at stage: done" in out
        assert "selected URI-Rs: 4" in out
        assert (tmp_path / "out" / "counts_method4.csv").exists()
        # A finished run leaves the state snapshot and no journal.
        assert (tmp_path / "out" / "state.json").exists()
        assert not (tmp_path / "out" / "state.jsonl").exists()

    def test_a_source_list_with_a_bom_crlf_and_a_refused_line_selects_as_the_clean_one(
        self, tmp_path, capsys, monkeypatch
    ):
        sent = []
        request = FixtureTransport.request
        monkeypatch.setattr(
            FixtureTransport, "request",
            lambda self, method, uri: sent.append(uri) or request(self, method, uri),
        )
        runs = {}
        for name in ("clean", "rewritten"):
            root = tmp_path / name
            build_fixture_corpus(root / "fixtures")
            config_path = write_config(root, root / "fixtures")
            if name == "rewritten":
                lines = (root / "moz.txt").read_text("utf-8").split("\n")
                lines.insert(3, "http://m9.example/x\u2028y")
                (root / "moz.txt").write_text("\ufeff" + "\r\n".join(lines), "utf-8")
            sent.clear()
            assert main(["discover", "--config", str(config_path)]) == 0
            out = root / "out"
            runs[name] = (
                capsys.readouterr().out, json.loads((out / "state.json").read_text("utf-8")),
                (out / "urirs.tsv").read_text("utf-8"), list(sent),
            )
        (out, state, urirs, requests), (out2, state2, urirs2, requests2) = runs.values()
        assert "selected URI-Rs: 4" in out and out2 == out and urirs2 == urirs
        # The refused line is a candidate scanned, and sends no request.
        assert state2 == {**state, "scan_index": state["scan_index"] + 1}
        assert requests2 == requests and not any("m9" in uri for uri in requests2)

    def test_a_root_domain_list_selects_as_the_http_list(self, tmp_path, capsys):
        # The Moz Top 500 lists root domains: each is requested as http://.
        runs = {}
        for name, line in (("http", "http://m{}.example\n"), ("root", "m{}.example\n")):
            root = tmp_path / name
            store = FixtureStore(root / "fixtures")
            build_fixture_corpus(store.root)
            for i in (0, 1, 2, 3, 5):  # m4 is dead
                for method, uri in (("HEAD", "http://m{}.example"), ("GET", AGG.format(uri="http://m{}.example"))):
                    store.save(method, uri.format(i), store.load(method, uri.format(i) + "/"))
            config_path = write_config(root, store.root)
            (root / "moz.txt").write_text("".join(line.format(i) for i in range(6)))
            assert main(["discover", "--config", str(config_path)]) == 0
            rows = (root / "out" / "urirs.tsv").read_text("utf-8").split("\n")[1:-1]
            runs[name] = capsys.readouterr().out, [row.split("\t") for row in rows]
        (out, rows), (root_out, root_rows) = runs.values()
        assert "selected URI-Rs: 4" in out and root_out == out
        # uri, canonical_key, final_uri, path_bucket, source, live_status
        assert [row[1:] for row in root_rows] == [row[1:] for row in rows]
        assert [row[0] for row in root_rows] == ["m0.example", "m1.example", "m2.example", "m5.example"]
        assert [row[2] for row in root_rows] == [f"http://m{i}.example" for i in (0, 1, 2, 5)]

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"aggregator_endpoint": "http://agg.test/x"}, "aggregator template"),
            ({"published_lists": [{"archive": "no.test", "path": "moz.txt", "format": "urirs_only"}]},
             "no registered archive has the id 'no.test'"),
            ({"published_lists": [{"archive": "perma.cc", "path": "moz.txt", "format": "titles"}]},
             "'titles'"),
            ({"min_request_intervall": 5}, "'min_request_intervall'"),
            ({"sources": {"moz": "moz.txt", "memento-damage": "moz.txt"}}, "'memento-damage'"),
            ({"constraints": {"min_urirs": 2}}, "'min_urirs'"),
            ({"constraints": {"download_budget_hours": True}}, "download_budget_hours"),
            ({"published_lists": [{"archive": "perma.cc", "path": "moz.txt",
                                   "format": "urirs_only", "note": "x"}]}, "'note'"),
            ({"registry": {"timemap-template": "http://x.test/{uri}"}}, "'timemap-template'"),
            ({"retries": "3"}, "retries"),
            ({"target": "5"}, "target"),
            ({"checkpoint_every": 25}, "config: unknown key 'checkpoint_every'"),
            ({"registry": {"memento_native": "false"}}, "memento_native"),
            ({"published_lists": [{"path": "moz.txt", "format": "urirs_only"}]}, "'archive'"),
            ({"published_lists": [{"archive": "perma.cc", "format": "urirs_only"}]}, "'path'"),
            ({"published_lists": [{"archive": "perma.cc", "path": 3, "format": "urirs_only"}]},
             "path: expected a string, got 3"),
            ({"min_request_interval": float("inf")}, "min_request_interval: out of range: inf"),
            ({"sources": {"moz": "moz.txt", "wahr": {"a\tb": "moz.txt"}}},
             "wahr: hashtag 'a\\tb' holds a tab, CR or LF"),
        ],
        ids=[f"change{i}" for i in range(18)],
    )
    def test_config_errors_reported_before_the_first_request(
        self, tmp_path, capsys, monkeypatch, change, named
    ):
        fixtures_dir = tmp_path / "fixtures"
        build_fixture_corpus(fixtures_dir)
        config_path = write_config(tmp_path, fixtures_dir)
        if isinstance(change.get("registry"), dict):
            write_registry(tmp_path / "registry.json", change["registry"])
            change = {"registry": "registry.json"}
        config_path.write_text(json.dumps({**json.loads(config_path.read_text()), **change}))
        sent = []
        monkeypatch.setattr(FixtureTransport, "request", lambda self, *args: sent.append(args))
        assert main(["discover", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error loading config:") and named in err
        assert sent == []
        assert not (tmp_path / "out").exists()

    def test_missing_files_are_named_the_same_under_every_hash_seed(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "registry": "registry.json",
            "sources": {"moz": "moz.txt", "memento_damage": "damage.txt",
                        "httparchive": "httparchive.txt"},
        }))
        errors = set()
        for seed in range(8):
            run = subprocess.run(
                [sys.executable, "-m", "mementoset.cli", "discover", "--config", str(config_path)],
                env=child_env(PYTHONHASHSEED=str(seed)), capture_output=True, text=True,
            )
            assert run.returncode == 1
            errors.add(run.stderr)
        missing = tmp_path / "registry.json"  # the first path field
        assert errors == {f"error loading config: configured file missing: {missing}\n"}

    @pytest.mark.parametrize("garbled", ["moz.txt", "ukwa_published.txt"])
    def test_source_file_that_is_not_utf8_is_an_error(self, tmp_path, capsys, garbled):
        fixtures_dir = tmp_path / "fixtures"
        build_fixture_corpus(fixtures_dir)
        config_path = write_config(tmp_path, fixtures_dir)
        path = tmp_path / garbled
        path.write_bytes(b"http://m0.example/\n\xff\xfeh\x00\n")
        assert main(["discover", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: {path} is not UTF-8 (at offset 2)\n"

    @pytest.mark.parametrize("cut, named", [
        (lambda data: data[:-40], "does not decode:"),
        (lambda data: b'{"stage": "method2"}', "lacks the key 'scan_index'"),
    ], ids=["truncated", "without-a-key"])
    def test_unreadable_state_file_is_an_error(self, tmp_path, capsys, cut, named):
        fixtures_dir = tmp_path / "fixtures"
        build_fixture_corpus(fixtures_dir)
        config_path = write_config(tmp_path, fixtures_dir)
        assert main(["discover", "--config", str(config_path)]) == 0
        state = tmp_path / "out" / "state.json"
        state.write_bytes(cut(state.read_bytes()))
        capsys.readouterr()
        assert main(["discover", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {state} {named}")

    @pytest.mark.parametrize("state, named", [
        ({"stage": "method9", "scan_index": 0}, "has an invalid 'stage': 'method9'"),
        ({"stage": "method1", "scan_index": "x"}, "has an invalid 'scan_index': 'x'"),
        ({"stage": "method1", "scan_index": -1}, "has an invalid 'scan_index': -1"),
        ({"stage": "method1", "scan_index": True}, "has an invalid 'scan_index': True"),
    ], ids=["unknown-stage", "string-index", "negative-index", "bool-index"])
    def test_invalid_state_is_an_error(self, tmp_path, capsys, monkeypatch, state, named):
        fixtures_dir = tmp_path / "fixtures"
        build_fixture_corpus(fixtures_dir)
        config_path = write_config(tmp_path, fixtures_dir)
        path = tmp_path / "out" / "state.json"
        path.parent.mkdir()
        path.write_text(json.dumps({**state, "records": []}))
        sent = []
        monkeypatch.setattr(FixtureTransport, "request", lambda self, *args: sent.append(args))
        assert main(["discover", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: {path} {named}\n"
        assert sent == []
        assert not (tmp_path / "out" / "urirs.tsv").exists()

    def test_missing_config(self, capsys, monkeypatch):
        monkeypatch.delenv("MEMENTOSET_CONFIG", raising=False)
        assert main(["discover"]) == 2

    def test_config_from_env(self, tmp_path, capsys, monkeypatch):
        fixtures_dir = tmp_path / "fixtures"
        build_fixture_corpus(fixtures_dir)
        config_path = write_config(tmp_path, fixtures_dir, out_name="envout")
        monkeypatch.setenv("MEMENTOSET_CONFIG", str(config_path))
        assert main(["discover"]) == 0
        assert (tmp_path / "envout" / "state.json").exists()
