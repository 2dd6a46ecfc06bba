"""Acceptance suite: one test per criterion, each printing a PASS line.

Network-facing criteria run against a local scripted HTTP server; nothing
here touches the outside world.
"""

import random
import threading
import time

from mementoset import (
    ArchiveClient,
    Classification,
    FetchPolicy,
    SelectionConstraints,
    parse_compact,
    parse_timemap,
    prune_non_archival,
    serialize_compact,
    surt,
    unsurt,
)
from mementoset.discovery import SelectionState, select_initial
from mementoset.sampler import ArchiveBudget, cap_mementos, estimate_budget

from mockserver import ServerTransport
from published_counts import (
    S0_URIRS,
    TOTAL_URIMS,
    UNIQUE_URIRS,
    URIR_COUNTS,
    URIM_TOTALS,
    YEAR_TOTALS,
    build_published_manifest,
)
from test_linkformat import brute_force_yearly, reduce_record, synthetic_record
from test_sampler import memento
from universe import AGG_TEMPLATE, brute_force_select, build_universe, install_universe

URIR_FOM = "http://www.futureofmusic.org/about/positions.cfm"


def note(line: str):
    print(f"ACCEPTANCE PASS: {line}", flush=True)


class TestCriterion1Surt:
    def test_surt_correctness_and_properties(self):
        started = time.monotonic()
        for uri in ("http://www.example.com", "http://www.example.com:80",
                    "http://www.EXAMPLE.com"):
            assert surt(uri) == "com,example)/"
        from urllib.parse import urlsplit, urlunsplit

        from test_canonical import random_uri

        rng = random.Random(20170608)
        for _ in range(10_000):
            uri = random_uri(rng)
            key = surt(uri)
            assert surt(unsurt(key)) == key  # idempotence
            parts = urlsplit(uri)
            assert surt(urlunsplit(parts._replace(netloc=parts.netloc.upper()))) == key
            if ":" not in parts.netloc:
                with_80 = parts._replace(scheme="http", netloc=parts.netloc + ":80")
                with_443 = parts._replace(scheme="https", netloc=parts.netloc + ":443")
                assert surt(urlunsplit(with_80)) == key
                assert surt(urlunsplit(with_443)) == key
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
        note(f"1 SURT correctness + 10,000-URI properties in {elapsed:.2f}s")


class TestCriterion2Redirects:
    def test_fb_unification_against_local_mock(self, mock_server, registry):
        started = time.monotonic()
        final = "https://www.facebook.com/"
        mock_server.add("HEAD", "http://www.fb.com", 301, {"Location": final})
        mock_server.add("HEAD", "http://facebook.com", 301, {"Location": final})
        mock_server.add("HEAD", final, 200)
        client = ArchiveClient(
            registry, FetchPolicy(min_request_interval=0, retries=0),
            ServerTransport(mock_server.base_url),
        )
        a = client.resolve("http://www.fb.com")
        b = client.resolve("http://facebook.com")
        assert a.final_uri == b.final_uri == final
        assert surt(a.final_uri) == surt(b.final_uri)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
        note(f"2 redirect unification to {final} in {elapsed:.2f}s")


class TestCriterion3YearlyFilter:
    def test_fixture_bytes_and_randomized_equivalence(
        self, fom_full_compact, fom_yearly_compact, registry
    ):
        started = time.monotonic()
        record = parse_compact(fom_full_compact, URIR_FOM, registry=registry)
        filtered = reduce_record(record, registry)
        assert serialize_compact(filtered) == fom_yearly_compact

        rng = random.Random(48199)
        for _ in range(1_000):
            rec = synthetic_record(
                rng,
                n_archives=rng.randint(1, 8),
                n_years=rng.randint(1, 10),
                per_group=rng.randint(1, 6),
            )
            assert len(rec.mementos) <= 500
            out = reduce_record(rec)
            assert list(out.mementos) == brute_force_yearly(rec)
            assert reduce_record(out) == out  # idempotent
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s"
        note(f"3 yearly filter byte-exact + 1,000 randomized TimeMaps in {elapsed:.2f}s")


class TestCriterion4LinkFormat:
    def test_fixture_parse_counts_and_round_trips(
        self, cnn_timemap, perma_timemap, fom_full_compact, fom_yearly_compact, registry
    ):
        ia = parse_timemap(cnn_timemap, registry=registry)
        assert len(ia.mementos) == 3
        perma = parse_timemap(perma_timemap, registry=registry)
        assert len(perma.mementos) == 57
        # Compact round-trip is exact on every fixture.
        for record in (ia, perma):
            compact = serialize_compact(record)
            reparsed = parse_compact(compact, record.urir.uri, registry=registry)
            assert serialize_compact(reparsed) == compact
        for text, urir in ((fom_full_compact, URIR_FOM), (fom_yearly_compact, URIR_FOM)):
            assert serialize_compact(parse_compact(text, urir, registry=registry)) == text
        note("4 link-format fixtures parse to 3 and 57 mementos; round-trips exact")


class TestCriterion5Selection:
    def test_scan_matches_brute_force_on_mock_server(self, mock_server, registry):
        started = time.monotonic()
        universe = build_universe(seed=8220606, n=500)
        install_universe(universe, mock_server.add)
        transport = ServerTransport(mock_server.base_url)
        client = ArchiveClient(
            registry,
            FetchPolicy(min_request_interval=0.0, retries=0, timeout=10.0),
            transport,
            aggregator_template=AGG_TEMPLATE,
        )
        quota = 20
        state = SelectionState(quota_per_bucket=quota)
        accepted = select_initial(universe.candidates, client, state, target=100)
        expected = brute_force_select(universe, quota=quota, target=100)
        assert [(r.uri, r.canonical_key, r.path_bucket.value) for r in accepted] == expected
        assert all(count <= quota for count in state.bucket_counts.values())
        full = [b.value for b, n in state.bucket_counts.items() if n == quota]
        assert full, "expected at least one bucket to fill to quota"
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"criterion 5 took {elapsed:.2f}s"
        note(
            f"5 selection scan == brute force on 500-URI stream "
            f"({len(accepted)} accepted, buckets {dict((b.value, n) for b, n in state.bucket_counts.items())}) "
            f"in {elapsed:.2f}s"
        )


class TestCriterion6Sampler:
    def test_prune_arithmetic_and_cap_invariants(self):
        # Published-scale arithmetic, tolerance 0.
        selection = {}
        classifications = {}
        idx = 0
        per_archive = [1_087] * 16 + [1_080]
        for a, size in enumerate(per_archive):
            archive_id = f"arch{a:02d}.example"
            selection[archive_id] = []
            for _ in range(size):
                m = memento(archive_id, 1996 + idx % 22, idx, urir_idx=idx % 700)
                selection[archive_id].append(m)
                classifications[m.urim] = (
                    Classification.NON_ARCHIVAL_ERROR
                    if idx < 1_975
                    else Classification.ARCHIVAL_OK
                )
                idx += 1
        assert idx == 18_472
        pruned = prune_non_archival(selection, classifications, keep_quota=130)
        remaining = sum(len(v) for v in pruned.values())
        assert remaining == 16_627

        # Budget arithmetic anchored on the 733-memento/40-hour rate.
        constraints = SelectionConstraints()
        assert estimate_budget("webharvest.gov", [196.4], constraints).allowed_count == 733
        assert estimate_budget("fast", [1.0], constraints).allowed_count == 1_600

        # Randomized cap instances vs brute-force feasibility.
        rng = random.Random(16627)
        for trial in range(40):
            n_urirs = rng.randint(1, 15)
            mementos = []
            for u in range(n_urirs):
                for _ in range(rng.randint(1, 6)):
                    mementos.append(
                        memento("a.org", rng.randint(1996, 2017), len(mementos), urir_idx=u)
                    )
            allowed = rng.randint(0, len(mementos))
            capped = cap_mementos(
                {"a.org": mementos},
                {"a.org": ArchiveBudget("a.org", 1.0, allowed)},
                seed=trial,
            )["a.org"]
            assert len(capped) == min(allowed, len(mementos))
            assert len(capped) <= min(1_600, allowed)
            distinct = {m.urir_key for m in mementos}
            assert len({m.urir_key for m in capped}) == min(allowed, len(distinct))
        note("6 prune 18,472-1,975+130 = 16,627; budget and cap invariants hold")


class TestCriterion7Reports:
    def test_stats_reproduce_published_tables(self, tmp_path):
        from mementoset.cli import main
        from mementoset.sampler import write_manifest

        rows = build_published_manifest()
        manifest = tmp_path / "manifest.tsv"
        write_manifest(rows, manifest)
        out = tmp_path / "reports"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0

        totals = {}
        for line in (out / "archive-totals.csv").read_text().splitlines()[1:]:
            archive_id, urirs, urims = line.split(",")
            totals[archive_id] = (int(urirs), int(urims))
        for archive_id, expected_urirs in URIR_COUNTS.items():
            assert totals[archive_id] == (expected_urirs, URIM_TOTALS[archive_id])
        assert totals["web.archive.org"] == (1_566, 1_566)
        assert totals["perma.cc"] == (175, 182)
        assert totals["Total"] == (UNIQUE_URIRS, TOTAL_URIMS)

        year_rows = (out / "urims-per-year.csv").read_text().splitlines()
        header = year_rows[0].split(",")
        total_row = dict(zip(header, year_rows[-1].split(",")))
        assert total_row["archive"] == "Total"
        assert int(total_row["total"]) == TOTAL_URIMS
        for year, count in YEAR_TOTALS.items():
            assert int(total_row[str(year)]) == count
        per_archive_rows = {r.split(",")[0]: r.split(",") for r in year_rows[1:-1]}
        for archive_id, total in URIM_TOTALS.items():
            assert int(per_archive_rows[archive_id][1]) == total

        histogram = dict(
            line.split(",")
            for line in (out / "path-histogram.csv").read_text().splitlines()[1:]
        )
        assert int(histogram["s0"]) == S0_URIRS
        assert int(histogram["Total"]) == UNIQUE_URIRS
        note("7 per-archive rows, per-year totals, and s0=1,996 reproduced exactly")


class TestCriterion8Politeness:
    def test_intervals_and_single_flight_across_17_archives(self, mock_server, registry):
        interval = 0.06
        per_archive = 3
        server_delay = 0.01
        archives = list(registry)
        assert len(archives) == 17
        for archive in archives:
            host = archive.domains[0]
            for i in range(per_archive):
                mock_server.add("GET", f"http://{host}/page{i}", 200,
                                body=b"ok", delay=server_delay)
        client = ArchiveClient(
            registry,
            FetchPolicy(min_request_interval=interval, retries=0, timeout=10.0),
            ServerTransport(mock_server.base_url),
        )

        errors = []

        def worker(host):
            try:
                for i in range(per_archive):
                    client.request("GET", f"http://{host}/page{i}")
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        started = time.monotonic()
        threads = [
            threading.Thread(target=worker, args=(archive.domains[0],))
            for archive in archives
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.monotonic() - started
        assert not errors

        for archive in archives:
            host = archive.domains[0]
            log = sorted(mock_server.requests_for(f"//{host}/"), key=lambda r: r.started)
            assert len(log) == per_archive
            for earlier, later in zip(log, log[1:]):
                assert later.started >= earlier.finished, f"overlap at {host}"
                gap = later.started - earlier.started
                assert gap >= interval - 0.001, f"{host} spaced {gap:.3f}s"

        serial_floor = 17 * per_archive * (interval + server_delay)
        assert wall < serial_floor / 2, f"lanes did not run concurrently ({wall:.2f}s)"
        note(
            f"8 politeness: 17 archives x {per_archive} requests, spacing >= {interval}s, "
            f"single-flight, wall {wall:.2f}s"
        )
