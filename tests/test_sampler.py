import random
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from mementoset import (
    Classification,
    EmptyProbe,
    Memento,
    ParseError,
    SelectionConstraints,
    cap_mementos,
    estimate_budget,
    finalize,
    group_by_archive,
    prune_non_archival,
)
from mementoset.model import PathBucket
from mementoset.sampler import (
    ManifestRow,
    read_manifest,
    rows_from_selection,
    write_compact_files,
    write_manifest,
)

CONSTRAINTS = SelectionConstraints()


def memento(archive_id, year, idx, urir_idx=0):
    stamp_dt = datetime(year, 1, 1, idx // 60 % 24, idx % 60, idx % 31, tzinfo=timezone.utc)
    urir = f"http://u{urir_idx:03d}.example/"
    return Memento(
        urim=f"http://{archive_id}/web/{stamp_dt:%Y%m%d%H%M%S}-{idx}/{urir}",
        memento_datetime=stamp_dt,
        urir_key=f"example,u{urir_idx:03d})/",
        archive_id=archive_id,
    )


class TestEstimateBudget:
    def test_slow_archive_matches_observed_rate(self):
        # 40 hours at ~196.4 s per memento allows 733 downloads.
        budget = estimate_budget("webharvest.gov", [196.4], CONSTRAINTS)
        assert budget.allowed_count == 733

    def test_cap_binds_for_fast_archives(self):
        budget = estimate_budget("web.archive.org", [1.0, 1.0], CONSTRAINTS)
        assert budget.allowed_count == 1600

    def test_mean_beyond_budget_allows_zero(self):
        over = CONSTRAINTS.download_budget.total_seconds() * 2
        assert estimate_budget("slow", [over], CONSTRAINTS).allowed_count == 0

    def test_mean_is_arithmetic(self):
        budget = estimate_budget("a", [100.0, 300.0], CONSTRAINTS)
        assert budget.probe_mean_cost == 200.0

    def test_empty_probe(self):
        with pytest.raises(EmptyProbe):
            estimate_budget("a", [], CONSTRAINTS)


def budget_for(archive_id, allowed):
    from mementoset.sampler import ArchiveBudget

    return {archive_id: ArchiveBudget(archive_id, 1.0, allowed)}


class TestCapMementos:
    def test_under_cap_unchanged_content(self):
        mementos = [memento("a.org", 2000 + i, i, urir_idx=i) for i in range(5)]
        capped = cap_mementos({"a.org": mementos}, budget_for("a.org", 10))
        assert sorted(m.urim for m in capped["a.org"]) == sorted(m.urim for m in mementos)

    def test_exact_cap(self):
        mementos = [memento("a.org", 2000, i, urir_idx=i) for i in range(2000)]
        capped = cap_mementos({"a.org": mementos}, budget_for("a.org", 1600))
        assert len(capped["a.org"]) == 1600

    def test_every_urir_keeps_one_when_feasible(self):
        mementos = [
            memento("a.org", 2000 + year, year * 3 + u, urir_idx=u)
            for u in range(3)
            for year in range(10)
        ]
        capped = cap_mementos({"a.org": mementos}, budget_for("a.org", 15))
        kept = capped["a.org"]
        assert len(kept) == 15
        assert {m.urir_key for m in kept} == {m.urir_key for m in mementos}

    def test_randomized_instances_vs_feasibility(self):
        rng = random.Random(2718)
        for trial in range(60):
            n_urirs = rng.randint(1, 12)
            mementos = []
            for u in range(n_urirs):
                for k in range(rng.randint(1, 8)):
                    mementos.append(
                        memento("a.org", rng.randint(1996, 2017), len(mementos), urir_idx=u)
                    )
            allowed = rng.randint(0, len(mementos) + 2)
            capped = cap_mementos(
                {"a.org": mementos}, budget_for("a.org", allowed), seed=trial
            )["a.org"]
            # Size: never above allowance, exact when trimming happened.
            assert len(capped) == min(allowed, len(mementos))
            kept_urims = {m.urim for m in capped}
            assert len(kept_urims) == len(capped)
            assert kept_urims <= {m.urim for m in mementos}
            # URI-R coverage is maximal (brute-force feasibility bound).
            distinct = {m.urir_key for m in mementos}
            assert len({m.urir_key for m in capped}) == min(allowed, len(distinct))

    def test_year_coverage_not_worse_than_one_per_urir_baseline(self):
        # One URI-R with mementos in 6 years, allowance 4: coverage must
        # use the slack instead of piling onto one year.
        mementos = [memento("a.org", 2000 + y, y) for y in range(6)]
        mementos += [memento("a.org", 2000, 10 + i) for i in range(10)]
        capped = cap_mementos({"a.org": mementos}, budget_for("a.org", 4))["a.org"]
        assert len({m.year for m in capped}) == 4

    def test_deterministic_under_seed(self):
        rng = random.Random(1)
        mementos = [
            memento("a.org", rng.randint(1996, 2017), i, urir_idx=i % 7) for i in range(50)
        ]
        first = cap_mementos({"a.org": mementos}, budget_for("a.org", 20), seed=9)
        second = cap_mementos({"a.org": mementos}, budget_for("a.org", 20), seed=9)
        assert first == second
        third = cap_mementos({"a.org": mementos}, budget_for("a.org", 20), seed=10)
        assert {m.urim for m in third["a.org"]} <= {m.urim for m in mementos}


class TestPruneNonArchival:
    def test_published_dataset_arithmetic(self):
        # 18,472 selected, 1,975 non-archival, 130 tracked -> 16,627 remain.
        selection = {}
        classifications = {}
        idx = 0
        for a in range(17):
            archive_id = f"arch{a:02d}.example"
            selection[archive_id] = []
            for i in range(1_087 if a < 16 else 1_080):
                m = memento(archive_id, 1996 + idx % 22, idx, urir_idx=idx % 400)
                selection[archive_id].append(m)
                classifications[m.urim] = (
                    Classification.NON_ARCHIVAL_ERROR
                    if idx < 1_975
                    else Classification.ARCHIVAL_OK
                )
                idx += 1
        assert idx == 18_472
        pruned = prune_non_archival(selection, classifications, keep_quota=130)
        assert sum(len(v) for v in pruned.values()) == 16_627

    def test_identity_when_all_archival(self):
        mementos = [memento("a.org", 2001, i) for i in range(10)]
        classes = {m.urim: Classification.ARCHIVAL_OK for m in mementos}
        assert prune_non_archival({"a.org": mementos}, classes, 0) == {"a.org": mementos}

    def test_small_quota_case(self):
        mementos = [memento("a.org", 2001, i) for i in range(10)]
        classes = {
            m.urim: Classification.NON_ARCHIVAL_ERROR if i < 4 else Classification.ARCHIVAL_OK
            for i, m in enumerate(mementos)
        }
        pruned = prune_non_archival({"a.org": mementos}, classes, keep_quota=1)
        assert len(pruned["a.org"]) == 7  # 10 - 4 + 1

    def test_archival_errors_always_kept(self):
        mementos = [memento("a.org", 2001, i) for i in range(4)]
        classes = {m.urim: Classification.ARCHIVAL_ERROR for m in mementos}
        pruned = prune_non_archival({"a.org": mementos}, classes, 0)
        assert pruned == {"a.org": mementos}

    def test_tracked_choice_is_deterministic_by_archive_then_urim(self):
        a = [memento("a.org", 2001, i) for i in range(2)]
        b = [memento("b.org", 2001, i) for i in range(2)]
        classes = {m.urim: Classification.NON_ARCHIVAL_ERROR for m in a + b}
        pruned = prune_non_archival({"b.org": b, "a.org": a}, classes, keep_quota=2)
        kept = [m.urim for v in pruned.values() for m in v]
        assert kept == sorted(m.urim for m in a)

    def test_missing_classification_rejected(self):
        mementos = [memento("a.org", 2001, 0)]
        with pytest.raises(ValueError):
            prune_non_archival({"a.org": mementos}, {}, 0)

    def test_removal_count_reconciles(self):
        rng = random.Random(3)
        mementos = [memento("a.org", 2001, i) for i in range(40)]
        classes = {
            m.urim: rng.choice(
                [Classification.ARCHIVAL_OK, Classification.NON_ARCHIVAL_ERROR]
            )
            for m in mementos
        }
        bad = sum(
            1 for m in mementos
            if classes[m.urim] is Classification.NON_ARCHIVAL_ERROR
        )
        for quota in (0, 3, bad, bad + 5):
            pruned = prune_non_archival({"a.org": mementos}, classes, quota)
            assert len(pruned["a.org"]) == len(mementos) - max(0, bad - quota)


class TestFinalize:
    def test_totals_reconcile(self):
        selection = {
            "a.org": [memento("a.org", 2000 + i % 3, i, urir_idx=i % 4) for i in range(9)],
            "b.org": [memento("b.org", 2001, i, urir_idx=i) for i in range(5)],
        }
        summary = finalize(selection)
        assert summary.total_urims == 14
        assert sum(u for _, u in summary.per_archive.values()) == 14
        assert sum(summary.per_year.values()) == 14
        for archive_id, by_year in summary.per_archive_year.items():
            assert sum(by_year.values()) == summary.per_archive[archive_id][1]
        assert sum(summary.path_histogram.values()) == summary.total_unique_urirs

    def test_empty_selection(self):
        summary = finalize({})
        assert summary.total_urims == 0
        assert summary.total_unique_urirs == 0
        assert summary.per_archive == {}
        assert all(v == 0 for v in summary.path_histogram.values())

    def test_bucket_histogram_from_urir_keys(self):
        selection = {
            "a.org": [
                Memento(
                    urim="http://a.org/web/20000101000000/http://x.example/a/b",
                    memento_datetime=datetime(2000, 1, 1, tzinfo=timezone.utc),
                    urir_key="example,x)/a/b",
                    archive_id="a.org",
                )
            ]
        }
        summary = finalize(selection)
        assert summary.path_histogram[PathBucket.S2] == 1


class TestProbeArchives:
    def build_client_and_selection(self, registry, per_archive=3, delay=0.0, delays=None):
        """Two archives' selections, ``vefsafn.is`` first, each raw download
        served after ``delay``, or after its archive's entry in ``delays``."""
        from mementoset import ArchiveClient, FetchPolicy
        from mockserver import FakeTransport

        transport = FakeTransport()
        selection = {}
        for a in ("vefsafn.is", "digar.ee"):
            host = {"vefsafn.is": "wayback.vefsafn.is", "digar.ee": "veebiarhiiv.digar.ee"}[a]
            selection[a] = []
            for i in range(per_archive):
                urim = f"http://{host}/wayback/2004102019180{i}/http://p{i}.example/"
                m = Memento(
                    urim=urim,
                    memento_datetime=datetime(2004, 10, 20, 19, 18, i, tzinfo=timezone.utc),
                    urir_key=f"example,p{i})/",
                    archive_id=a,
                )
                status, headers = (200, {"Memento-Datetime": "Wed, 20 Oct 2004 19:18:00 GMT"})
                if a == "digar.ee" and i == 1:
                    status, headers = 503, {}
                raw_urim = urim.replace(f"2004102019180{i}/", f"2004102019180{i}id_/")
                transport.add("GET", raw_urim, status, headers, b"body",
                              delay=(delays or {}).get(a, delay))
                selection[a].append(m)
        client = ArchiveClient(
            registry,
            FetchPolicy(min_request_interval=0.0, retries=0, timeout=5.0),
            transport,
        )
        return client, selection

    def test_durations_and_classifications(self, registry):
        from mementoset.sampler import probe_archives

        client, selection = self.build_client_and_selection(registry)
        durations, classes = probe_archives(client, selection, per_archive=2)
        assert len(durations["vefsafn.is"]) == 2
        assert len(durations["digar.ee"]) == 2
        probed = [m for v in selection.values() for m in v[:2]]
        assert set(classes) == {m.urim for m in probed}
        bad = selection["digar.ee"][1]
        assert classes[bad.urim] is Classification.NON_ARCHIVAL_ERROR

    def test_results_come_back_in_selection_order(self, registry):
        from mementoset.sampler import probe_archives

        # The first archive of the selection finishes last.
        client, selection = self.build_client_and_selection(registry, delays={"vefsafn.is": 0.05})
        durations, classes = probe_archives(client, selection, per_archive=2)
        assert list(durations) == ["vefsafn.is", "digar.ee"]
        assert list(classes) == [m.urim for v in selection.values() for m in v[:2]]

    def test_raw_less_mementos_skipped(self, registry):
        from mementoset import ArchiveClient, FetchPolicy
        from mementoset.sampler import probe_archives
        from mockserver import FakeTransport

        m = Memento(
            urim="http://www.webcitation.org/66VfNacdz",
            memento_datetime=datetime(2012, 3, 28, tzinfo=timezone.utc),
            urir_key="org,x)/",
            archive_id="webcitation.org",
        )
        client = ArchiveClient(
            registry, FetchPolicy(min_request_interval=0.0, retries=0), FakeTransport()
        )
        durations, classes = probe_archives(client, {"webcitation.org": [m]})
        assert durations == {} and classes == {}

    def test_empty_selection(self, registry):
        from mementoset import ArchiveClient, FetchPolicy
        from mementoset.sampler import probe_archives
        from mockserver import FakeTransport

        client = ArchiveClient(
            registry, FetchPolicy(min_request_interval=0.0, retries=0), FakeTransport()
        )
        assert probe_archives(client, {}) == ({}, {})

    def test_feeds_budget_estimation(self, registry):
        from mementoset.sampler import probe_archives

        client, selection = self.build_client_and_selection(registry, delay=0.01)
        durations, _ = probe_archives(client, selection, per_archive=2)
        budget = estimate_budget("vefsafn.is", durations["vefsafn.is"], CONSTRAINTS)
        assert 0 < budget.allowed_count <= CONSTRAINTS.max_urims_per_archive
        assert budget.probe_mean_cost >= 0.01

    def test_worker_threads_bounded(self, registry):
        from mementoset.client import RawContent
        from mementoset.sampler import PROBE_WORKERS, probe_archives

        class CountingClient:
            def __init__(self):
                self.active = self.peak = 0
                self.lock = threading.Lock()

            def fetch_raw_memento(self, m):
                with self.lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                time.sleep(0.05)
                with self.lock:
                    self.active -= 1
                return RawContent(200, {}, b"", Classification.ARCHIVAL_OK, 0.05)

        selection = {}
        for i in range(40):
            m = memento(f"a{i:02d}.example", 2001, i)
            selection[m.archive_id] = [m]
        client = CountingClient()
        durations, _ = probe_archives(client, selection)
        assert len(durations) == 40
        assert client.peak <= PROBE_WORKERS
        # Every archive of the bundled registry still gets its own worker.
        assert PROBE_WORKERS >= len(registry)


class TestReadmeDownsampling:
    """The README's downsampling snippet, run as written on fake data."""

    @staticmethod
    def snippet() -> str:
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        after = readme.split("Downsampling a discovered collection end to end:", 1)[1]
        return after.split("```python\n", 1)[1].split("```", 1)[0]

    def test_runs_with_archives_lacking_raw_access(self, registry):
        import mementoset as ms
        from mockserver import FakeTransport

        transport = FakeTransport()
        records = []
        for p in range(2):
            lines = [f"2014010100000{p} http://archive.is/2014{p}/http://p{p}.example/"]
            for i in range(3):
                stamp = f"200{i}1020191800"
                urim = f"http://wayback.vefsafn.is/wayback/{stamp}/http://p{p}.example/"
                lines.append(f"{stamp} {urim}")
                raw = urim.replace(stamp, stamp + "id_")
                if p == 1:  # every raw download of this URI-R fails at the archive
                    transport.add("GET", raw, 503)
                else:
                    transport.add("GET", raw, 200, {"Memento-Datetime": "x"}, b"ok")
            records.append(ms.parse_compact("\n".join(lines), f"http://p{p}.example/", registry))
        client = ms.ArchiveClient(
            registry, ms.FetchPolicy(min_request_interval=0.0, retries=0), transport
        )
        scope = {"ms": ms, "client": client, "records": records,
                 "constraints": SelectionConstraints(max_urims_per_archive=4)}
        exec(self.snippet(), scope)
        assert set(scope["selection"]) == {"archive.is", "vefsafn.is"}
        assert set(scope["capped"]) == {"vefsafn.is"}
        capped = scope["capped"]["vefsafn.is"]
        assert len(capped) == 4
        assert {m.urir_key for m in capped} == {"example,p0)/", "example,p1)/"}
        kept = [m for m in capped if m.urir_key == "example,p0)/"]
        assert scope["summary"].per_archive == {"vefsafn.is": (1, len(kept))}


class TestGroupByArchive:
    def test_unattributed_skipped(self):
        from mementoset.canonical import original_resource
        from mementoset.model import Provenance, TimeMapRecord

        resource = original_resource("http://x.example/")
        known = Memento(
            "http://a.org/web/1/x", datetime(2000, 1, 1, tzinfo=timezone.utc),
            resource.canonical_key, "a.org",
        )
        unknown = Memento(
            "http://who.example/1", datetime(2000, 1, 1, tzinfo=timezone.utc),
            resource.canonical_key, None,
        )
        record = TimeMapRecord(
            resource, (known, unknown), datetime(2017, 1, 1, tzinfo=timezone.utc),
            Provenance.AGGREGATOR,
        )
        assert group_by_archive([record]) == {"a.org": [known]}


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        selection = {
            "a.org": [memento("a.org", 2001, i, urir_idx=i % 2) for i in range(4)]
        }
        classes = {m.urim: Classification.ARCHIVAL_OK for m in selection["a.org"]}
        urir_by_key = {m.urir_key: f"http://u{i % 2:03d}.example/"
                       for i, m in enumerate(selection["a.org"])}
        rows = rows_from_selection(selection, urir_by_key, classes)
        path = tmp_path / "manifest.tsv"
        write_manifest(rows, path)
        assert read_manifest(path) == rows

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("nope\n")
        with pytest.raises(ParseError):
            read_manifest(path)

    def test_bad_column_count_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("archive\turir\turim\tdatetime\tclassification\nonly\ttwo\n")
        with pytest.raises(ParseError) as info:
            read_manifest(path)
        assert info.value.offset == 2

    def test_compact_files(self, tmp_path):
        selection = {"a.org": [memento("a.org", 2001, 0)], "b.org": []}
        written = write_compact_files(selection, tmp_path)
        assert sorted(p.name for p in written) == ["a.org.txt", "b.org.txt"]
        body = (tmp_path / "a.org.txt").read_text()
        assert body.startswith("20010101") and body.endswith("\n")
        assert (tmp_path / "b.org.txt").read_text() == ""
