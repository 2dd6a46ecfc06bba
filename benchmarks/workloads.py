"""The three workloads. Each builds its inputs once, then runs rounds.

A round drives the program through its public API on a fresh output
directory, timed as a whole, and is then checked. Every round of a run
attempts the same operations on the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import re
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import mementoset.cli as cli
import mementoset.sampler as sampler
from mementoset.errors import RawAccessUnsupported
from mementoset.model import SelectionConstraints
from mementoset.pipeline import DiscoveryPipeline, RunConfig

import checks
from inputs import AGGREGATOR, IA, NO_RAW, PERMA_TIMEMAP, Sizes, dataset_inputs, scan_inputs
from server import Web
from tracing import CLASSIFY


def fixed_clock() -> datetime:
    # Fetch stamps go into state.json; a fixed clock keeps runs byte-comparable.
    return datetime(2000, 1, 1, tzinfo=timezone.utc)


def written_bytes() -> int:
    """Bytes this process has passed to write(2) so far."""
    with open("/proc/self/io", encoding="ascii") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def resident_kb() -> int:
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def in_child(fn):
    """``fn()`` in a child forked from this process; returns its result.

    The child starts from this process's state and leaves nothing behind
    in it, so every round starts alike, and the child's peak resident set
    over its size at the fork is the memory the round itself took.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    os.waitpid(pid, 0)
    ok, result = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"child failed:\n{result}")
    return result


def measured_round(workload, out: Path):
    """One untraced round in a child, with the memory it took."""

    def run():
        start_kb = resident_kb()
        r = workload.round(out)
        r.peak_rss_mb = (r.peak_rss_kb - start_kb) / 1024
        return r

    return in_child(run)


@dataclass
class Round:
    t0: float = 0.0  # perf_counter at the start of the timed section
    run_s: float = 0.0
    cpu_s: float = 0.0
    bytes_written: int = 0
    requests: int = 0
    decisions: int = 0  # Method 1 candidates decided
    mementos: int = 0  # memento entries taken in from TimeMaps and lists
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    stages: dict[str, float] = field(default_factory=dict)
    kept_ratio: float = 0.0
    peak_rss_kb: int = 0  # the process's peak resident set at the end of the timed section
    peak_rss_mb: float = 0.0  # peak resident set over the set at the round's start


@contextlib.contextmanager
def timed(r: Round):
    w0, c0, t0 = written_bytes(), time.process_time(), time.perf_counter()
    r.t0 = t0
    yield
    r.run_s = time.perf_counter() - t0
    r.cpu_s = time.process_time() - c0
    r.bytes_written = written_bytes() - w0
    # Read before the checks, whose own memory must not count.
    r.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@contextlib.contextmanager
def stage(r: Round, name: str):
    t0 = time.perf_counter()
    yield
    r.stages[name] = r.stages.get(name, 0.0) + time.perf_counter() - t0


def _transport(web: Web, tracer):
    transport = web.transport()
    if tracer is not None:
        tracer.wrap_transport(transport, web)
    return transport


class ScanBackoff:
    """Method 1 alone over a ``tests/universe.py`` stream, default retries."""

    name = "scan-backoff"
    LIVE, DEAD, ACCEPTED, MEMENTOS, HEADS = 80, 6, 38, 75, 110

    def __init__(self, seed: int, work: Path):
        self.inputs = scan_inputs(
            seed, work / "inputs", self.LIVE, self.DEAD, self.ACCEPTED, self.MEMENTOS, self.HEADS
        )
        # An untimed pass without back-off runs the same code once, so the
        # single timed round does not pay first-call costs a long scan
        # spreads over thousands of candidates.
        warm = DiscoveryPipeline(
            self.config(work / "warm-up", retries=0),
            transport=self.inputs.web.transport(),
            clock=fixed_clock,
        )
        warm.run(stop_after="method1")

    def config(self, out: Path, retries: int = 3) -> RunConfig:
        return RunConfig(
            out_dir=out,
            aggregator_endpoint=self.inputs.aggregator,
            moz_path=self.inputs.source_file,
            quota_per_bucket=2000,
            min_request_interval=0.0,
            retries=retries,
        )

    def round(self, out: Path, tracer=None) -> Round:
        r = Round()
        web = self.inputs.web
        transport = _transport(web, tracer)
        pipe = DiscoveryPipeline(self.config(out), transport=transport, clock=fixed_clock)
        with timed(r), stage(r, "method1"):
            pipe.run(stop_after="method1")
        r.requests = len(transport.requests)
        r.decisions = pipe.scan_index
        r.mementos = web.entries_served(transport.requests)
        r.attempted = len(self.inputs.stream)

        records = checks.load_records(out / "state.json")
        served = web.served(transport.requests)
        # Every universe TimeMap lists Internet Archive mementos only.
        planted = {urim: IA for entries in served.values() for urim, _ in entries}
        r.problems = (
            checks.check_selection([a.uri for a in pipe.accepted], self.inputs.expected_accepted)
            + checks.check_records(records, served, planted)
            + checks.check_totals(records, pipe.collection.totals(), out / "counts_method1.csv")
        )
        r.failed = min(len(r.problems), r.attempted)
        return r


_PAGE = re.compile(r"/timemap/link/\d+/")
REPORT_TABLES = 5


class DatasetBuild:
    """Methods 1-4, the README's downsampling and ``mementoset stats``."""

    name = "dataset-build"

    def __init__(self, seed: int, work: Path, sizes: Sizes = Sizes()):
        self.seed = seed
        self.sizes = sizes
        self.inputs = dataset_inputs(seed, work / "inputs", sizes)
        self.constraints = SelectionConstraints(
            min_urirs_per_archive=sizes.min_urirs, max_urims_per_archive=sizes.max_urims
        )

    def config(self, out: Path) -> RunConfig:
        files = self.inputs.source_files
        return RunConfig(
            out_dir=out,
            aggregator_endpoint=AGGREGATOR,
            moz_path=files["moz"],
            damage_path=files["damage"],
            httparchive_path=files["httparchive"],
            wahr_paths={tag: files[tag] for tag in ("#paris", "#climatemarch")},
            published_lists=self.inputs.published_lists,
            constraints=self.constraints,
            quota_per_bucket=2000,
            min_request_interval=0.0,
            retries=0,
            seed=self.seed,
        )

    def discover(self, pipe: DiscoveryPipeline, r: Round, marks: dict[str, int], transport) -> None:
        """Methods 1-4 on one pipeline, one ``run`` per stage."""
        for name in ("method1", "method2", "method3", "method4"):
            with stage(r, name):
                pipe.run(resume=name == "method1", stop_after=None if name == "method4" else name)
            marks[name] = len(transport.requests)

    def round(self, out: Path, tracer=None) -> Round:
        r = Round()
        marks: dict[str, int] = {}
        transport = _transport(self.inputs.web, tracer)
        pipe = DiscoveryPipeline(self.config(out), transport=transport, clock=fixed_clock)
        with timed(r):
            self.discover(pipe, r, marks, transport)
            with stage(r, "sample"):
                sample = self.sample(pipe, out, tracer)
            with stage(r, "stats"), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([
                    "stats", "--manifest", str(out / "manifest.tsv"),
                    "--urirs", str(out / "urirs.tsv"), "--out", str(out / "reports"),
                ])
        self.account(r, pipe, transport, marks)
        r.attempted += len(sample["selection"]) + REPORT_TABLES
        r.kept_ratio = len(sample["rows"]) / max(1, sum(len(v) for v in sample["selection"].values()))
        r.problems = self.check_discovery(pipe, out, transport) + self.check_sample(sample, out)
        if code != 0:
            r.problems.append(f"mementoset stats exited with {code}")
        r.failed = len(sample["failed_caps"]) + min(len(r.problems), r.attempted)
        return r

    def sample(self, pipe: DiscoveryPipeline, out: Path, tracer) -> dict:
        """The README's downsampling, ``cap_mementos`` once per archive."""
        client = pipe.client
        records = list(pipe.collection.records())
        selection = sampler.group_by_archive(records)
        durations, _ = sampler.probe_archives(client, selection)
        budgets = {a: sampler.estimate_budget(a, durations[a], self.constraints) for a in durations}
        capped: dict = {}
        failed_caps = []
        for archive in selection:
            try:
                capped.update(sampler.cap_mementos({archive: selection[archive]}, budgets, seed=self.seed))
            except KeyError:  # no budget: the archive had no probe downloads
                failed_caps.append(archive)
        classifications = {}
        with tracer.span(CLASSIFY) if tracer else contextlib.nullcontext():
            for archive, mementos in capped.items():
                for m in mementos:
                    try:
                        classifications[m.urim] = client.fetch_raw_memento(m).classification
                    except RawAccessUnsupported:
                        # Reached only once cap_mementos admits archives
                        # without raw access: their mementos cannot be
                        # classified, so they leave the selection.
                        pass
        capped = {a: [m for m in ms if m.urim in classifications] for a, ms in capped.items()}
        pruned = sampler.prune_non_archival(capped, classifications, keep_quota=self.sizes.keep_quota)
        sampler.finalize(pruned)
        urir_by_key = {rec.urir.canonical_key: rec.urir.final_uri for rec in records}
        rows = sampler.rows_from_selection(pruned, urir_by_key, classifications)
        sampler.write_manifest(rows, out / "manifest.tsv")
        return {
            "selection": selection, "durations": durations, "capped": capped,
            "failed_caps": failed_caps, "rows": rows,
        }

    def account(self, r: Round, pipe: DiscoveryPipeline, transport, marks: dict[str, int]) -> None:
        """Requests, intake and operations counted from the transport log."""
        r.requests = len(transport.requests)
        r.decisions = pipe.scan_index
        published = [
            rec for rec in pipe.collection.records() if rec.provenance.value == "published_list"
        ]
        r.mementos = self.inputs.web.entries_served(transport.requests) + sum(
            len(self.inputs.published.get(rec.urir.final_uri, ())) for rec in published
        )
        fetches = sum(
            1 for method, uri in transport.requests[marks["method1"]:marks["method4"]]
            if method == "GET"
            and uri.startswith((AGGREGATOR.format(uri=""), PERMA_TIMEMAP.format(uri="")))
            and not _PAGE.search(uri)
        )
        r.attempted = r.decisions + fetches + len(published)

    def check_discovery(self, pipe: DiscoveryPipeline, out: Path, transport) -> list[str]:
        records = checks.load_records(out / "state.json")
        return (
            checks.check_selection([a.uri for a in pipe.accepted], self.inputs.expected_accepted)
            + checks.check_records(
                records, self.inputs.web.served(transport.requests), self.inputs.planted_archive,
                self.inputs.published,
            )
            + checks.check_totals(records, pipe.collection.totals(), out / "counts_method4.csv")
        )

    def check_sample(self, sample: dict, out: Path) -> list[str]:
        records = checks.load_records(out / "state.json")
        pools: dict[str, set[str]] = {}
        for record in records:
            for _stamp, urim, archive, _raw in record["mementos"]:
                pools.setdefault(archive, set()).add(urim)
        capped = {a: [m.urim for m in ms] for a, ms in sample["capped"].items()}
        manifest = checks.read_tsv(out / "manifest.tsv")
        return (
            checks.check_cap(
                pools, sample["durations"], capped,
                self.constraints.download_budget.total_seconds(), self.sizes.max_urims,
            )
            + checks.check_failed_caps(sample["failed_caps"], sample["selection"], NO_RAW)
            + checks.check_prune(
                capped, [row[2] for row in manifest], self.inputs.non_archival, self.sizes.keep_quota
            )
            + checks.check_reports(out / "manifest.tsv", out / "urirs.tsv", out / "reports")
        )


class DatasetResume(DatasetBuild):
    """Methods 1-4 as in dataset-build, Method 1 cut every ``CUT`` candidates.

    Each continuation is a fresh ``DiscoveryPipeline`` resuming from
    ``state.json``. The outputs must equal an uninterrupted reference run
    on the same inputs, made and checked once before the timed rounds.
    """

    name = "dataset-resume"
    CUT = 20

    def __init__(self, seed: int, work: Path, sizes: Sizes = Sizes()):
        super().__init__(seed, work, sizes)
        self.reference = work / "reference"
        # In a child, so that the reference run's memory never enters the
        # process the rounds are forked from.
        self.reference_problems = in_child(self.run_reference)

    def run_reference(self) -> list[str]:
        transport = self.inputs.web.transport()
        pipe = DiscoveryPipeline(self.config(self.reference), transport=transport, clock=fixed_clock)
        self.discover(pipe, Round(), {}, transport)
        return self.check_discovery(pipe, self.reference, transport)

    def round(self, out: Path, tracer=None) -> Round:
        r = Round()
        marks: dict[str, int] = {}
        transport = _transport(self.inputs.web, tracer)
        with timed(r):
            with stage(r, "method1"):
                while True:
                    pipe = DiscoveryPipeline(self.config(out), transport=transport, clock=fixed_clock)
                    if pipe.run(stop_after="method1", max_candidates=self.CUT) != "method1":
                        break
            marks["method1"] = len(transport.requests)
            for name in ("method2", "method3", "method4"):
                with stage(r, name):
                    pipe.run(resume=False, stop_after=None if name == "method4" else name)
                marks[name] = len(transport.requests)
        self.account(r, pipe, transport, marks)
        r.attempted += 1  # the resumed outputs as a whole
        r.problems = self.reference_problems + checks.check_same_outputs(out, self.reference)
        r.failed = min(len(r.problems), r.attempted)
        return r


WORKLOADS = {w.name: w for w in (ScanBackoff, DatasetBuild, DatasetResume)}
