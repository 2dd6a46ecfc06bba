"""The benchmark's checkers accept a real small build and reject corruptions.

A tiny dataset build runs once through the workload's own steps; each
test then corrupts one output the way a faulty program could and expects
the matching checker to report it.
"""

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE), str(HERE.parent / "tests")]

import pytest  # noqa: E402

import mementoset.cli as cli  # noqa: E402
import mementoset.linkformat as linkformat  # noqa: E402
from mementoset.pipeline import DiscoveryPipeline  # noqa: E402

import checks  # noqa: E402
from inputs import NO_RAW, Sizes  # noqa: E402
from tracing import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import DatasetBuild, Round, fixed_clock  # noqa: E402

TINY = Sizes(
    fresh=40, fresh_redirect=8, empty=6, variant=6, alias=6, collider=8, dead=6,
    timemap_sizes=((300, 2), (60, 6), (12, 40)), page_size=100, page_overlap=5,
    min_urirs=8, max_urims=20, keep_quota=1,
)


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    workload = DatasetBuild(3, work, TINY)
    out = work / "out"
    transport = workload.inputs.web.transport()
    pipe = DiscoveryPipeline(workload.config(out), transport=transport, clock=fixed_clock)
    workload.discover(pipe, Round(), {}, transport)
    sample = workload.sample(pipe, out, None)
    cli.main(["stats", "--manifest", str(out / "manifest.tsv"), "--urirs", str(out / "urirs.tsv"),
              "--out", str(out / "reports")])
    return workload, pipe, transport, sample, out


def test_untouched_build_passes(build):
    workload, pipe, transport, sample, out = build
    assert workload.check_discovery(pipe, out, transport) == []
    assert workload.check_sample(sample, out) == []
    assert sorted(sample["failed_caps"]) == ["archive.is", "webcitation.org"]


def test_dropped_accepted_urir_is_rejected(build):
    workload, pipe, *_ = build
    accepted = [a.uri for a in pipe.accepted]
    del accepted[len(accepted) // 2]
    assert checks.check_selection(accepted, workload.inputs.expected_accepted)


def _records_and_target(build):
    workload, _pipe, transport, _sample, out = build
    records = checks.load_records(out / "state.json")
    record = next(r for r in records if len(r["mementos"]) >= 2)
    return workload, transport, records, record


def test_second_memento_in_archive_year_is_rejected(build):
    workload, transport, records, record = _records_and_target(build)
    stamp, urim, archive, raw = record["mementos"][0]
    # A later capture in the same archive and year, as a faulty filter would keep.
    later = stamp[:4] + "1231235959"
    record["mementos"].append([later, urim.replace(stamp, later), archive, raw])
    planted = {**workload.inputs.planted_archive, urim.replace(stamp, later): archive}
    served = workload.inputs.web.served(transport.requests)
    problems = checks.check_records(records, served, planted, workload.inputs.published)
    assert any(f"mementos for {archive} in {stamp[:4]}" in p for p in problems)


def test_wrong_archive_is_rejected(build):
    workload, transport, records, record = _records_and_target(build)
    memento = record["mementos"][0]
    memento[2] = "webharvest.gov" if memento[2] != "webharvest.gov" else "arquivo.pt"
    problems = checks.check_records(records, workload.inputs.web.served(transport.requests),
                                    workload.inputs.planted_archive, workload.inputs.published)
    assert any("attributed to" in p for p in problems)


def test_miscounted_totals_are_rejected(build, tmp_path):
    _workload, pipe, _transport, _sample, out = build
    records = checks.load_records(out / "state.json")
    counts = tmp_path / "counts_method4.csv"
    lines = (out / "counts_method4.csv").read_text("utf-8").splitlines()
    archive, urims, urirs = lines[1].split(",")
    lines[1] = f"{archive},{int(urims) + 1},{urirs}"
    counts.write_text("\n".join(lines) + "\n", "utf-8")
    assert checks.check_totals(records, pipe.collection.totals(), counts)


def test_cap_off_by_one_is_rejected(build):
    workload, _pipe, _transport, sample, out = build
    pools = {}
    for record in checks.load_records(out / "state.json"):
        for _stamp, urim, archive, _raw in record["mementos"]:
            pools.setdefault(archive, set()).add(urim)
    capped = {a: [m.urim for m in ms] for a, ms in sample["capped"].items()}
    archive = max(capped, key=lambda a: len(capped[a]))
    capped[archive] = capped[archive][:-1]
    budget = workload.constraints.download_budget.total_seconds()
    assert checks.check_cap(pools, sample["durations"], capped, budget, TINY.max_urims)


def test_uncapped_archive_is_rejected(build):
    workload, _pipe, _transport, sample, out = build
    pools = {}
    for record in checks.load_records(out / "state.json"):
        for _stamp, urim, archive, _raw in record["mementos"]:
            pools.setdefault(archive, set()).add(urim)
    capped = {a: [m.urim for m in ms] for a, ms in sample["capped"].items()}
    budget = workload.constraints.download_budget.total_seconds()
    assert checks.check_cap(pools, sample["durations"], capped, budget, TINY.max_urims) == []
    # An archive with probe durations that silently drops out of the caps.
    del capped["arquivo.pt"]
    assert checks.check_cap(pools, sample["durations"], capped, budget, TINY.max_urims)


def test_unexpected_failed_cap_is_rejected(build):
    workload, _pipe, _transport, sample, _out = build
    failed = sample["failed_caps"]
    assert checks.check_failed_caps(failed, sample["selection"], NO_RAW) == []
    assert checks.check_failed_caps([*failed, "arquivo.pt"], sample["selection"], NO_RAW)
    assert checks.check_failed_caps(failed[:1], sample["selection"], NO_RAW)


def test_non_archival_beyond_quota_is_rejected(build):
    workload, _pipe, _transport, sample, out = build
    capped = {a: [m.urim for m in ms] for a, ms in sample["capped"].items()}
    manifest = [row[2] for row in checks.read_tsv(out / "manifest.tsv")]
    pruned = [u for ms in capped.values() for u in ms
              if u in workload.inputs.non_archival and u not in manifest]
    assert pruned, "the tiny build should prune at least one non-archival memento"
    assert checks.check_prune(capped, manifest, workload.inputs.non_archival, TINY.keep_quota) == []
    assert checks.check_prune(capped, manifest + pruned[:1], workload.inputs.non_archival,
                              TINY.keep_quota)


def test_report_total_off_by_one_is_rejected(build, tmp_path):
    *_, out = build
    reports = tmp_path / "reports"
    shutil.copytree(out / "reports", reports)
    path = reports / "archive-totals.csv"
    lines = path.read_text("utf-8").splitlines()
    label, urirs, urims = lines[-1].split(",")
    lines[-1] = f"{label},{urirs},{int(urims) + 1}"
    path.write_text("\n".join(lines) + "\n", "utf-8")
    assert checks.check_reports(out / "manifest.tsv", out / "urirs.tsv", out / "reports") == []
    assert checks.check_reports(out / "manifest.tsv", out / "urirs.tsv", reports)


def test_changed_resume_output_is_rejected(build, tmp_path):
    *_, out = build
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    assert checks.check_same_outputs(copy, out) == []
    (copy / "urirs.tsv").write_text((out / "urirs.tsv").read_text("utf-8") + "\n", "utf-8")
    assert checks.check_same_outputs(copy, out) == ["urirs.tsv differs from the uninterrupted run"]


def test_traced_round_reports_every_layer_and_unwraps(tmp_path):
    workload = DatasetBuild(4, tmp_path, TINY)
    original = linkformat.parse_link_entries
    tracer = Tracer()
    tracer.install()
    try:
        out = tmp_path / "out"
        out.mkdir()
        r = workload.round(out, tracer)
    finally:
        tracer.uninstall()
    assert linkformat.parse_link_entries is original
    assert r.problems == []
    metrics = layer_metrics(tracer.spans, r.run_s, r.run_s, r.t0, r.kept_ratio)
    assert set(metrics) == set(LAYER_UNITS)
    assert metrics["discovery.screened"] == TINY.candidates
    assert metrics["discovery.accepted"] == TINY.accepted
    assert metrics["pipeline.save_state_calls"] > 0 and metrics["linkformat.entries"] > 0
