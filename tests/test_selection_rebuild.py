"""``state.json`` stores Method 1's selection once, as the records that carry
a source tag. A pipeline that loads the state rebuilds ``accepted`` and its
``SelectionState`` from them, under the config's quota.

Each case runs on the four-method fixture corpus of ``test_pipeline`` and on
a ``tests/universe.py`` stream, whose duplicates, domain collisions and full
buckets exercise every selection condition.
"""

import json
from pathlib import Path

import pytest

import mementoset.pipeline as pipeline_module
from mementoset import PathBucket
from mementoset.pipeline import DiscoveryPipeline, RunConfig, _resource_to_dict
from mockserver import FakeTransport
from test_pipeline import FIXED_NOW, build_fixture_corpus, write_config
from universe import AGG_TEMPLATE, build_universe, install_universe


@pytest.fixture(params=["corpus", "universe"])
def make(request, tmp_path, monkeypatch):
    """A factory of fresh pipelines on one world: ``make(out, **config_changes)``."""
    if request.param == "corpus":
        request.getfixturevalue("corpus_cadence")
        fixtures_dir = tmp_path / "fixtures"
        build_fixture_corpus(fixtures_dir)
        base = RunConfig.from_file(write_config(tmp_path, fixtures_dir))
        transport = None
    else:
        universe = build_universe(seed=5, n=150)
        transport = FakeTransport()
        install_universe(universe, transport.add)
        source = tmp_path / "moz.txt"
        source.write_text("".join(f"{uri}\n" for uri, _ in universe.candidates))
        base = RunConfig(
            out_dir=tmp_path / "out",
            aggregator_endpoint=AGG_TEMPLATE,
            moz_path=source,
            quota_per_bucket=6,
            min_request_interval=0.0,
            retries=0,
        )
        monkeypatch.setattr(pipeline_module, "CHECKPOINT_EVERY", 5)

    def pipeline(out, **changes):
        config = RunConfig(**{**vars(base), "out_dir": tmp_path / out, **changes})
        return DiscoveryPipeline(config, transport=transport, clock=lambda: FIXED_NOW)

    return pipeline


def selection(pipeline):
    s = pipeline.selection_state
    return pipeline.accepted, s.chosen, s.chosen_domains, s.bucket_counts


def write_previous_format(pipeline):
    """Rewrite the state file as earlier formats had it: the selection
    stored twice more beside the records, as ``accepted`` and
    ``selection_state``, and the per-stage tables as ``method_tables``."""
    payload = json.loads(pipeline.state_path.read_text())
    payload["method_tables"] = {"method1": {"web.archive.org": [1, 1]}}
    s = pipeline.selection_state
    payload["accepted"] = [_resource_to_dict(r) for r in pipeline.accepted]
    payload["selection_state"] = {
        "quota_per_bucket": s.quota_per_bucket,
        "chosen": sorted(s.chosen),
        "chosen_domains": {b.value: sorted(d) for b, d in s.chosen_domains.items()},
        "bucket_counts": {b.value: n for b, n in s.bucket_counts.items()},
    }
    pipeline.state_path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def outputs(out):
    """Every file of a run's directory, the state file parsed without the
    keys of earlier formats (a run resumed at ``done`` leaves it as is)."""
    files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    state = json.loads(files.pop(Path("state.json")))
    for key in ("accepted", "selection_state", "method_tables"):
        state.pop(key, None)
    return files, state


def cut(make, out="cut"):
    """A pipeline cut halfway through Method 1's stream."""
    writer = make(out)
    assert writer.run(max_candidates=len(writer._stream()) // 2) == "method1"
    assert writer.accepted
    return writer


def done(make, out="done"):
    writer = make(out)
    assert writer.run() == "done"
    return writer


@pytest.mark.parametrize("stop", [cut, done])
class TestRebuild:
    def test_loaded_selection_equals_the_writers(self, make, stop):
        writer = stop(make)
        payload = json.loads(writer.state_path.read_text())
        assert sorted(payload) == ["records", "scan_index", "stage"]
        reader = make(stop.__name__)
        assert reader.load_state()
        assert selection(reader) == selection(writer)

    def test_previous_format_loads_and_resumes_to_identical_outputs(self, make, stop):
        reference = done(make, "reference")
        writer = stop(make)
        expected = selection(writer)
        write_previous_format(writer)
        reader = make(stop.__name__)
        assert reader.load_state()
        assert selection(reader) == expected
        assert make(stop.__name__).run() == "done"
        assert outputs(writer.config.out_dir) == outputs(reference.config.out_dir)


def test_lowered_quota_leaves_a_bucket_full(make):
    writer = cut(make)
    counts = writer.selection_state.bucket_counts
    bucket = max(PathBucket, key=counts.get)
    assert counts[bucket] > 1
    reader = make("cut", quota_per_bucket=counts[bucket] - 1)
    assert reader.load_state()
    assert reader.selection_state.bucket_counts == counts
    assert reader.selection_state.bucket_full(bucket)
    reader.run(stop_after="method1")
    assert reader.selection_state.bucket_counts[bucket] == counts[bucket]
