"""The state journal: ``save_state`` appends what changed since the last save
to ``state.jsonl`` and writes the ``state.json`` snapshot only at stage
boundaries and when ``run`` returns.

A run stopped anywhere, mid-append or mid-snapshot included, must resume
to the state of an uninterrupted run, and a checkpoint must write a number
of bytes that does not grow with the records already stored.
"""

import itertools
import json
import os

import pytest

from mementoset import ParseError
from mementoset.cli import main
from mementoset.client import FixtureTransport
from mementoset.pipeline import DiscoveryPipeline, RunConfig, _record_to_dict
from test_lookahead import scan_config, universe_transport
from test_pipeline import FIXED_NOW, build_fixture_corpus, write_config
from universe import build_universe


class Crash(BaseException):
    """Stands for the process being killed: no handler in the package
    catches it, so the run stops where the request was made."""


class CrashingTransport:
    """Serves ``inner``'s responses, and raises ``Crash`` in place of the
    request after the first ``after`` (never, when None)."""

    def __init__(self, inner, after=None):
        self.inner = inner
        self.after = after
        self.sent = 0

    def request(self, method, uri):
        if self.sent == self.after:
            raise Crash
        self.sent += 1
        return self.inner.request(method, uri)


@pytest.fixture()
def corpus(tmp_path):
    fixtures = tmp_path / "fixtures"
    build_fixture_corpus(fixtures)
    return fixtures, write_config(tmp_path, fixtures)


def encoded(payload) -> int:
    """The length of ``payload`` as a state file line, its newline included."""
    return len(json.dumps(payload, sort_keys=True, separators=(",", ":"))) + 1


def pipeline(corpus, out, after=None, checkpoint_every=None):
    fixtures, config_path = corpus
    config = RunConfig.from_file(config_path)
    config.out_dir = config.out_dir.parent / out
    if checkpoint_every is not None:
        config.checkpoint_every = checkpoint_every
    transport = CrashingTransport(FixtureTransport(fixtures), after)
    return DiscoveryPipeline(config, transport=transport, clock=lambda: FIXED_NOW)


def reference(corpus):
    """An uninterrupted run: its final state and its request count."""
    whole = pipeline(corpus, "reference")
    assert whole.run() == "done"
    assert not whole.journal_path.exists()
    return whole.state_path.read_bytes(), whole.client.transport.sent


def resumes_to(corpus, out, expected):
    resumed = pipeline(corpus, out)
    assert resumed.run() == "done"
    assert resumed.state_path.read_bytes() == expected
    assert not resumed.journal_path.exists()


def crashed(corpus, out, after, checkpoint_every=None):
    cut = pipeline(corpus, out, after, checkpoint_every)
    with pytest.raises(Crash):
        cut.run()
    return cut


def test_a_crash_at_any_request_resumes_to_the_uninterrupted_state(corpus):
    expected, requests = reference(corpus)
    for after in range(requests):
        crashed(corpus, f"crash{after}", after)
        resumes_to(corpus, f"crash{after}", expected)


def test_a_crash_after_any_save_resumes_to_the_uninterrupted_state(corpus):
    # In this corpus the archive that grows in each of Methods 2-4 makes
    # the stage's last requests, so only a crash right after its save
    # leaves that save in the journal, as merged records to replay.
    expected, _ = reference(corpus)
    journaled = set()
    for saves in itertools.count(1):
        cut = pipeline(corpus, f"crash{saves}")
        save, done = cut.save_state, []

        def crashing():
            save()
            done.append(cut.stage)
            if len(done) == saves:
                raise Crash

        cut.save_state = crashing
        try:
            cut.run()
        except Crash:
            pass
        if len(done) < saves:
            break  # the run made fewer saves: it crashed after each
        if cut.journal_path.exists():
            journaled.add(cut.stage)
        loaded = pipeline(corpus, f"crash{saves}")
        assert loaded.load_state()
        assert (loaded.stage, loaded.scan_index) == (cut.stage, cut.scan_index)
        assert list(loaded.collection.records()) == list(cut.collection.records())
        resumes_to(corpus, f"crash{saves}", expected)
    assert journaled == {"method1", "method2", "method3", "method4"}


def test_a_truncated_journal_drops_its_last_save_and_resumes(corpus):
    expected, _ = reference(corpus)
    # Six requests in, candidates 1-3 are committed: the save at 1 wrote
    # the snapshot, those at 2 and 3 a record line and a cursor line each.
    whole = crashed(corpus, "whole", 6, checkpoint_every=1).journal_path.read_bytes()
    lines = whole.splitlines(keepends=True)
    assert [json.loads(line).get("scan_index") for line in lines] == [None, 2, None, 3]
    cursor = len(whole) - len(lines[-1])
    record = cursor - len(lines[-2])
    for size in (record + 10, cursor, cursor + 1, cursor + len(lines[-1]) // 2, len(whole) - 1):
        out = f"torn{size}"
        crashed(corpus, out, 6, checkpoint_every=1).journal_path.write_bytes(whole[:size])
        loaded = pipeline(corpus, out)
        assert loaded.load_state()
        assert loaded.scan_index == 2
        assert json.loads(lines[-2])["urir"]["canonical_key"] not in loaded.collection
        loaded.save_state()  # a save after a torn one is not appended to it
        assert not loaded.journal_path.exists()
        resumes_to(corpus, out, expected)


def test_a_snapshot_replace_that_fails_after_the_journal_went_resumes(corpus, monkeypatch):
    expected, _ = reference(corpus)
    replace = os.replace
    for writes in itertools.count(1):  # the run's snapshot writes, each failed once
        cut = pipeline(corpus, f"replace{writes}")
        journal_present = []

        def failing(src, dst):
            journal_present.append(cut.journal_path.exists())
            if len(journal_present) == writes:
                raise OSError("no space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        try:
            cut.run()
        except OSError:
            pass
        monkeypatch.setattr(os, "replace", replace)
        if len(journal_present) < writes:
            break  # the run made fewer writes: each has failed once
        assert journal_present == [False] * writes
        resumes_to(corpus, f"replace{writes}", expected)
    assert writes > 5


@pytest.fixture()
def broken_journal(corpus):
    """A config whose run was stopped with a journal, its first line garbled."""
    crashed(corpus, "out", 6, checkpoint_every=1)
    journal = pipeline(corpus, "out").journal_path
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b'{"urir": \n' + b"".join(lines[1:]))
    return corpus[1], journal


def test_a_garbled_line_before_the_last_is_a_parse_error(corpus, broken_journal):
    _, journal = broken_journal
    with pytest.raises(ParseError, match=f"^{journal} does not decode: .* \\(at offset 1\\)$"):
        pipeline(corpus, "out").load_state()


def test_discover_exits_1_on_a_garbled_journal(broken_journal, capsys):
    config_path, journal = broken_journal
    capsys.readouterr()
    assert main(["discover", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {journal} does not decode:")


def test_each_checkpoint_appends_only_what_changed(tmp_path):
    universe = build_universe(seed=5, n=260)
    transport = universe_transport(universe)
    config = scan_config(tmp_path, universe, "out", retries=0)
    config.checkpoint_every = 25

    def fresh():
        return DiscoveryPipeline(config, transport=transport, clock=lambda: FIXED_NOW)

    assert fresh().run(max_candidates=10) == "method1"  # a snapshot to append to
    scan = fresh()
    assert scan.load_state()
    save = scan.save_state
    appends = {}
    stored = {r.urir.canonical_key: r for r in scan.collection.records()}

    def measured():
        nonlocal stored
        changed = [r for r in scan.collection.records() if stored.get(r.urir.canonical_key) != r]
        before = scan.journal_path.stat().st_size if scan.journal_path.exists() else 0
        save()
        if scan.journal_path.exists():
            cursor = {"scan_index": scan.scan_index, "stage": scan.stage}
            bound = sum(encoded(_record_to_dict(r)) for r in changed) + encoded(cursor)
            appended = scan.journal_path.stat().st_size - before
            appends[scan.scan_index] = (appended, bound, len(changed))
        stored = {r.urir.canonical_key: r for r in scan.collection.records()}

    scan.save_state = measured
    assert scan.run(stop_after="method1", max_candidates=200) == "method1"
    assert sorted(appends) == list(range(25, 201, 25))
    for appended, bound, changed in appends.values():
        assert 0 < appended <= bound
        assert changed <= config.checkpoint_every
