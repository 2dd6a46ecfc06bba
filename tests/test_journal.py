"""The state journal: ``save_state`` appends what changed since the last save
to ``state.jsonl`` and writes the ``state.json`` snapshot only at stage
boundaries. A Method 1 cut after ``max_candidates`` appends like any other
checkpoint.

A run stopped anywhere, mid-append or mid-snapshot included, must resume
to the state of an uninterrupted run, and a checkpoint must write a number
of bytes that does not grow with the records already stored. Its CPU must
not grow with them either: each stored record's JSON text is kept while the
collection holds that record, so a checkpoint encodes only the records that
changed, and a loaded record is encoded once, at the next snapshot. The
encoder the state files were written with before, ``reference_dumps``
below, holds every file to the same bytes.
"""

import errno
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mementoset.pipeline as pipeline_module
from mementoset import Classification, ParseError, Provenance
from mementoset.cli import main
from mementoset.client import FixtureTransport
from mementoset.linkformat import TimeMapReducer
from mementoset.model import raw_variant
from mementoset.pipeline import STAGES, DiscoveryPipeline, RunConfig, _record_to_dict
from mementoset.sampler import group_by_archive, read_manifest, rows_from_selection, write_manifest
from mockserver import FakeTransport
from test_cli import child_env
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
def corpus(tmp_path, corpus_cadence):
    fixtures = tmp_path / "fixtures"
    build_fixture_corpus(fixtures)
    return fixtures, write_config(tmp_path, fixtures)


def reference_dumps(payload) -> str:
    """A state file's text as the encoder wrote it before record texts were
    kept: ``state.json`` is the whole payload, a journal line one record
    (``_record_to_dict``) or the cursor."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encoded(payload) -> int:
    """The length of ``payload`` as a state file line, its newline included."""
    return len(reference_dumps(payload)) + 1


def pipeline(corpus, out, after=None, transport=None):
    fixtures, config_path = corpus
    config = RunConfig.from_file(config_path)
    config.out_dir = config.out_dir.parent / out
    if transport is None:
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
    """A run that crashes after ``after`` requests, saving Method 1 every
    ``checkpoint_every`` candidates (by default, the corpus cadence)."""
    cut = pipeline(corpus, out, after)
    cadence = checkpoint_every or pipeline_module.CHECKPOINT_EVERY
    with pytest.raises(Crash), mock.patch.object(pipeline_module, "CHECKPOINT_EVERY", cadence):
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


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_run_cut_every_k_candidates_resumes_from_a_crash_at_any_request(corpus, k):
    """Method 1 cut every ``k`` candidates, each continuation a fresh
    pipeline: a cut appends to the journal like any checkpoint, and a run
    crashed at any request of the cut sequence resumes to the
    uninterrupted state."""
    expected, _ = reference(corpus)
    fixtures, _ = corpus
    sent = CrashingTransport(FixtureTransport(fixtures))  # shared by the continuations
    cuts = 0
    while (cut := pipeline(corpus, "cut", transport=sent)).run(max_candidates=k) == "method1":
        cuts += 1
        # Each save appends but the run's first, which wrote the snapshot,
        # and a cut on a checkpoint, which has nothing left to append.
        assert cut.journal_path.exists() == (cut.scan_index > min(k, pipeline_module.CHECKPOINT_EVERY))
        loaded = pipeline(corpus, "cut")
        assert loaded.load_state()
        assert held(loaded) == held(cut)
    assert cuts == (len(cut._stream()) - 1) // k
    assert cut.state_path.read_bytes() == expected
    assert not cut.journal_path.exists()
    for after in range(sent.sent):
        out = f"crash{after}"
        crashing = CrashingTransport(FixtureTransport(fixtures), after)
        with pytest.raises(Crash):
            while pipeline(corpus, out, transport=crashing).run(max_candidates=k) == "method1":
                pass
        resumes_to(corpus, out, expected)


def test_a_cut_on_a_checkpoint_appends_no_second_cursor_line(corpus):
    expected, _ = reference(corpus)
    for _ in range(2):
        cut = pipeline(corpus, "cut")
        assert cut.run(max_candidates=2) == "method1"
    # The first run's checkpoint at 2 wrote the snapshot, and its cut
    # nothing; the second run's checkpoint at 4 appended its records and a
    # cursor line, and its cut nothing.
    entries = [json.loads(line) for line in cut.journal_path.read_text("utf-8").splitlines()]
    assert [entry for entry in entries if "stage" in entry] == [{"scan_index": 4, "stage": "method1"}]
    resumes_to(corpus, "cut", expected)


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


# -- what a state file may hold ------------------------------------------------

# Memento entries that are not [stamp, URI-M, archive or null, null or the
# raw URI-M string of an earlier version]. The object was once read as its
# four keys.
URIM = "http://web.archive.org/web/20120101000000/http://a.example/"
BAD_MEMENTOS = {
    "an object": {"20120101000000": 0, URIM: 0, "web.archive.org": 0, "x": 0},
    "three items": ["20120101000000", URIM, "web.archive.org"],
    "five items": ["20120101000000", URIM, "web.archive.org", None, None],
    "a URI-M that is a number": ["20120101000000", 5, "web.archive.org", None],
    "an archive that is a bool": ["20120101000000", URIM, True, None],
    "a null archive": ["20120101000000", URIM, None, None],
    "a raw URI-M that is a list": ["20120101000000", URIM, "web.archive.org", [URIM]],
    "a raw URI-M that is a number": ["20120101000000", URIM, "web.archive.org", 5],
    "a raw URI-M that is a bool": ["20120101000000", URIM, "web.archive.org", False],
    "a stamp that is a list": [list("20120101000000"), URIM, "web.archive.org", None],
}
BAD_FIELDS = [
    ("uri", 5),
    ("canonical_key", None),
    ("final_uri", ["http://a.example/"]),
    ("source", 5),
    ("live_status", True),
    ("live_status", "200"),
    ("live_status", 99),
    ("live_status", 1000),
    ("live_status", -5),
]


def fails_to_load(tmp_path, file, spoil):
    """Store a snapshot of one record and a journal of one more, apply
    ``spoil`` to the first record in ``file``, and expect the load to raise
    a ParseError naming the file, and the line in the journal."""
    writer = offline(tmp_path)
    grow(writer, URIRS[0], [2001], "moz")
    writer.save_state()
    grow(writer, URIRS[1], [2002], "moz")
    writer.save_state()
    if file == "state.json":
        payload = json.loads(writer.state_path.read_text())
        spoil(payload["records"][0])
        writer.state_path.write_text(reference_dumps(payload))
        path, where = writer.state_path, ""
    else:
        lines = [json.loads(line) for line in writer.journal_path.read_text().splitlines()]
        spoil(lines[0])
        writer.journal_path.write_text("".join(reference_dumps(line) + "\n" for line in lines))
        path, where = writer.journal_path, " \\(at offset 1\\)"
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} does not decode: .*{where}$"):
        offline(tmp_path).load_state()


@pytest.mark.parametrize("file", ["state.json", "state.jsonl"])
@pytest.mark.parametrize("memento", BAD_MEMENTOS)
def test_a_memento_that_is_not_an_array_of_four_is_a_parse_error(tmp_path, file, memento):
    def spoil(record):
        record["mementos"][0] = BAD_MEMENTOS[memento]

    fails_to_load(tmp_path, file, spoil)


@pytest.mark.parametrize("file", ["state.json", "state.jsonl"])
@pytest.mark.parametrize("field, value", BAD_FIELDS)
def test_a_urir_field_of_the_wrong_type_is_a_parse_error(tmp_path, file, field, value):
    def spoil(record):
        record["urir"][field] = value

    fails_to_load(tmp_path, file, spoil)


@pytest.mark.parametrize("status", [None, 100, 999])
def test_a_live_status_in_http_clients_range_loads(tmp_path, status):
    writer = offline(tmp_path)
    record = grow(offline(tmp_path / "scratch"), URIRS[0], [2001], "moz")
    writer.collection.add(replace(record, urir=replace(record.urir, live_status=status)))
    writer.save_state()
    loaded = offline(tmp_path)
    assert loaded.load_state()
    assert [r.urir.live_status for r in loaded.collection.records()] == [status]


TAB_URIM = "http://web.archive.org/web/20010101000000/http://a.com/x{}y"


@pytest.mark.parametrize("file", ["state.json", "state.jsonl"])
@pytest.mark.parametrize("char", ["\t", "\r", "\n"])
def test_a_stored_urim_holding_a_tab_or_line_break_is_dropped(tmp_path, file, char):
    writer = offline(tmp_path)
    grow(writer, URIRS[0], [2001], "moz")
    writer.save_state()
    grow(writer, URIRS[1], [2002], "moz")
    writer.save_state()
    path = writer.state_path if file == "state.json" else writer.journal_path
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    record = lines[0]["records"][0] if file == "state.json" else lines[0]
    record["mementos"].append(["20010101000000", TAB_URIM.format(char), "web.archive.org", None])
    path.write_text("".join(reference_dumps(line) + "\n" for line in lines))
    loaded = offline(tmp_path)
    assert loaded.load_state()
    assert held(loaded) == held(writer)
    loaded.stage = "method2"
    loaded.save_state()  # the next snapshot: the record as loaded
    assert TAB_URIM.format(char) not in loaded.state_path.read_text()
    assert not loaded.journal_path.exists()


def test_a_resumed_runs_manifest_round_trips(corpus, tmp_path):
    """A state whose every record holds one more memento, of a year of its
    own, under a URI-M with a tab resumes to the uninterrupted state, and
    the manifest written from the resumed collection reads back."""
    expected, _ = reference(corpus)
    assert pipeline(corpus, "out").run(stop_after="method1") == "method2"
    state = pipeline(corpus, "out").state_path
    payload = json.loads(state.read_text())
    for record in payload["records"]:
        stamp, urim, archive_id, _ = record["mementos"][0]
        record["mementos"].append(["19990101000000", urim.replace(stamp, "19990101000000") + "\tx", archive_id, None])
    state.write_text(reference_dumps(payload))
    resumed = pipeline(corpus, "out")
    assert resumed.run() == "done"
    assert resumed.state_path.read_bytes() == expected
    records = list(resumed.collection.records())
    selection = group_by_archive(records)
    classifications = {m.urim: Classification.ARCHIVAL_OK for ms in selection.values() for m in ms}
    urir_by_key = {r.urir.canonical_key: r.urir.final_uri for r in records}
    rows = rows_from_selection(selection, urir_by_key, classifications)
    write_manifest(rows, tmp_path / "manifest.tsv")
    assert rows and read_manifest(tmp_path / "manifest.tsv") == rows


def test_discover_exits_1_on_a_mistyped_record(corpus, capsys):
    done = pipeline(corpus, "out")
    assert done.run() == "done"
    payload = json.loads(done.state_path.read_text())
    payload["records"][0]["urir"]["uri"] = 5
    done.state_path.write_text(reference_dumps(payload))
    urirs = done.state_path.with_name("urirs.tsv")
    urirs.unlink()
    capsys.readouterr()
    assert main(["discover", "--config", str(corpus[1])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {done.state_path} does not decode: the URI-R's 'uri' has the wrong type: 5")
    assert not urirs.exists()


def test_discover_exits_1_on_a_memento_without_an_archive(corpus):
    done = pipeline(corpus, "out")
    assert done.run() == "done"
    payload = json.loads(done.state_path.read_text())
    payload["records"][0]["mementos"][0][2] = None
    done.state_path.write_text(reference_dumps(payload))
    run = subprocess.run(
        [sys.executable, "-m", "mementoset.cli", "discover", "--config", str(corpus[1])],
        env=child_env(), capture_output=True, text=True,
    )
    assert run.returncode == 1
    assert run.stderr.startswith(f"error: {done.state_path} does not decode: a memento is not")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


# -- the raw URI-M column ------------------------------------------------------


def entries_of(payload: dict):
    """The memento entries of a decoded state, journal record or cursor."""
    return [m for d in payload.get("records", [payload]) for m in d.get("mementos", [])]


def memento_entries(text: str):
    """Every memento entry of a state file's text, each journal line's too."""
    return [m for line in text.splitlines() for m in entries_of(json.loads(line))]


def with_raw_urims(text: str, registry) -> str:
    """A state file's text as versions that stored the raw URI-M wrote it:
    column 4 of each memento entry the Wayback variant of its URI-M, or null
    when its archive has no raw access."""
    lines = [json.loads(line) for line in text.splitlines()]
    for m in (m for line in lines for m in entries_of(line)):
        archive = None if m[2] is None else registry.get(m[2])
        m[3] = None if archive is None else raw_variant(m[1], archive.raw_scheme)
    return "".join(reference_dumps(line) + "\n" for line in lines)


def test_a_fresh_runs_state_files_hold_no_raw_uri(corpus):
    expected, _ = reference(corpus)
    cut = crashed(corpus, "out", 6, checkpoint_every=1)
    for text in (expected.decode(), cut.state_path.read_text(), cut.journal_path.read_text()):
        entries = memento_entries(text)
        assert entries and all(m[3] is None for m in entries)
        assert "id_/" not in text


@pytest.mark.parametrize("crash", [None, 6], ids=["state.json", "state.jsonl"])
def test_a_state_with_raw_uris_loads_and_resumes_as_one_without(corpus, crash):
    """A stage-boundary snapshot, or a snapshot and journal left by a crash,
    rewritten as an earlier version wrote them: each loads to the same
    collection and cursor, and resumes to the uninterrupted state."""
    expected, _ = reference(corpus)
    if crash is None:
        assert pipeline(corpus, "out").run(stop_after="method1") == "method2"
    else:
        crashed(corpus, "out", crash, checkpoint_every=1)
    current = pipeline(corpus, "out")
    assert current.load_state()
    files = [current.state_path, *([current.journal_path] if crash else [])]
    assert all(path.exists() for path in files)
    for path in files:
        earlier = with_raw_urims(path.read_text(), current.registry)
        assert any(m[3] and "id_/" in m[3] for m in memento_entries(earlier))
        path.write_text(earlier)
    loaded = pipeline(corpus, "out")
    assert loaded.load_state()
    assert held(loaded) == held(current)
    resumes_to(corpus, "out", expected)


def test_each_checkpoint_appends_only_what_changed(tmp_path, monkeypatch):
    universe = build_universe(seed=5, n=260)
    transport = universe_transport(universe)
    config = scan_config(tmp_path, universe, "out", retries=0)
    monkeypatch.setattr(pipeline_module, "CHECKPOINT_EVERY", 25)

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
    assert sorted(appends) == [*range(25, 201, 25), 210]  # the checkpoints, then the cut
    for appended, bound, changed in appends.values():
        assert 0 < appended <= bound
        assert changed <= pipeline_module.CHECKPOINT_EVERY


# -- record texts: what a checkpoint encodes -----------------------------------

# URI-Rs whose texts escape: non-ASCII hosts and paths, a character outside
# the BMP, a quote and a backslash.
URIRS = (
    "http://a.example/",
    "http://b.example/pfad/ä?q=é",
    "http://例え.jp/パス",
    "http://c.example/😀",
    'http://d.example/a"b\\c',
)
SOURCES = (None, "moz", "wahr-é")


def offline(out: Path) -> DiscoveryPipeline:
    """A pipeline that sends no request, its records stored by ``grow``."""
    return DiscoveryPipeline(RunConfig(out_dir=out), transport=FakeTransport(), clock=lambda: FIXED_NOW)


def grow(pipe: DiscoveryPipeline, uri: str, years, source=None):
    """Reduce captures of ``uri`` in ``years`` with the record stored under
    its key, as Methods 1-4 do, and store the result: a new record, or one
    that replaces the stored record. ``source`` tags a new record as
    Method 1's."""
    reducer = TimeMapReducer(pipe.registry, pipe.collection.get)
    for year in years:
        reducer.offer(datetime(year, 1, 2, 3, 4, 5, tzinfo=timezone.utc), f"http://web.archive.org/web/{year}0102030405/{uri}")
        reducer.offer(datetime(year, 6, 1, tzinfo=timezone.utc), f"http://arquivo.pt/wayback/{year}0601000000/{uri}")
    record = reducer.record(uri, Provenance.AGGREGATOR, FIXED_NOW)
    if source is not None:
        record = replace(record, urir=replace(record.urir, source=source, live_status=200))
    return pipe.collection.add(record)


def checked_save(pipe: DiscoveryPipeline) -> None:
    """``pipe.save_state()``, and what it wrote held to ``reference_dumps``
    byte for byte: the whole state in a snapshot, or each changed record
    and the cursor appended to the journal, or nothing when no record and
    not the cursor changed since the last save."""
    journal = pipe.journal_path.read_bytes() if pipe.journal_path.exists() else b""
    take, taken = pipe.collection.take_changed, []

    def spied():  # the changed records, as the save takes them
        taken[:] = take()
        return taken

    pipe.collection.take_changed = spied
    try:
        pipe.save_state()
    finally:
        del pipe.collection.take_changed
    cursor = {"stage": pipe.stage, "scan_index": pipe.scan_index}
    if pipe.journal_path.exists():
        lines = [reference_dumps(_record_to_dict(r)) for r in taken] + [reference_dumps(cursor)]
        if not taken and journal.endswith(f"{lines[-1]}\n".encode()):
            lines = []  # nothing changed since the cursor last saved: nothing appended
        assert pipe.journal_path.read_bytes() == journal + "".join(f"{line}\n" for line in lines).encode()
    else:
        records = [_record_to_dict(r) for r in pipe.collection.records()]
        assert pipe.state_path.read_bytes() == reference_dumps({**cursor, "records": records}).encode()


def held(pipe: DiscoveryPipeline):
    return pipe.stage, pipe.scan_index, list(pipe.collection.records())


STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("grow"), st.sampled_from(URIRS),
            st.lists(st.integers(1996, 2024), max_size=3), st.sampled_from(SOURCES),
        ),
        st.sampled_from([("save",), ("scan",), ("stage",), ("load",)]),
    ),
    max_size=30,
)


@given(STEPS)
def test_every_state_file_is_the_reference_encoders(steps):
    """Runs of adds, replacements through a reducer merge, saves, stage
    ends and fresh pipelines that load the snapshot and replay the journal:
    each ``state.json`` and each journal line is what the previous encoder
    wrote, and each load gives back the state last saved."""
    with tempfile.TemporaryDirectory() as out:
        pipe = offline(Path(out))
        saved = None
        for step, *args in steps:
            if step == "grow":
                grow(pipe, *args)
            elif step == "scan":
                pipe.scan_index += 1
            elif step == "stage" and pipe.stage != "done":
                pipe.stage = STAGES[STAGES.index(pipe.stage) + 1]
            elif step == "load":
                pipe = offline(Path(out))
                assert pipe.load_state() == (saved is not None)
                if saved is not None:
                    assert held(pipe) == saved
            elif step == "save":
                checked_save(pipe)
                saved = held(pipe)


@pytest.fixture()
def encodes(monkeypatch):
    """The canonical keys of the records encoded, one per call of the
    pipeline's record-encode helper."""
    keys = []
    encode = pipeline_module._encode

    def counted(record):
        keys.append(record.urir.canonical_key)
        return encode(record)

    monkeypatch.setattr(pipeline_module, "_encode", counted)
    return keys


def keys_of(*records):
    return sorted(r.urir.canonical_key for r in records)


def test_a_checkpoint_encodes_only_the_records_that_changed(tmp_path, encodes):
    pipe = offline(tmp_path)
    stored = [grow(pipe, uri, [2001, 2003], "moz") for uri in URIRS]
    pipe.save_state()  # the first: a snapshot
    assert sorted(encodes) == keys_of(*stored)
    for k in range(len(URIRS) + 1):
        encodes.clear()
        changed = [grow(pipe, uri, [2010 + k]) for uri in URIRS[:k]]
        pipe.scan_index += 1
        pipe.save_state()  # an append
        assert sorted(encodes) == keys_of(*changed)
        assert pipe.journal_path.exists()
    for k, stage in enumerate(STAGES[1:]):
        encodes.clear()
        changed = [grow(pipe, uri, [2020 + k]) for uri in URIRS[:k]]
        pipe.stage = stage
        pipe.save_state()  # a stage's first: a snapshot
        assert sorted(encodes) == keys_of(*changed)
        assert not pipe.journal_path.exists()


def reversed_keys(value):
    if isinstance(value, dict):
        return {key: reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [reversed_keys(v) for v in value]
    return value


def without_unset_tags(value):
    """A state or one record, compact, its records that carry neither a
    source nor a live status without both keys, as in state files from
    before they were stored."""
    for d in value.get("records", [value]):
        if d["urir"]["source"] is None and d["urir"]["live_status"] is None:
            del d["urir"]["source"], d["urir"]["live_status"]
    return reference_dumps(value)


LAYOUTS = {
    "compact": reference_dumps,
    "indented": lambda payload: json.dumps(payload, indent=1, sort_keys=True),
    "unsorted keys": lambda payload: json.dumps(reversed_keys(payload), separators=(",", ":")),
    "no unset tags": without_unset_tags,
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_file_in_another_layout_is_encoded_once_and_resumes(corpus, encodes, layout):
    expected, _ = reference(corpus)
    first = pipeline(corpus, "out")
    assert first.run(stop_after="method2") == "method3"
    written = first.state_path.read_bytes()
    payload = json.loads(written)
    every = [d["urir"]["canonical_key"] for d in payload["records"]]
    unset = [
        d["urir"]["canonical_key"] for d in payload["records"]
        if d["urir"]["source"] is None and d["urir"]["live_status"] is None
    ]
    assert 0 < len(unset) < len(every)
    first.state_path.write_text(LAYOUTS[layout](payload))

    encodes.clear()
    resumed = pipeline(corpus, "out")
    assert resumed.load_state()
    assert encodes == []  # a load encodes nothing
    for reencoded in (every, []):  # each loaded record, at the first snapshot only
        resumed._write_snapshot()
        assert sorted(encodes) == sorted(reencoded)
        assert resumed.state_path.read_bytes() == written
        encodes.clear()
    resumes_to(corpus, "out", expected)


@pytest.mark.parametrize("layout", ["compact", "unsorted keys", "no unset tags"])
def test_a_journal_line_in_another_layout_is_encoded_once(tmp_path, encodes, layout):
    writer = offline(tmp_path)
    grow(writer, URIRS[0], [2001], "moz")
    writer.save_state()
    for uri in URIRS[1:]:
        grow(writer, uri, [2002])  # no source, no live status
    writer.save_state()
    cursor = {"stage": writer.stage, "scan_index": writer.scan_index}
    records = [_record_to_dict(r) for r in writer.collection.records()]
    expected = reference_dumps({**cursor, "records": records}).encode()
    *lines, last = writer.journal_path.read_text().splitlines()
    rewritten = [LAYOUTS[layout](json.loads(line)) for line in lines]
    writer.journal_path.write_text("".join(f"{line}\n" for line in [*rewritten, last]))

    encodes.clear()
    reader = offline(tmp_path)
    assert reader.load_state()
    reader._write_snapshot()
    assert sorted(encodes) == keys_of(*writer.collection.records())  # the snapshot's and the journal's
    assert reader.state_path.read_bytes() == expected


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_a_snapshot_that_fails_leaves_the_state_file_and_no_temporary_file(tmp_path, monkeypatch, failing):
    pipe = offline(tmp_path)
    grow(pipe, URIRS[1], [2001], "moz")
    pipe.save_state()
    grow(pipe, URIRS[2], [2001], "moz")
    pipe.save_state()  # a journal beside the snapshot
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    full = OSError(errno.ENOSPC, "No space left on device")
    opened = Path.open

    def open_on_a_filling_disk(path, mode="r", *args, **kwargs):
        """``path`` opened on a disk with room for half the old snapshot's
        text: a write past it is written in part, then fails."""
        f = opened(path, mode, *args, **kwargs)
        if "w" in mode:
            room, write = len(before["state.json"]) // 2, f.write

            def filling(text):
                nonlocal room
                if len(text) > room:
                    write(text[:room])  # a partial write, then the disk is full
                    raise full
                room -= len(text)
                return write(text)

            f.write = filling
        return f

    def replace_file(src, dst):
        raise full

    grow(pipe, URIRS[3], [2001], "moz")
    pipe.stage = "method2"  # the stage's first save: a snapshot
    if failing == "write":
        monkeypatch.setattr(Path, "open", open_on_a_filling_disk)
    else:
        monkeypatch.setattr(os, "replace", replace_file)
    with pytest.raises(OSError, match="No space left on device"):
        pipe.save_state()
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "state.json.tmp" not in after
    assert after["state.json"] == before["state.json"]
    if failing == "write":
        assert after == before  # the journal goes only after the write succeeded
    loaded = offline(tmp_path)
    assert loaded.load_state()


def test_a_snapshot_builds_no_text_of_the_whole_state(tmp_path):
    """A snapshot streams the kept record texts to the file: rewriting a
    state of several hundred KB peaks at a small part of its size, where
    joining the texts first took more than the whole state."""
    pipe = offline(tmp_path)
    for i in range(100):
        grow(pipe, f"http://s{i}.example/", range(1996, 2025))
    pipe.save_state()  # a snapshot: every record's text is encoded and kept
    pipe.stage = "method2"  # the stage's first save: a snapshot of the kept texts
    tracemalloc.start()
    try:
        pipe.save_state()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = pipe.state_path.stat().st_size
    assert size > 300_000
    assert peak < size / 10, (peak, size)
