"""TimeMap intake takes its fixed-form fast paths, and 14-digit stamps
round-trip for every year a datetime can hold.

``tests/test_intake_reference.py`` shows that each fast path returns what
the general parser would. The guard here shows that the fast paths are
taken at all: a pattern that stopped matching would keep every result
right and lose all of the speed.
"""

from datetime import datetime, timezone
from unittest import mock

from hypothesis import example, given
from hypothesis import strategies as st

from mementoset import default_registry, linkformat, model
from mementoset.linkformat import (
    _PARAM,
    parse_compact,
    parse_link_entries,
    parse_timemap,
    serialize_compact,
)
from mementoset.model import compact14, parse_compact14
from mementoset.pipeline import DiscoveryPipeline, RunConfig

FETCHED = datetime(2017, 11, 15, tzinfo=timezone.utc)


def refuse(*args, **kwargs):
    raise AssertionError("a general parser ran on a fixed-form input")


class TestFastPathsTaken:
    def check(self, body, mementos):
        members = parse_link_entries(body)
        general = sum(not e.is_memento() for e in members)
        split = mock.Mock(wraps=linkformat._split)
        with mock.patch.object(model, "parsedate_to_datetime", refuse), \
                mock.patch.object(linkformat, "_split", split):
            record = parse_timemap(body, registry=default_registry())
        assert len(record.mementos) == mementos
        assert all(m.archive_id is not None for m in record.mementos)
        # Only the members that are not mementos are split into params.
        assert sum(c.args[0] is _PARAM for c in split.call_args_list) == general

    # An aggregator TimeMap, one with ``:80`` ports on its URI-Ms, and one with
    # https URI-Ms.
    def test_aggregator_timemap(self, inria_timemap):
        self.check(inria_timemap, 13)

    def test_wayback_timemap(self, cnn_timemap):
        self.check(cnn_timemap, 3)

    def test_perma_timemap(self, perma_timemap):
        self.check(perma_timemap, 57)


YEAR_999 = "Mon, 01 Jan 0999 00:00:00 GMT"


class TestYearsBelow1000:
    def test_record_survives_state_and_compact_round_trips(self, tmp_path):
        body = (
            '<http://a.example/>; rel="original",\n'
            '<http://web.archive.org/web/09990101000000/http://a.example/>; '
            f'rel="memento"; datetime="{YEAR_999}"\n'
        )
        registry = default_registry()
        record = parse_timemap(body, registry=registry, fetched_at=FETCHED)
        assert record.mementos[0].memento_datetime.year == 999

        config = RunConfig(out_dir=tmp_path / "out", fixtures_dir=tmp_path / "fixtures")
        pipeline = DiscoveryPipeline(config)
        pipeline.collection.add(record)
        pipeline.save_state()
        resumed = DiscoveryPipeline(config)
        assert resumed.load_state()
        assert list(resumed.collection.records()) == [record]

        text = serialize_compact(record)
        assert text.startswith("09990101000000 ")
        again = parse_compact(text, record.urir.uri, registry, record.provenance, FETCHED)
        assert again == record

    @given(st.datetimes(timezones=st.just(timezone.utc)))
    @example(datetime(999, 1, 1, tzinfo=timezone.utc))
    def test_every_year_round_trips(self, dt):
        stamp = compact14(dt)
        assert len(stamp) == 14 and stamp.isdigit()
        assert parse_compact14(stamp) == dt.replace(microsecond=0)
