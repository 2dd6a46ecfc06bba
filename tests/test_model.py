from datetime import datetime, timedelta, timezone

import pytest

from mementoset import (
    ArchiveDescriptor,
    ArchiveRegistry,
    Classification,
    MalformedUri,
    Purpose,
    RawScheme,
    SelectionConstraints,
    UnknownArchive,
    archive_of,
    classify_response,
    compact14,
    default_registry,
    parse_compact14,
    parse_http_datetime,
    raw_variant,
)

MD = {"Memento-Datetime": "Sun, 08 Jan 2017 09:15:41 GMT"}


class TestClassifyResponse:
    def test_archival_ok(self):
        assert classify_response(200, MD) is Classification.ARCHIVAL_OK

    def test_non_archival_503(self):
        assert classify_response(503, {}) is Classification.NON_ARCHIVAL_ERROR

    def test_archival_error(self):
        assert classify_response(404, MD) is Classification.ARCHIVAL_ERROR

    def test_live(self):
        assert classify_response(200, {}) is Classification.LIVE
        assert classify_response(301, {"Location": "http://x/"}) is Classification.LIVE
        assert classify_response(302, MD) is Classification.LIVE

    def test_lowercase_header_tolerated(self):
        headers = {"memento-datetime": "Sun, 08 Jan 2017 09:15:41 GMT"}
        assert classify_response(200, headers) is Classification.ARCHIVAL_OK

    def test_total_and_partitions(self):
        # Every (status, header) combination lands in exactly one class.
        seen = set()
        for status in range(100, 600):
            for headers in ({}, MD):
                seen.add(classify_response(status, headers))
        assert seen == set(Classification)


class TestArchiveOf:
    def test_perma_alias(self, registry):
        urim = "https://perma-archives.org/warc/20150827171418/http://www.whitehouse.gov/"
        assert archive_of(urim, registry).id == "perma.cc"

    def test_digar_subdomain(self, registry):
        urim = "http://veebiarhiiv.digar.ee/a/20110325131647/http://www.inria.fr/"
        assert archive_of(urim, registry).id == "digar.ee"

    def test_vefsafn_subdomain(self, registry):
        urim = "http://wayback.vefsafn.is/wayback/20041020191800/http://www.w3.org/"
        assert archive_of(urim, registry).id == "vefsafn.is"

    def test_bibalex_deep_subdomain(self, registry):
        urim = "http://web.archive.bibalex.org:80/web/19961230035541/http://www4.inria.fr/"
        assert archive_of(urim, registry).id == "archive.bibalex.org"

    def test_unknown_archive(self, registry):
        with pytest.raises(UnknownArchive):
            archive_of("http://example.org/x", registry)

    def test_port_ignored(self, registry):
        urim = "http://web.archive.org:8080/web/1/http://x/"
        assert archive_of(urim, registry).id == "web.archive.org"

    def test_malformed_urim(self, registry):
        with pytest.raises(MalformedUri):
            archive_of("not a uri", registry)


class TestRegistry:
    def test_bundled_registry_has_17(self, registry):
        assert len(registry) == 17
        assert {a.purpose for a in registry} <= set(Purpose)

    def test_round_trip(self, registry, tmp_path):
        path = tmp_path / "archives.json"
        registry.dump(path)
        loaded = ArchiveRegistry.load(path)
        assert list(loaded) == list(registry)

    def test_overlapping_domains_rejected(self):
        a = ArchiveDescriptor("a", "A", ("archive.example",), Purpose.GENERAL)
        b = ArchiveDescriptor("b", "B", ("web.archive.example",), Purpose.GENERAL)
        with pytest.raises(ValueError, match="overlapping"):
            ArchiveRegistry([a, b])

    def test_duplicate_ids_rejected(self):
        a = ArchiveDescriptor("a", "A", ("one.example",), Purpose.GENERAL)
        b = ArchiveDescriptor("a", "B", ("two.example",), Purpose.GENERAL)
        with pytest.raises(ValueError, match="duplicate"):
            ArchiveRegistry([a, b])

    def test_get_unknown(self, registry):
        with pytest.raises(UnknownArchive):
            registry.get("nope.example")


class TestRawVariant:
    def test_wayback_insertion(self):
        urim = "http://wayback.vefsafn.is/wayback/20041020191800/http://www.w3.org/"
        raw = raw_variant(urim, RawScheme.WAYBACK_ID_SUFFIX)
        assert raw == "http://wayback.vefsafn.is/wayback/20041020191800id_/http://www.w3.org/"

    def test_only_timestamp_segment_touched(self):
        urim = "https://perma-archives.org/warc/20150827171418/http://www.whitehouse.gov/"
        raw = raw_variant(urim, RawScheme.WAYBACK_ID_SUFFIX)
        assert raw.count("id_") == 1
        assert raw.replace("id_", "") == urim

    def test_none_scheme(self):
        assert raw_variant("http://www.webcitation.org/66VfNacdz", RawScheme.NONE) is None

    def test_no_timestamp_segment(self):
        assert raw_variant("http://archive.example/x/y", RawScheme.WAYBACK_ID_SUFFIX) is None

    # A modifier after the URI-M's own stamp; a later 14-digit run is the URI-R's.
    @pytest.mark.parametrize("modifier", ["im_", "*"])
    def test_a_modified_stamp_has_none(self, modifier):
        urim = f"http://web.archive.org/web/20010101000000{modifier}/http://a.com/20020202020202/x.png"
        assert raw_variant(urim, RawScheme.WAYBACK_ID_SUFFIX) is None


class TestDatetimes:
    def test_parse_http_datetime(self):
        dt = parse_http_datetime("Sun, 08 Jan 2017 09:15:41 GMT")
        assert dt == datetime(2017, 1, 8, 9, 15, 41, tzinfo=timezone.utc)

    def test_compact_round_trip(self):
        dt = datetime(2012, 3, 28, 21, 10, 40, tzinfo=timezone.utc)
        assert compact14(dt) == "20120328211040"
        assert parse_compact14("20120328211040") == dt

    def test_parse_compact_rejects_bad_width(self):
        with pytest.raises(ValueError):
            parse_compact14("2012")

    def test_parse_http_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_http_datetime("not a date")


class TestSelectionConstraints:
    def test_defaults(self):
        c = SelectionConstraints()
        assert c.min_urirs_per_archive == 200
        assert c.max_urims_per_archive == 1600
        assert c.download_budget == timedelta(hours=40)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_urirs_per_archive": 0},
            {"max_urims_per_archive": -5},
            {"download_budget": timedelta(0)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SelectionConstraints(**kwargs)
