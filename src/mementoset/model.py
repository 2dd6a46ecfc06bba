"""Domain vocabulary: archives, original resources, mementos, TimeMaps.

All types are immutable value objects and safe to share across worker
threads. The archive registry ships as a JSON data file with one entry per
public archive (domain aliases included) and can be extended by users.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime, parsedate_to_datetime
from enum import Enum
from importlib import resources
from typing import Iterable, Mapping
from urllib.parse import urlsplit

from .errors import MalformedUri, UnknownArchive

__all__ = [
    "ArchiveDescriptor",
    "ArchiveRegistry",
    "Classification",
    "Memento",
    "OriginalResource",
    "PathBucket",
    "Provenance",
    "Purpose",
    "RawScheme",
    "SelectionConstraints",
    "TimeMapRecord",
    "archive_of",
    "classify_response",
    "compact14",
    "default_registry",
    "header_value",
    "load_registry",
    "parse_compact14",
    "parse_http_datetime",
    "raw_variant",
]


class Purpose(str, Enum):
    GENERAL = "general"
    ON_DEMAND = "on_demand"
    NATIONAL = "national"
    ORGANIZATIONAL = "organizational"


class RawScheme(str, Enum):
    # Wayback-style replay: insert "id_" after the 14-digit timestamp.
    WAYBACK_ID_SUFFIX = "wayback_id_suffix"
    NONE = "none"


class PathBucket(str, Enum):
    S0 = "s0"
    S1 = "s1"
    S2 = "s2"
    S3 = "s3"
    S4PLUS = "s4plus"


class Provenance(str, Enum):
    AGGREGATOR = "aggregator"
    DIRECT_ARCHIVE = "direct_archive"
    PUBLISHED_LIST = "published_list"


class Classification(str, Enum):
    """How an HTTP response relates to archived content."""

    ARCHIVAL_OK = "archival_ok"
    ARCHIVAL_ERROR = "archival_error"
    NON_ARCHIVAL_ERROR = "non_archival_error"
    LIVE = "live"


@dataclass(frozen=True, slots=True)
class ArchiveDescriptor:
    """One configured web archive and the hostnames it answers under."""

    id: str
    name: str
    domains: tuple[str, ...]
    purpose: Purpose
    memento_native: bool = False
    raw_scheme: RawScheme = RawScheme.NONE
    timemap_template: str | None = None
    # Aliases we match on but have not seen in real archive output.
    unverified_domains: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.domains:
            raise ValueError(f"archive {self.id!r} needs at least one domain")

    def all_domains(self) -> tuple[str, ...]:
        return self.domains + self.unverified_domains

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "domains": list(self.domains),
            "purpose": self.purpose.value,
            "memento_native": self.memento_native,
            "raw_scheme": self.raw_scheme.value,
            "timemap_template": self.timemap_template,
            "unverified_domains": list(self.unverified_domains),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArchiveDescriptor":
        return cls(
            id=d["id"],
            name=d["name"],
            domains=tuple(d["domains"]),
            purpose=Purpose(d["purpose"]),
            memento_native=bool(d.get("memento_native", False)),
            raw_scheme=RawScheme(d.get("raw_scheme", "none")),
            timemap_template=d.get("timemap_template"),
            unverified_domains=tuple(d.get("unverified_domains", ())),
        )


class ArchiveRegistry:
    """Ordered collection of archive descriptors with host lookup.

    Domains, aliases included, must be disjoint across descriptors: no
    domain may equal another archive's domain or be a label suffix of it.
    A host then maps to at most one archive, the one with a domain equal
    to the host or to one of its label suffixes.
    """

    def __init__(self, archives: Iterable[ArchiveDescriptor]):
        self._archives = tuple(archives)
        self._by_id = {a.id: a for a in self._archives}
        if len(self._by_id) != len(self._archives):
            raise ValueError("duplicate archive ids in registry")
        self._by_domain: dict[str, ArchiveDescriptor] = {}
        for a in self._archives:
            for d in a.all_domains():
                other = self._by_domain.setdefault(d, a)
                if other is not a:
                    raise ValueError(
                        f"overlapping domains {d!r} ({other.id}) and {d!r} ({a.id})"
                    )
        for d, a in self._by_domain.items():
            suffix = d
            while "." in suffix:
                suffix = suffix.partition(".")[2]
                other = self._by_domain.get(suffix, a)
                if other is not a:
                    raise ValueError(
                        f"overlapping domains {d!r} ({a.id}) and {suffix!r} ({other.id})"
                    )

    def __iter__(self):
        return iter(self._archives)

    def __len__(self):
        return len(self._archives)

    def get(self, archive_id: str) -> ArchiveDescriptor:
        try:
            return self._by_id[archive_id]
        except KeyError:
            raise UnknownArchive(archive_id) from None

    def match_host(self, host: str) -> ArchiveDescriptor | None:
        """The archive with a domain equal to ``host`` or to a label suffix of it."""
        host = host.lower().rstrip(".")
        while True:
            found = self._by_domain.get(host)
            if found is not None or "." not in host:
                return found
            host = host.partition(".")[2]

    def dump(self, path) -> None:
        payload = {"archives": [a.to_dict() for a in self._archives]}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "ArchiveRegistry":
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        return cls(ArchiveDescriptor.from_dict(d) for d in payload["archives"])


_default_registry: ArchiveRegistry | None = None


def default_registry() -> ArchiveRegistry:
    """The registry bundled with the package (17 public archives)."""
    global _default_registry
    if _default_registry is None:
        text = resources.files("mementoset").joinpath("data/archives.json").read_text("utf-8")
        payload = json.loads(text)
        _default_registry = ArchiveRegistry(
            ArchiveDescriptor.from_dict(d) for d in payload["archives"]
        )
    return _default_registry


def load_registry(path=None) -> ArchiveRegistry:
    """The registry in the JSON file at ``path``, else the bundled one."""
    return ArchiveRegistry.load(path) if path else default_registry()


# The plain URI-M form: an http(s) scheme in any case, a host of letters,
# digits, dots and hyphens, an optional numeric port, then the end of the
# authority. ``urlsplit`` returns this host unchanged, so it is read directly;
# every other URI goes through ``urlsplit``.
_PLAIN_HOST = re.compile(r"[Hh][Tt][Tt][Pp][Ss]?://([A-Za-z0-9.-]+)(?::[0-9]+)?(?:[/?#]|\Z)")


def _host_of(uri: str) -> str:
    plain = _PLAIN_HOST.match(uri)
    if plain is not None:
        return plain[1].lower()
    try:
        parts = urlsplit(uri)
    except ValueError as exc:
        raise MalformedUri(uri, str(exc)) from None
    if not parts.netloc or parts.scheme not in ("http", "https"):
        raise MalformedUri(uri)
    host = parts.hostname
    if not host:
        raise MalformedUri(uri, "empty host")
    return host.lower()


def archive_of(urim: str, registry: Iterable[ArchiveDescriptor]) -> ArchiveDescriptor:
    """Resolve the archive that serves ``urim`` via domain-alias matching."""
    host = _host_of(urim)
    if not isinstance(registry, ArchiveRegistry):
        registry = ArchiveRegistry(registry)
    found = registry.match_host(host)
    if found is None:
        raise UnknownArchive(host)
    return found


def header_value(headers: Mapping[str, str], name: str) -> str | None:
    """Case-insensitive header lookup (archives vary in header casing)."""
    if name in headers:
        return headers[name]
    lower = name.lower()
    for k, v in headers.items():
        if k.lower() == lower:
            return v
    return None


def classify_response(status: int, headers: Mapping[str, str]) -> Classification:
    """Partition a response into archival/non-archival/live classes.

    The ``Memento-Datetime`` response header marks content as archival;
    an error status with the header means the archive captured an error
    page, while an error status without it means the archive itself
    failed. Total over all statuses 100-599.
    """
    has_md = header_value(headers, "Memento-Datetime") is not None
    if status == 200 and has_md:
        return Classification.ARCHIVAL_OK
    if 400 <= status <= 599:
        return Classification.ARCHIVAL_ERROR if has_md else Classification.NON_ARCHIVAL_ERROR
    return Classification.LIVE


# IMF-fixdate (RFC 9110 section 5.6.7), the form TimeMaps use. Its year has
# four digits and is read as written.
_IMF_FIXDATE = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun), ([0-9]{2}) "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) ([0-9]{4}) "
    r"([0-9]{2}):([0-9]{2}):([0-9]{2}) GMT"
)
_MONTHS = {m: i for i, m in enumerate("Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split(), 1)}


def parse_http_datetime(value: str) -> datetime:
    """Parse an HTTP-date into an aware UTC datetime.

    IMF-fixdate (``Sun, 06 Nov 1994 08:49:37 GMT``) is read directly, its
    four-digit year as written, and a field out of range (year 0000, day 32,
    second 60) is an error. Every other form goes to
    ``email.utils.parsedate_to_datetime``, which maps two-digit years to
    19xx/20xx.
    """
    fixed = _IMF_FIXDATE.fullmatch(value)
    if fixed is not None:
        day, month, year, hour, minute, second = fixed.groups()
        try:
            return datetime(
                int(year), _MONTHS[month], int(day),
                int(hour), int(minute), int(second), tzinfo=timezone.utc,
            )
        except ValueError as exc:
            raise ValueError(f"bad HTTP datetime {value!r}") from exc
    try:
        dt = parsedate_to_datetime(value.strip())
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad HTTP datetime {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


def format_http_datetime(dt: datetime) -> str:
    return format_datetime(dt.astimezone(timezone.utc), usegmt=True)


def compact14(dt: datetime) -> str:
    """14-digit UTC timestamp (YYYYMMDDhhmmss) used by compact TimeMaps."""
    u = dt.astimezone(timezone.utc)
    return "%04d%02d%02d%02d%02d%02d" % (u.year, u.month, u.day, u.hour, u.minute, u.second)


def parse_compact14(stamp: str) -> datetime:
    """The aware UTC datetime of a 14-digit stamp written by :func:`compact14`."""
    if len(stamp) != 14 or not stamp.isascii() or not stamp.isdigit():
        raise ValueError(f"expected 14 digits, got {stamp!r}")
    return datetime(
        int(stamp[:4]), int(stamp[4:6]), int(stamp[6:8]),
        int(stamp[8:10]), int(stamp[10:12]), int(stamp[12:]), tzinfo=timezone.utc,
    )


_TIMESTAMP_SEGMENT = re.compile(r"/(\d{14})(/)")


def raw_variant(urim: str, raw_scheme: RawScheme) -> str | None:
    """URI-M for unaltered content, or None when the archive has no scheme.

    For Wayback-style archives this inserts ``id_`` directly after the
    14-digit timestamp path segment.
    """
    if raw_scheme is not RawScheme.WAYBACK_ID_SUFFIX:
        return None
    match = _TIMESTAMP_SEGMENT.search(urim)
    if match is None:
        return None
    return urim[: match.end(1)] + "id_" + urim[match.end(1) :]


@dataclass(frozen=True, slots=True)
class OriginalResource:
    """A live-web URI-R together with its canonical identity."""

    uri: str
    canonical_key: str
    final_uri: str
    path_bucket: PathBucket
    source: str | None = None
    live_status: int | None = None


@dataclass(frozen=True, slots=True)
class Memento:
    """One archived snapshot (URI-M) of an original resource."""

    urim: str
    memento_datetime: datetime
    urir_key: str
    archive_id: str | None = None
    raw_urim: str | None = None

    @property
    def year(self) -> int:
        return self.memento_datetime.astimezone(timezone.utc).year


@dataclass(frozen=True, slots=True)
class TimeMapRecord:
    """Ordered mementos of one URI-R, tagged with how they were obtained."""

    urir: OriginalResource
    mementos: tuple[Memento, ...]
    fetched_at: datetime
    provenance: Provenance

    def __post_init__(self):
        for m in self.mementos:
            if m.urir_key != self.urir.canonical_key:
                raise ValueError(
                    f"memento {m.urim!r} keyed {m.urir_key!r}, "
                    f"record is {self.urir.canonical_key!r}"
                )

    def with_mementos(self, mementos: Iterable[Memento]) -> "TimeMapRecord":
        return replace(self, mementos=tuple(mementos))

    def __len__(self):
        return len(self.mementos)


@dataclass(frozen=True, slots=True)
class SelectionConstraints:
    """Operator requirements that govern downsampling."""

    min_urirs_per_archive: int = 200
    max_urims_per_archive: int = 1600
    download_budget: timedelta = field(default_factory=lambda: timedelta(hours=40))

    def __post_init__(self):
        if self.min_urirs_per_archive <= 0 or self.max_urims_per_archive <= 0:
            raise ValueError("counts must be positive")
        if self.download_budget <= timedelta(0):
            raise ValueError("download budget must be positive")
