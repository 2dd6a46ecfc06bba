"""Domain vocabulary: archives, original resources, mementos, TimeMaps.

All types are immutable value objects and safe to share across worker
threads. The archive registry ships as a JSON data file with one entry per
public archive (domain aliases included) and can be extended by users.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime, parsedate_to_datetime
from enum import Enum
from importlib import resources
from types import UnionType
from typing import Iterable, Mapping, Union, get_args, get_origin, get_type_hints
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
    "check_fields",
    "classify_response",
    "compact14",
    "default_registry",
    "header_value",
    "json_kwargs",
    "load_registry",
    "parse_compact14",
    "parse_http_datetime",
    "raw_variant",
    "wayback_split",
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


def json_kwargs(raw, keys: Mapping[str, str], where: str) -> dict:
    """The JSON object ``raw`` with each key replaced by the keyword that
    ``keys`` maps it to. ``raw`` not an object, or a key that ``keys``
    lacks, is a ValueError naming ``where`` and the key."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected a JSON object, got {raw!r}")
    for key in raw:
        if key not in keys:
            raise ValueError(f"{where}: unknown key {key!r}")
    return {keys[key]: value for key, value in raw.items()}


def check_fields(obj, positive: Iterable[str] = (), nonnegative: Iterable[str] = ()) -> None:
    """Raise ValueError naming the first field of dataclass ``obj`` whose
    value does not have the field's annotated type (an int passes as a
    float, a bool as neither), or is a float that is not finite, or is not
    above zero for a field named in ``positive``, or is below zero for one
    named in ``nonnegative``."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _has_type(value, hints[f.name]):
            raise ValueError(f"{f.name}: expected {f.type}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):  # json reads Infinity, NaN
            raise ValueError(f"{f.name}: out of range: {value!r}")
        if f.name in positive or f.name in nonnegative:
            zero = type(value)()  # 0, 0.0 or timedelta(0)
            if not (value > zero if f.name in positive else value >= zero):
                raise ValueError(f"{f.name}: out of range: {value!r}")


# Cached: evaluating the annotations anew in a forked worker would copy
# the parent's pages it touches.
_type_hints = functools.cache(get_type_hints)


def _has_type(value, hint) -> bool:
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return any(_has_type(value, arg) for arg in args)
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float))
    if origin is None:
        return isinstance(value, hint)
    if origin is dict:
        return isinstance(value, dict) and all(
            _has_type(k, args[0]) and _has_type(v, args[1]) for k, v in value.items()
        )
    return isinstance(value, origin) and all(_has_type(v, args[0]) for v in value)


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
        check_fields(self)
        if not self.domains:
            raise ValueError(f"archive {self.id!r} needs at least one domain")

    def all_domains(self) -> tuple[str, ...]:
        return self.domains + self.unverified_domains

    @classmethod
    def from_dict(cls, d: dict) -> "ArchiveDescriptor":
        """A registry entry: each key names a field, and a key left out
        keeps the field's default. An unknown key, a required one left out
        or a value of the wrong type is a ValueError naming it."""
        where = f"archive {d.get('id')!r}" if isinstance(d, dict) else "archive"
        kwargs = json_kwargs(d, {f.name: f.name for f in fields(cls)}, where)
        try:
            for name in ("domains", "unverified_domains"):
                if isinstance(kwargs.get(name), list):
                    kwargs[name] = tuple(kwargs[name])
            for name, enum in (("purpose", Purpose), ("raw_scheme", RawScheme)):
                if name in kwargs:
                    kwargs[name] = enum(kwargs[name])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:  # TypeError: a required key left out
            raise ValueError(f"{where}: {exc}") from None


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
            raise UnknownArchive(archive_id, "id") from None

    def match_host(self, host: str) -> ArchiveDescriptor | None:
        """The archive with a domain equal to ``host`` or to a label suffix of it."""
        host = host.lower().rstrip(".")
        while True:
            found = self._by_domain.get(host)
            if found is not None or "." not in host:
                return found
            host = host.partition(".")[2]

    def dump(self, path) -> None:
        payload = {"archives": [asdict(a) for a in self._archives]}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "ArchiveRegistry":
        """The registry in the JSON file at ``path``: an object whose one
        key, ``archives``, lists the entries ``ArchiveDescriptor.from_dict`` reads."""
        with open(path, encoding="utf-8") as f:
            payload = json_kwargs(json.load(f), {"archives": "archives"}, "registry")
        archives = payload.get("archives")
        if not isinstance(archives, list):
            raise ValueError(f"registry: expected a list of archives, got {archives!r}")
        return cls(ArchiveDescriptor.from_dict(d) for d in archives)


@functools.cache
def default_registry() -> ArchiveRegistry:
    """The registry bundled with the package (17 public archives)."""
    with resources.as_file(resources.files("mementoset") / "data" / "archives.json") as path:
        return ArchiveRegistry.load(path)


def load_registry(path=None) -> ArchiveRegistry:
    """The registry in the JSON file at ``path``, else the bundled one."""
    return ArchiveRegistry.load(path) if path else default_registry()


def _host_of(uri: str) -> str:
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


def archive_of(urim: str, registry: ArchiveRegistry) -> ArchiveDescriptor:
    """Resolve the archive that serves ``urim`` via domain-alias matching."""
    host = _host_of(urim)
    found = registry.match_host(host)
    if found is None:
        raise UnknownArchive(host, "host")
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
    if type(stamp) is not str or len(stamp) != 14 or not stamp.isascii() or not stamp.isdigit():
        raise ValueError(f"expected 14 digits, got {stamp!r}")
    if stamp[8:10] == "24":  # ISO 8601's next-day midnight; compact14 never writes it
        raise ValueError(f"hour out of range in {stamp!r}")
    # One C-level call: fromisoformat checks each field's range and gives
    # the +00:00 offset as timezone.utc itself.
    return datetime.fromisoformat(
        f"{stamp[:4]}-{stamp[4:6]}-{stamp[6:8]}T{stamp[8:10]}:{stamp[10:12]}:{stamp[12:]}+00:00"
    )


_STAMP = re.compile(r"/([0-9]{14})(?![0-9])")


def wayback_split(urim: str) -> tuple[str, str, str] | None:
    """A URI-M of the Wayback shape as (head, stamp, rest), split at the
    first ``/`` + 14 ASCII digits not followed by a digit; None without
    one. Raw downloads, the URI-R of a published list's URI-M and the
    reducer's seen URI-Ms all place the stamp by this rule."""
    parts = _STAMP.split(urim, 1)
    return tuple(parts) if len(parts) == 3 else None


def raw_variant(urim: str, raw_scheme: RawScheme) -> str | None:
    """The URI-M of unaltered content: for a Wayback-style archive, ``id_``
    inserted after the stamp of ``wayback_split`` when the rest after it
    starts with ``/``. None without such a stamp, for a URI-M already
    modified after its stamp (``id_``, ``im_``, a ``*`` query), or with no
    scheme."""
    if raw_scheme is not RawScheme.WAYBACK_ID_SUFFIX:
        return None
    split = wayback_split(urim)
    if split is None or not split[2].startswith("/"):
        return None
    head, stamp, rest = split
    return f"{head}/{stamp}id_{rest}"


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
    """One archived snapshot (URI-M) of an original resource, without its raw URI-M."""

    urim: str
    memento_datetime: datetime
    urir_key: str
    archive_id: str | None = None

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
        check_fields(
            self, positive=("min_urirs_per_archive", "max_urims_per_archive", "download_budget")
        )

    @classmethod
    def from_dict(cls, d: dict) -> "SelectionConstraints":
        """A config's ``constraints`` object, which gives the budget in
        ``download_budget_hours``; each other key names a field."""
        keys = {f.name: f.name for f in fields(cls) if f.name != "download_budget"}
        kwargs = json_kwargs(d, {**keys, "download_budget_hours": "download_budget"}, "constraints")
        if "download_budget" in kwargs:
            hours = kwargs["download_budget"]
            if not _has_type(hours, float):
                raise ValueError(f"download_budget_hours: expected float, got {hours!r}")
            try:
                kwargs["download_budget"] = timedelta(hours=hours)
            except (ValueError, OverflowError) as exc:  # NaN, or beyond timedelta's range
                raise ValueError(f"download_budget_hours: {exc}") from None
        return cls(**kwargs)
