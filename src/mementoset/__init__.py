"""Toolkit for building memento datasets from public web archives."""

from .canonical import (
    RedirectChain,
    path_length,
    registrable_domain,
    surt,
    unsurt,
)
from .client import (
    ArchiveClient,
    FetchPolicy,
    FixtureStore,
    FixtureTransport,
    RecordingTransport,
    RequestsTransport,
)
from .discovery import (
    MementoCollection,
    SelectionState,
    extract_urirs_from_html,
    ingest_published_list,
    interleave_sources,
    load_source_file,
    method2_expand,
    select_initial,
)
from .errors import (
    EmptyProbe,
    EmptyTimeMap,
    HopLimitExceeded,
    MalformedUri,
    MementosetError,
    MissingOriginal,
    NetworkError,
    NoTimeMapEndpoint,
    ParseError,
    PermanentNetworkError,
    RawAccessUnsupported,
    RedirectLoop,
    UnknownArchive,
)
from .linkformat import (
    LinkEntry,
    TimeMapReducer,
    parse_compact,
    parse_timemap,
    serialize_compact,
    serialize_linkformat,
)
from .model import (
    ArchiveDescriptor,
    ArchiveRegistry,
    Classification,
    Memento,
    OriginalResource,
    PathBucket,
    Provenance,
    Purpose,
    RawScheme,
    SelectionConstraints,
    TimeMapRecord,
    archive_of,
    classify_response,
    compact14,
    default_registry,
    parse_compact14,
    parse_http_datetime,
    raw_variant,
)
from .pipeline import DiscoveryPipeline, RunConfig
from .sampler import (
    ArchiveBudget,
    DatasetSummary,
    cap_mementos,
    estimate_budget,
    finalize,
    group_by_archive,
    probe_archives,
    prune_non_archival,
    read_manifest,
    write_manifest,
)

__version__ = "0.1.0"
