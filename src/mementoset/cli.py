"""Command-line entry point.

Subcommands cover each pipeline stage: ``canon`` (SURT one-liners),
``timemap`` (fetch + optional yearly filter), ``discover`` (the full
four-method run), and ``stats`` (CSV reports over a manifest).

Exit codes: 0 ok, 1 partial failure, 2 usage, 3 empty result.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .canonical import surt
from .client import ArchiveClient, FetchPolicy, open_transport
from .errors import EmptyTimeMap, MalformedUri, MementosetError
from .linkformat import TimeMapReducer, serialize_compact, serialize_linkformat
from .model import load_registry
from .pipeline import DiscoveryPipeline, RunConfig
from .reports import (
    build_archive_totals,
    build_path_histogram,
    build_source_bucket_table,
    build_status_table,
    build_urims_per_year,
    read_urir_table,
    write_csv,
)
from .sampler import read_manifest

logger = logging.getLogger(__name__)

CONFIG_ENV_VAR = "MEMENTOSET_CONFIG"

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_EMPTY = 3


def cmd_canon(args) -> int:
    status = EXIT_OK
    for uri in args.uris:
        try:
            print(surt(uri))
        except MalformedUri as exc:
            print(f"error: {exc}", file=sys.stderr)
            if not args.keep_going:
                return EXIT_PARTIAL
            status = EXIT_PARTIAL
    return status


def cmd_timemap(args) -> int:
    try:
        client = ArchiveClient(
            load_registry(args.registry),
            FetchPolicy(min_request_interval=args.interval, timeout=args.timeout),
            open_transport(args.fixtures, args.record, args.timeout),
            aggregator_template=args.endpoint,
        )
    except (OSError, ValueError) as exc:  # a bad --endpoint template or --registry file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # The reducer discovery stores through: the first memento per registered
    # archive per year.
    reducer = TimeMapReducer(client.registry) if args.filter_yearly else None
    try:
        if args.direct:
            archive = client.registry.get(args.direct)
            record = client.fetch_timemap_direct(archive, args.urir, reducer)
        else:
            record = client.fetch_timemap_aggregator(args.urir, reducer)
    except EmptyTimeMap as exc:
        print(f"empty timemap: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except MementosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    sys.stdout.write(
        serialize_compact(record) if args.compact else serialize_linkformat(record)
    )
    return EXIT_OK


def cmd_discover(args) -> int:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not config_path:
        print(
            f"error: no config given (flag --config or ${CONFIG_ENV_VAR})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        pipeline = DiscoveryPipeline(RunConfig.from_file(config_path))
    except (OSError, ValueError, MementosetError) as exc:
        print(f"error loading config: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    try:
        stage = pipeline.run(resume=not args.fresh)
    except (OSError, MementosetError) as exc:  # an unreadable source file or state.json
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    print(f"discovery stopped at stage: {stage}")
    print(f"selected URI-Rs: {len(pipeline.accepted)}")
    for archive_id, (urims, urirs) in sorted(pipeline.collection.totals().items()):
        print(f"  {archive_id}: {urirs} URI-Rs / {urims} URI-Ms")
    return EXIT_OK if stage == "done" else EXIT_PARTIAL


def cmd_stats(args) -> int:
    out_dir = Path(args.out)
    written = ["urims-per-year.csv", "archive-totals.csv", "path-histogram.csv"]
    try:
        # Both inputs are read before anything is written.
        rows = read_manifest(args.manifest)
        resources = read_urir_table(args.urirs) if args.urirs else None
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(build_urims_per_year(rows), out_dir / "urims-per-year.csv")
        write_csv(build_archive_totals(rows), out_dir / "archive-totals.csv")
        write_csv(build_path_histogram(rows), out_dir / "path-histogram.csv")
        if resources is not None:
            write_csv(build_source_bucket_table(resources), out_dir / "source-buckets.csv")
            write_csv(build_status_table(resources), out_dir / "live-status.csv")
            written += ["source-buckets.csv", "live-status.csv"]
    except (OSError, MementosetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    print(f"wrote {', '.join(written)} to {out_dir} ({len(rows)} manifest rows)")
    return EXIT_OK


def _add_fetch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--registry", help="archive registry JSON (default: bundled)")
    parser.add_argument("--fixtures", help="replay responses from this fixture directory")
    parser.add_argument("--record", help="record live responses into this directory")
    parser.add_argument("--endpoint", help="aggregator URI template with {uri} placeholder")
    parser.add_argument("--timeout", type=float, default=FetchPolicy.timeout)
    parser.add_argument(
        "--interval",
        type=float,
        default=FetchPolicy.min_request_interval,
        help="minimum seconds between requests to one archive",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mementoset",
        description="Discover, filter, and sample archived web pages across public archives.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="print the SURT form of each URI")
    p.add_argument("uris", nargs="+", metavar="URI")
    p.add_argument("--keep-going", action="store_true", help="continue past bad URIs")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("timemap", help="fetch a TimeMap for a URI-R")
    p.add_argument("urir", metavar="URI-R")
    p.add_argument("--direct", metavar="ARCHIVE_ID", help="ask one archive directly")
    p.add_argument("--filter-yearly", action="store_true",
                   help="keep the first memento per archive per year")
    p.add_argument("--compact", action="store_true",
                   help="emit 14-digit-timestamp + URI-M lines instead of link-format")
    _add_fetch_flags(p)
    p.set_defaults(func=cmd_timemap)

    p = sub.add_parser("discover", help="run the four discovery methods")
    p.add_argument("--config", help=f"run config JSON (default: ${CONFIG_ENV_VAR})")
    p.add_argument("--fresh", action="store_true", help="ignore any existing state file")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("stats", help="emit CSV reports for a dataset manifest")
    p.add_argument("--manifest", required=True, help="tab-delimited manifest file")
    p.add_argument("--urirs", help="URI-R selection table (enables source/status tables)")
    p.add_argument("--out", default=".", help="directory for the CSV files")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
