"""Spans around the program's public functions, recorded from outside.

:meth:`Tracer.install` replaces the public functions of the traced
``mementoset`` modules, and the public methods of their service classes,
with wrappers that record a span: name, start, end and the span that was
open in the same thread when it started. Spans stay in memory until
:meth:`Tracer.write` at the end of the run. :func:`layer_metrics` turns
one traced round into the per-layer figures.

Helpers that run once per memento inside parsing, attribution and
serialization (``compact14``, ``parse_compact14``, ``parse_http_datetime``,
``format_http_datetime``, ``raw_variant``, ``header_value``,
``ArchiveRegistry.get`` and ``ArchiveRegistry.match_host``) and the
methods of frozen value classes are not wrapped: a span costs about as
much as such a call, so their time stays in the caller's span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from pathlib import Path

MODULES = ("canonical", "client", "linkformat", "model", "discovery", "pipeline", "sampler", "reports", "cli")
UNWRAPPED = {
    "model.compact14", "model.parse_compact14", "model.parse_http_datetime",
    "model.format_http_datetime", "model.raw_variant", "model.header_value",
    "model.ArchiveRegistry.get", "model.ArchiveRegistry.match_host",
}
# Private methods the per-layer table needs: the pipeline's stages, and the
# client's lane lookup, which would otherwise count as waiting.
PRIVATE = {
    "DiscoveryPipeline": ("_run_method1", "_run_method2", "_run_method3", "_run_method4", "_write_outputs"),
    "ArchiveClient": ("_lane",),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict | None = None


def _n_out(args, result):
    return {"n": len(result)}


def _reduce(args, result):
    return {"n_in": len(args[0].mementos), "n_out": len(result.mementos)}


EXTRACT = {
    "linkformat.parse_link_entries": _n_out,
    "linkformat.dedupe": _reduce,
    "linkformat.yearly_first_filter": _reduce,
    "discovery.extract_urirs_from_html": _n_out,
    "discovery.screen_candidate": lambda a, r: {"accepted": r.accepted is not None},
    "pipeline.DiscoveryPipeline.save_state": lambda a, r: {"bytes": a[0].state_path.stat().st_size},
}


def _is_service(cls) -> bool:
    """Classes whose methods do work, as opposed to value objects."""
    if issubclass(cls, (enum.Enum, BaseException)) or getattr(cls, "_is_protocol", False):
        return False
    return not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, extract=None):
        extract = extract or EXTRACT.get(name)
        clock = time.perf_counter
        record = self.spans.append
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(name, stack[-1] if stack else None)
            record(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs = {"error": type(exc).__name__}
                raise
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                span.attrs = extract(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around its own glue."""
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced modules' public functions and service methods."""
        package_modules = [m for n, m in sys.modules.items() if n == "mementoset" or n.startswith("mementoset.")]
        for short in MODULES:
            module = importlib.import_module(f"mementoset.{short}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and f"{short}.{name}" not in UNWRAPPED:
                    wrapped = self.wrap(f"{short}.{name}", obj)
                    # Rebind every module-level reference, since the
                    # modules import functions from one another by name.
                    for mod in package_modules:
                        for attr, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, attr, wrapped)
                elif inspect.isclass(obj) and _is_service(obj):
                    self._install_class(short, obj)

    def _install_class(self, short: str, cls) -> None:
        extra = PRIVATE.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if name in UNWRAPPED:
                continue
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(name, raw))

    def wrap_transport(self, transport, web) -> None:
        """Wrap the injected transport; ``web`` tells TimeMap pages apart."""

        def extract(args, response):
            return {"bytes": len(response.body), "timemap": (args[0].upper(), args[1]) in web.timemaps}

        transport.request = self.wrap("transport.request", transport.request, extract)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path: Path, spans: list[Span]) -> None:
        index = {id(s): i for i, s in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as f:
            for s in spans:
                parent = index.get(id(s.parent))
                f.write(json.dumps([s.name, s.start, s.end, parent, s.attrs]) + "\n")


LAYER_UNITS = {
    "client.requests": "count", "client.retries": "count", "client.transport_errors": "count",
    "client.wait_s": "s", "client.transport_s": "s", "client.bytes_in": "bytes",
    "client.timemap_pages": "count",
    "canonical.resolve_calls": "count", "canonical.resolve_self_s": "s",
    "canonical.surt_calls": "count", "canonical.surt_s": "s",
    "linkformat.entries": "count", "linkformat.tokenize_s": "s", "linkformat.record_self_s": "s",
    "linkformat.reduce_in": "count", "linkformat.reduce_out": "count", "linkformat.reduce_s": "s",
    "linkformat.keep_ratio": "ratio",
    "model.attribute_calls": "count", "model.attribute_s": "s",
    "discovery.screened": "count", "discovery.accepted": "count", "discovery.accept_ratio": "ratio",
    "discovery.screen_self_s": "s", "discovery.collection_add_calls": "count",
    "discovery.collection_add_s": "s", "discovery.html_links": "count", "discovery.html_extract_s": "s",
    "pipeline.method1_s": "s", "pipeline.method2_s": "s", "pipeline.method3_s": "s",
    "pipeline.method4_s": "s", "pipeline.save_state_calls": "count", "pipeline.save_state_s": "s",
    "pipeline.state_bytes_max": "bytes", "pipeline.load_state_calls": "count",
    "pipeline.load_state_s": "s", "pipeline.write_outputs_s": "s",
    "sampler.probe_downloads": "count", "sampler.probe_s": "s", "sampler.classify_downloads": "count",
    "sampler.classify_s": "s", "sampler.cap_s": "s", "sampler.prune_s": "s", "sampler.finalize_s": "s",
    "sampler.manifest_s": "s", "sampler.kept_ratio": "ratio",
    "reports.stats_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

CLASSIFY = "bench.classify"
COLLECTION_ADD = "discovery.MementoCollection.add"


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def layer_metrics(spans: list[Span], run_s: float, untraced_run_s: float, t0: float, kept_ratio: float) -> dict[str, float]:
    """Per-layer figures of one traced round that started at ``t0``."""
    by_name: dict[str, list[Span]] = {}
    child_s: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_s[id(s.parent)] = child_s.get(id(s.parent), 0.0) + (s.end - s.start)

    def of(name, parent=None):
        found = by_name.get(name, [])
        return [s for s in found if s.parent is not None and s.parent.name == parent] if parent else found

    def count(name, parent=None):
        return len(of(name, parent))

    def total(*names):
        return sum(s.end - s.start for name in names for s in of(name))

    def self_s(*names):
        return sum(s.end - s.start - child_s.get(id(s), 0.0) for name in names for s in of(name))

    def attr(name, key, parent=None):
        return sum((s.attrs or {}).get(key, 0) for s in of(name, parent))

    def ratio(a, b):
        return a / b if b else 0.0

    transport = of("transport.request")
    requests = count("client.ArchiveClient.request")
    reduce_in = attr("linkformat.dedupe", "n_in", COLLECTION_ADD)
    reduce_out = attr("linkformat.yearly_first_filter", "n_out", COLLECTION_ADD)
    screened = count("discovery.screen_candidate")
    accepted = attr("discovery.screen_candidate", "accepted")
    roots = [
        (max(s.start, t0), min(s.end, t0 + run_s)) for s in spans
        if not s.name.startswith("bench.") and (s.parent is None or s.parent.name.startswith("bench."))
    ]
    m = {
        "client.requests": requests,
        "client.retries": len(transport) - requests,
        "client.transport_errors": sum(1 for s in transport if "error" in (s.attrs or {})),
        "client.wait_s": self_s("client.ArchiveClient.request"),
        "client.transport_s": total("transport.request"),
        "client.bytes_in": attr("transport.request", "bytes"),
        "client.timemap_pages": sum(1 for s in transport if (s.attrs or {}).get("timemap")),
        "canonical.resolve_calls": count("canonical.resolve_redirects"),
        "canonical.resolve_self_s": self_s("canonical.resolve_redirects"),
        "canonical.surt_calls": count("canonical.surt"),
        "canonical.surt_s": total("canonical.surt"),
        "linkformat.entries": attr("linkformat.parse_link_entries", "n"),
        "linkformat.tokenize_s": total("linkformat.parse_link_entries"),
        "linkformat.record_self_s": self_s("linkformat.record_from_entries", "linkformat.parse_compact"),
        "linkformat.reduce_in": reduce_in,
        "linkformat.reduce_out": reduce_out,
        "linkformat.reduce_s": total("linkformat.dedupe", "linkformat.yearly_first_filter"),
        "linkformat.keep_ratio": ratio(reduce_out, reduce_in),
        "model.attribute_calls": count("model.archive_of"),
        "model.attribute_s": total("model.archive_of"),
        "discovery.screened": screened,
        "discovery.accepted": accepted,
        "discovery.accept_ratio": ratio(accepted, screened),
        "discovery.screen_self_s": self_s("discovery.screen_candidate"),
        "discovery.collection_add_calls": count(COLLECTION_ADD),
        "discovery.collection_add_s": total(COLLECTION_ADD),
        "discovery.html_links": attr("discovery.extract_urirs_from_html", "n"),
        "discovery.html_extract_s": total("discovery.extract_urirs_from_html"),
        **{
            f"pipeline.method{k}_s": total(f"pipeline.DiscoveryPipeline._run_method{k}")
            for k in range(1, 5)
        },
        "pipeline.save_state_calls": count("pipeline.DiscoveryPipeline.save_state"),
        "pipeline.save_state_s": total("pipeline.DiscoveryPipeline.save_state"),
        "pipeline.state_bytes_max": max(
            [(s.attrs or {}).get("bytes", 0) for s in of("pipeline.DiscoveryPipeline.save_state")] or [0]
        ),
        "pipeline.load_state_calls": count("pipeline.DiscoveryPipeline.load_state"),
        "pipeline.load_state_s": total("pipeline.DiscoveryPipeline.load_state"),
        "pipeline.write_outputs_s": total("pipeline.DiscoveryPipeline._write_outputs"),
        "sampler.probe_downloads": count("client.ArchiveClient.timed_download"),
        "sampler.probe_s": total("sampler.probe_archives"),
        "sampler.classify_downloads": count("client.ArchiveClient.fetch_raw_memento", CLASSIFY),
        "sampler.classify_s": total(CLASSIFY),
        "sampler.cap_s": total("sampler.cap_mementos"),
        "sampler.prune_s": total("sampler.prune_non_archival"),
        "sampler.finalize_s": total("sampler.finalize"),
        "sampler.manifest_s": total("sampler.rows_from_selection", "sampler.write_manifest"),
        "sampler.kept_ratio": kept_ratio,
        "reports.stats_s": total("cli.main"),
        "trace.overhead_s": run_s - untraced_run_s,
        "trace.unattributed_s": run_s - _covered(roots),
    }
    return m
