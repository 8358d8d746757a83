"""Spans around the public calls of each densitometer layer.

The worker installs wrappers on module and class attributes for traced
operations only and removes them afterwards, so untraced operations run the
library unchanged.  Spans stay in memory (name, start, end, parent span,
operation id, counters) and are written out when the run ends; run.py turns
them into per-layer metrics, where every ``*_s`` metric is a self time: the
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

BLOCKS = (3, 4)

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    [
        ("weights.analyze_s", "s", "lower"),
        ("auxfn.rate_s", "s", "lower"),
        ("auxfn.diag_s", "s", "lower"),
        ("auxfn.s_scanned", "count", "lower"),
        ("setmodel.packing_s", "s", "lower"),
        ("setmodel.cubes", "count", "higher"),
        ("setmodel.shelf_rows", "count", "lower"),
        ("setmodel.cover_s", "s", "lower"),
    ]
    + [
        (f"{name}.block{s}", unit, better)
        for s in BLOCKS
        for name, unit, better in (
            ("interval1d.atoms_s", "s", "lower"),
            ("interval1d.cells", "count", "lower"),
            ("interval1d.label_total", "count", "lower"),
            ("dilation.dilate_2d_s", "s", "lower"),
            ("dilation.rects", "count", "lower"),
            ("dilation.columns", "count", "lower"),
            ("dilation.section_reuse", "fraction", "higher"),
            ("dilation.identity_residual", "fraction", "lower"),
            ("dilation.peak_rss_mb", "MB", "lower"),
        )
    ]
    + [
        ("scan.sample_s", "s", "lower"),
        ("scan.draws", "count", "lower"),
        ("scan.acceptance", "fraction", "higher"),
        ("scan.density_s", "s", "lower"),
        ("scan.separation_s", "s", "lower"),
        ("scan.envelope_s", "s", "lower"),
        ("scan.rects", "count", "higher"),
        ("scan.rects_per_s", "1/s", "higher"),
        ("scan.pairs.applicable", "count", "higher"),
        ("scan.pairs.deferred", "count", "lower"),
        ("scan.pairs.exceptional", "count", "lower"),
        ("scan.touched_share", "fraction", "higher"),
        ("scan.peak_rss_mb", "MB", "lower"),
        ("cli.serialize_s", "s", "lower"),
        ("cli.artifact_bytes", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)
_NAMES = {name for name, _, _ in PER_LAYER}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class RssSampler:
    """Background thread tracking the peak resident set of open windows."""

    def __init__(self, period: float = 0.005) -> None:
        self._period = period
        self._peaks: dict[int, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._period):
            rss = rss_bytes()
            with self._lock:
                for key, peak in self._peaks.items():
                    if rss > peak:
                        self._peaks[key] = rss

    def open(self, key: int) -> None:
        rss = rss_bytes()
        with self._lock:
            self._peaks[key] = rss

    def close(self, key: int) -> int:
        rss = rss_bytes()
        with self._lock:
            return max(self._peaks.pop(key), rss)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


# -- counters read from call results ---------------------------------------------

def _selection(args, kwargs, result) -> dict:
    return {"s_scanned": result.s_scanned}


def _model(args, kwargs, result) -> dict:
    return {"cubes": result.trunc, "shelf_rows": int(np.unique(result.ys).size)}


def _cover(args, kwargs, result) -> dict:
    return {
        "residuals": [
            [b.s, abs(b.exact_measure - b.identity_rhs) / b.identity_rhs] for b in result.blocks
        ]
    }


def _union(args, kwargs, result) -> dict:
    block = kwargs.get("block")
    return {
        "block": None if block is None else block[0],
        "rects": len(result),
        "columns": len(result.columns),
        # the section cache hands out one object per distinct column section
        "sections": len({id(section) for _, section in result.columns}),
    }


def _atoms(args, kwargs, result) -> dict:
    return {
        "cells": len(result.cells),
        "label_total": sum(len(cell.label) for cell in result.cells),
    }


def _sample(args, kwargs, result) -> dict:
    return {"draws": result.draws, "accepted": len(result.points)}


def _scan_report(args, kwargs, result) -> dict:
    tallies = {"applicable": 0, "deferred": 0, "exceptional": 0}
    touched = 0
    for row in result.rows:
        tallies[row.regime] += 1
        touched += row.regime == "applicable" and row.min_ratio < 1.0
    return {
        "rects": len(result.rows) * result.config.rects_per_point,
        "touched": touched,
        **tallies,
    }


def _separation(args, kwargs, result) -> dict:
    return {"rects": sum(row.checked_rects for row in result.rows)}


# (owner, attribute, span name, counters, track peak RSS).  Functions are
# patched where their callers look them up: cli for verify-all, the package
# namespace for the worker's own scan calls, and the defining module for
# calls inside the library.
PATCHES = (
    ("densitometer.cli", "analyze", "weights.analyze", None, False),
    ("densitometer.cli", "choose_subsequence", "auxfn.choose_subsequence", _selection, False),
    ("densitometer", "choose_subsequence", "auxfn.choose_subsequence", _selection, False),
    ("densitometer.cli", "build_rate_function", "auxfn.build_rate_function", None, False),
    ("densitometer", "build_rate_function", "auxfn.build_rate_function", None, False),
    ("densitometer.cli", "series_diagnostics", "auxfn.series_diagnostics", None, False),
    ("densitometer.cli", "little_o_check", "auxfn.little_o_check", None, False),
    ("densitometer.cli", "build_packing", "setmodel.build_packing", _model, False),
    ("densitometer", "build_packing", "setmodel.build_packing", _model, False),
    ("densitometer.setmodel.CompactSetModel", "from_json", "setmodel.from_json", _model, False),
    ("densitometer.cli", "build_cover", "setmodel.build_cover", _cover, False),
    ("densitometer", "build_cover", "setmodel.build_cover", _cover, False),
    ("densitometer.setmodel", "dilate_2d", "dilation.dilate_2d", _union, True),
    ("densitometer.dilation", "atoms", "interval1d.atoms", _atoms, False),
    ("densitometer.scan", "sample_points", "scan.sample_points", _sample, False),
    ("densitometer.cli", "scan_density_bound", "scan.scan_density_bound", _scan_report, True),
    ("densitometer", "scan_density_bound", "scan.scan_density_bound", _scan_report, True),
    ("densitometer.cli", "separation_check", "scan.separation_check", _separation, True),
    ("densitometer", "separation_check", "scan.separation_check", _separation, True),
    ("densitometer.cli", "scan_deficit_envelope", "scan.scan_deficit_envelope", None, True),
    ("densitometer", "scan_deficit_envelope", "scan.scan_deficit_envelope", None, True),
    ("densitometer.scan.ScanReport", "to_csv", "cli.serialize", None, False),
    ("densitometer.scan.SeparationReport", "to_csv", "cli.serialize", None, False),
    ("densitometer.scan.EnvelopeReport", "to_csv", "cli.serialize", None, False),
    ("densitometer.weights.IndexReport", "to_json", "cli.serialize", None, False),
    ("densitometer.setmodel.CompactSetModel", "to_json", "cli.serialize", None, False),
    ("densitometer.auxfn.RateFunction", "to_rows", "cli.serialize", None, False),
)


def _owner(path: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """In-memory span recorder for the worker process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.sampler: RssSampler | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._op: int | str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, op: int | str) -> None:
        """Install the wrappers; spans until end() carry operation id ``op``."""
        self._op = op
        self.sampler = RssSampler()
        for owner_path, attr, name, counters, track_rss in PATCHES:
            owner = _owner(owner_path)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name, counters, track_rss))
            else:
                patched = self._wrap(original, name, counters, track_rss)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def end(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self.sampler is not None:
            self.sampler.stop()
            self.sampler = None
        self._op = None

    def _wrap(self, fn, name, counters, track_rss):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            if track_rss:
                self.sampler.open(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "op": self._op,
                "name": name,
                "start": start,
                "end": end,
                "attrs": counters(args, kwargs, result) if counters else {},
            }
            if track_rss:
                span["peak_rss"] = self.sampler.close(span_id)
            self.spans.append(span)
            return result

        return traced


# -- per-layer metrics from spans -------------------------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def op_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one operation's spans (or of the set-up's)."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    m: dict[str, float] = defaultdict(float)
    n = defaultdict(int)
    mb = 1.0 / (1024 * 1024)
    for s in spans:
        name, a, t = s["name"], s["attrs"], own[s["id"]]
        if name == "weights.analyze":
            m["weights.analyze_s"] += t
        elif name in ("auxfn.choose_subsequence", "auxfn.build_rate_function"):
            m["auxfn.rate_s"] += t
            if "s_scanned" in a:
                m["auxfn.s_scanned"] = a["s_scanned"]
        elif name in ("auxfn.series_diagnostics", "auxfn.little_o_check"):
            m["auxfn.diag_s"] += t
        elif name in ("setmodel.build_packing", "setmodel.from_json"):
            m["setmodel.packing_s"] += t
            m["setmodel.cubes"] = a["cubes"]
            m["setmodel.shelf_rows"] = a["shelf_rows"]
        elif name == "setmodel.build_cover":
            m["setmodel.cover_s"] += t
            for block, residual in a["residuals"]:
                m[f"dilation.identity_residual.block{block}"] = residual
        elif name == "dilation.dilate_2d":
            b = a["block"]
            m[f"dilation.dilate_2d_s.block{b}"] += t
            m[f"dilation.rects.block{b}"] = a["rects"]
            m[f"dilation.columns.block{b}"] = a["columns"]
            if a["columns"]:
                m[f"dilation.section_reuse.block{b}"] = 1.0 - a["sections"] / a["columns"]
            m[f"dilation.peak_rss_mb.block{b}"] = s["peak_rss"] * mb
        elif name == "interval1d.atoms":
            b = by_id[s["parent"]]["attrs"].get("block") if s["parent"] in by_id else None
            m[f"interval1d.atoms_s.block{b}"] += t
            m[f"interval1d.cells.block{b}"] = a["cells"]
            m[f"interval1d.label_total.block{b}"] = a["label_total"]
        elif name == "scan.sample_points":
            m["scan.sample_s"] += t
            m["scan.draws"] += a["draws"]
            n["accepted"] += a["accepted"]
        elif name.startswith("scan."):
            key = {
                "scan.scan_density_bound": "scan.density_s",
                "scan.separation_check": "scan.separation_s",
                "scan.scan_deficit_envelope": "scan.envelope_s",
            }[name]
            m[key] += t
            m["scan.rects"] += a.get("rects", 0)
            for regime in ("applicable", "deferred", "exceptional"):
                if regime in a:
                    m[f"scan.pairs.{regime}"] += a[regime]
            n["touched"] += a.get("touched", 0)
            m["scan.peak_rss_mb"] = max(m["scan.peak_rss_mb"], s["peak_rss"] * mb)
        elif name == "cli.serialize":
            m["cli.serialize_s"] += t
    if m["scan.draws"]:
        m["scan.acceptance"] = n["accepted"] / m["scan.draws"]
    if m["scan.density_s"] + m["scan.separation_s"] > 0.0:
        m["scan.rects_per_s"] = m["scan.rects"] / (m["scan.density_s"] + m["scan.separation_s"])
    if m["scan.pairs.applicable"]:
        m["scan.touched_share"] = n["touched"] / m["scan.pairs.applicable"]
    return {k: v for k, v in m.items() if k in _NAMES}



def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Median over traced operations of each per-layer metric.

    Layers that run only in set-up (the scan-46k cover, for one) take the
    traced set-up's value; a layer that never runs in the workload reads 0.
    """
    grouped = defaultdict(list)
    for s in spans:
        grouped[s["op"]].append(s)
    setup = op_metrics(grouped.pop("setup", []))
    ops = [op_metrics(group) for group in grouped.values()]
    out = {}
    for name, _, _ in PER_LAYER:
        values = [m[name] for m in ops if name in m]
        out[name] = statistics.median(values) if values else setup.get(name, 0.0)
    return out
