"""Span tracer that wraps the public functions of the vcfclass modules.

The program itself carries no tracing. ``instrument`` replaces each traced
function in every loaded ``vcfclass`` module namespace that holds it (callers
import functions by name, so patching the defining module alone would miss
them) and puts the originals back when the ``with`` block ends.

A span is one call: ``(id, parent, name, start, end, attrs)``. ``parent`` is
the id of the innermost traced call that was open when this one started,
``start``/``end`` are ``time.perf_counter`` seconds, and ``attrs`` holds the
few values the layer metrics need (row counts, payload bytes, KKT
violations). Spans stay in memory and are written as JSON lines when the run
ends, each tagged with the run id of the pipeline iteration it belongs to.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, attrs_of=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, parent, name, 0.0, 0.0, None, self.run_id]
        self.spans.append(span)
        self._stack.append(sid)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[4] = time.perf_counter()
            span[5] = {"error": True}
            raise
        finally:
            self._stack.pop()
        span[4] = time.perf_counter()
        if attrs_of is not None:
            span[5] = attrs_of(args, kwargs, result)
        return result

    @contextmanager
    def span(self, name):
        """A span around harness code, such as one pipeline stage."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, parent, name, time.perf_counter(), 0.0, None, self.run_id]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            span[4] = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs, run in self.spans:
                fh.write(json.dumps({"run": run, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# what gets wrapped

def _rows(args, kwargs, model):
    return {"rows": int(args[0].shape[0]),
            "support_vectors": int(model.support_vectors.shape[0])}


def _payload_bytes(args, kwargs, grid):
    data = grid.labels if hasattr(grid, "labels") else grid.data
    return {"bytes": int(data.nbytes)}


def _subset_size(args, kwargs, subset):
    return {"selected": len(subset)}


def _kkt(args, kwargs, committee):
    # Final members train to full convergence, so each must certify.
    return {"kkt_violations": sum(m.kkt_violations() for m in committee.members)}


def _folds(args, kwargs, res):
    return {"condition": res.condition, "k": res.k,
            "skipped": len(res.skipped_folds)}


# (module, public function, attrs hook); names in spans are "module.function".
TARGETS = [
    ("grids", "load_labelmap", _payload_bytes),
    ("grids", "load_volume", _payload_bytes),
    ("grids", "check_vertebra_connectivity", None),
    ("frames", "vertebra_frame", None),
    ("morphometry", "column_table", None),
    ("morphometry", "cell_heights", None),
    ("morphometry", "sagittal_heights", None),
    ("densitometry", "mean_density", None),
    ("densitometry", "trabecular_region", None),
    ("densitometry", "density_features", None),
    ("features", "measured_features", None),
    ("features", "assemble", None),
    ("features", "save_table", None),
    ("features", "load_table", None),
    ("folds", "kfold_split", None),
    ("svm", "kernel_matrix", None),
    ("svm", "train_svm", _rows),
    ("committee", "greedy_forward_select", _subset_size),
    ("committee", "train_committee", _kkt),
    ("crossval", "cross_validate", _folds),
    ("evaluation", "compare", None),
    ("evaluation", "emit_report", None),
    ("phantom", "generate_cohort", None),
]
# Methods are wrapped on their class, which every caller shares.
METHOD_TARGETS = [("svm", "SvmModel", "decision_values")]


def _wrap(tracer, name, fn, attrs_of):
    # A plain function set on a class still binds as a method.
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs_of)
    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every call to a traced function through ``tracer`` while the
    block runs; restore the original functions afterwards."""
    import vcfclass.cli  # noqa: F401  (loads every module a stage calls)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "vcfclass" or n.startswith("vcfclass."))]
    undo = []
    try:
        for mod_name, fn_name, attrs_of in TARGETS:
            original = getattr(sys.modules["vcfclass." + mod_name], fn_name)
            wrapped = _wrap(tracer, f"{mod_name}.{fn_name}", original, attrs_of)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
        for mod_name, cls_name, meth in METHOD_TARGETS:
            cls = getattr(sys.modules["vcfclass." + mod_name], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, f"{mod_name}.{cls_name}.{meth}",
                                     original, None))
            undo.append((cls, meth, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pipeline iteration

def _pct(values, q):
    """Percentile ``q`` (0-100) by linear interpolation; 0.0 with no samples."""
    if not values:
        return 0.0
    vals = sorted(values)
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one iteration; see README.md for definitions."""
    by_id = {s[0]: s for s in spans}
    by_name: dict[str, list] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s[4] - s[3] for s in named(name))

    def self_total(name):
        return sum(s[4] - s[3] - child_time.get(s[0], 0.0) for s in named(name))

    def parent_name(s):
        return by_id[s[1]][2] if s[1] is not None else None

    def under(name, ancestor):
        """Spans called ``name`` with ``ancestor`` somewhere above them."""
        out = []
        for s in named(name):
            p = s[1]
            while p is not None:
                if by_id[p][2] == ancestor:
                    out.append(s)
                    break
                p = by_id[p][1]
        return out

    def values(name, key):
        """The ``key`` attribute of every ``name`` span that has one."""
        return [s[5][key] for s in named(name) if s[5] and key in s[5]]

    m: dict[str, float] = {}
    m["grids.load_labelmap.calls"] = len(named("grids.load_labelmap"))
    m["grids.load_labelmap_s"] = total("grids.load_labelmap")
    m["grids.check_vertebra_connectivity_s"] = total("grids.check_vertebra_connectivity")
    m["grids.load_volume_s"] = total("grids.load_volume")
    m["grids.bytes_read"] = (sum(values("grids.load_labelmap", "bytes"))
                             + sum(values("grids.load_volume", "bytes")))

    m["frames.vertebra_frame.calls"] = len(named("frames.vertebra_frame"))
    m["frames.vertebra_frame_s"] = total("frames.vertebra_frame")

    m["morphometry.column_table.calls"] = len(named("morphometry.column_table"))
    m["morphometry.column_table_s"] = total("morphometry.column_table")
    m["morphometry.cell_heights_s"] = total("morphometry.cell_heights")
    m["morphometry.sagittal_heights_s"] = total("morphometry.sagittal_heights")

    m["densitometry.mean_density.calls"] = len(named("densitometry.mean_density"))
    m["densitometry.mean_density_s"] = total("densitometry.mean_density")
    m["densitometry.trabecular_region_s"] = total("densitometry.trabecular_region")
    m["densitometry.density_features_s"] = total("densitometry.density_features")

    studies = named("features.measured_features")
    study_ms = [1e3 * (s[4] - s[3]) for s in studies]
    m["features.study_ms.p50"] = _pct(study_ms, 50)
    m["features.study_ms.p90"] = _pct(study_ms, 90)
    grid_calls = sum(len(named(n)) for n in (
        "frames.vertebra_frame", "morphometry.column_table",
        "densitometry.mean_density", "densitometry.trabecular_region"))
    m["features.grid_calls_per_study"] = grid_calls / len(studies) if studies else 0.0
    m["features.save_table_s"] = total("features.save_table")
    m["features.load_table_s"] = total("features.load_table")

    fits = named("svm.train_svm")
    fit_ms = [1e3 * (s[4] - s[3]) for s in fits]
    m["svm.fits"] = len(fits)
    m["svm.fit_s"] = total("svm.train_svm")
    m["svm.kernel_build_s"] = sum(s[4] - s[3] for s in named("svm.kernel_matrix")
                                  if parent_name(s) == "svm.train_svm")
    m["svm.solve_s"] = self_total("svm.train_svm")
    m["svm.fit_ms.p50"] = _pct(fit_ms, 50)
    m["svm.fit_ms.p99"] = _pct(fit_ms, 99)
    m["svm.rows_per_fit.mean"] = _mean(values("svm.train_svm", "rows"))
    m["svm.support_vectors.mean"] = _mean(values("svm.train_svm", "support_vectors"))
    m["svm.predict_s"] = total("svm.SvmModel.decision_values")
    m["svm.kkt_violations"] = sum(values("committee.train_committee", "kkt_violations"))

    committees = len(named("committee.train_committee"))
    selected = values("committee.greedy_forward_select", "selected")
    selection_fits = len(under("svm.train_svm", "committee.greedy_forward_select"))
    subsets_scored = len(under("folds.kfold_split", "committee.greedy_forward_select"))
    m["committee.selection_s"] = total("committee.greedy_forward_select")
    m["committee.selection_fits"] = selection_fits
    m["committee.selection_fits_per_committee"] = (selection_fits / committees
                                                   if committees else 0.0)
    m["committee.member_fit_s"] = sum(
        s[4] - s[3] for s in fits if parent_name(s) == "committee.train_committee")
    m["committee.features_selected.mean"] = _mean(selected)
    m["committee.selection_yield"] = (sum(selected) / subsets_scored
                                      if subsets_scored else 0.0)

    skipped = sum(values("crossval.cross_validate", "skipped"))
    m["crossval.folds_run"] = sum(values("crossval.cross_validate", "k")) - skipped
    m["crossval.folds_skipped"] = skipped
    for cond in ("measured", "longitudinal", "combined"):
        m[f"crossval.cross_validate_s.{cond}"] = sum(
            s[4] - s[3] for s in named("crossval.cross_validate")
            if s[5] and s[5].get("condition") == cond)

    m["evaluation.compare_s"] = total("evaluation.compare")
    m["evaluation.emit_report_s"] = total("evaluation.emit_report")
    m["phantom.generate_cohort_s"] = total("phantom.generate_cohort")
    return m
