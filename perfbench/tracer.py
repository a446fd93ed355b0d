"""Traced in-process run of the condmetrics CLI.

    python3 perfbench/tracer.py RESULT.json -- <condmetrics CLI arguments>

Imports ``condmetrics`` from ``./src``, replaces each module binding listed in
``BINDINGS`` with a timing wrapper, calls ``condmetrics.cli.main`` once and
writes per-layer self times and counts to RESULT.json.  The program's own
files are not changed; a function is wrapped where its caller looks it up,
which is why one function can appear under several modules (``fid`` is
bound in both ``metrics`` and ``evaluate``).  A binding that no longer exists
is listed under ``missing`` and its metrics read 0.

Spans are kept in memory and reduced when the run ends.  A span's self time
is its duration minus the part covered by its child spans, so a layer that
calls into another layer is not charged for it; functions that are not
wrapped are charged to the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


def _file_size(path, *_args, **_kwargs) -> int:
    return os.path.getsize(path)


def _text_bytes(_out, text, *_args, **_kwargs) -> int:
    return len(text.encode())


def _items(_fn, items, *_args, **_kwargs) -> int:
    return len(items) if hasattr(items, "__len__") else 0


def _decomp_work(a, *_args, **_kwargs) -> int:
    m, n = a.shape[-2:]
    return m * n * min(m, n)


_VALIDATE = ("metrics.validate", ())
_PROB_VALIDATE = ("metrics.validate", (("metrics.prob_validate_calls", None),))
_CLASS_SPLIT = ("metrics.class_split", (("metrics.class_split_calls", None),))
_IS_FAMILY = ("metrics.is_family", ())
_CLASS_STATS = ("metrics.class_stats", (("metrics.class_stats_calls", None),))
_ASSIGN = ("matching.assign", ())
_BUILD = ("evaluate.build_report", (("evaluate.build_report_calls", None),))
_EMIT = ("report.emit", ())
_LOAD = ("tensorfile.load", (("tensorfile.bytes_read", _file_size),))

# (module, attribute as the caller looks it up) -> (layer, ((counter, measure), ...))
# A counter with measure None counts calls; otherwise it adds measure(*args).
BINDINGS = {
    ("cli", "load_features"): _LOAD,
    ("cli", "load_labels"): _LOAD,
    ("cli", "load_probabilities"): _LOAD,
    ("cli", "build_report"): _BUILD,
    ("cli", "align_discovered"): ("matching.assign", (("matching.assign_calls", None),)),
    ("cli", "average_class_probabilities"): _ASSIGN,
    ("cli", "report_to_json"): _EMIT,
    ("cli", "report_to_csv"): _EMIT,
    ("cli", "reports_to_json"): _EMIT,
    ("cli", "reports_to_csv"): _EMIT,
    ("cli", "assignment_to_json"): _EMIT,
    ("cli", "_write"): ("report.emit", (("report.bytes_out", _text_bytes),)),
    ("tensorfile", "as_probability_matrix"): _PROB_VALIDATE,
    ("tensorfile", "as_label_vector"): _VALIDATE,
    ("evaluate", "as_probability_matrix"): _PROB_VALIDATE,
    ("evaluate", "as_feature_matrix"): _VALIDATE,
    ("evaluate", "as_label_vector"): _VALIDATE,
    ("evaluate", "build_report"): _BUILD,
    ("evaluate", "label_noise"): ("synth.label_noise", ()),
    ("evaluate", "align_discovered"): ("matching.assign", (("matching.assign_calls", None),)),
    ("evaluate", "inception_score"): _IS_FAMILY,
    ("evaluate", "bcis"): _IS_FAMILY,
    ("evaluate", "wcis"): _IS_FAMILY,
    ("evaluate", "per_class_is"): _IS_FAMILY,
    ("evaluate", "accuracy"): _IS_FAMILY,
    ("evaluate", "class_conditional_stats"): _CLASS_STATS,
    ("metrics", "as_probability_matrix"): _PROB_VALIDATE,
    ("metrics", "as_feature_matrix"): _VALIDATE,
    ("metrics", "as_label_vector"): _VALIDATE,
    ("metrics", "class_index_lists"): _CLASS_SPLIT,
    ("metrics", "class_conditional_stats"): _CLASS_STATS,
    ("metrics", "estimate_gaussian"): ("gaussian.estimate", (("gaussian.estimate_calls", None),)),
    ("metrics", "frechet_distance"): ("gaussian.frechet", (("gaussian.frechet_calls", None),)),
    ("metrics", "ordered_map"): ("parallel.map", (("parallel.map_items", _items),)),
    ("matching", "as_probability_matrix"): _PROB_VALIDATE,
    ("matching", "as_label_vector"): _VALIDATE,
    ("matching", "class_index_lists"): _CLASS_SPLIT,
    ("matching", "hungarian_max"): _ASSIGN,
    ("matching", "_lex_smallest_optimal"): _ASSIGN,
    ("matching", "linear_sum_assignment"): ("matching.assign", (("matching.lsa_solves", None),)),
    ("gaussian", "as_feature_matrix"): _VALIDATE,
    ("gaussian", "_check_psd"): ("gaussian.psd_check", ()),
    ("gaussian", "sqrtm_psd"): ("gaussian.root", (("gaussian.root_calls", None),)),
    ("gaussian", "frechet_distance_raw"): ("gaussian.frechet", ()),
    # numpy.linalg as the gaussian module reaches it through its ``np`` global
    ("gaussian", "np.linalg.eigvalsh"): (
        "gaussian.psd_check",
        (("gaussian.psd_checks", None), ("gaussian.decomp_work", _decomp_work))),
    ("gaussian", "np.linalg.eigh"): (
        "gaussian.root", (("gaussian.decomp_work", _decomp_work),)),
    ("gaussian", "np.linalg.svd"): (
        "gaussian.svd", (("gaussian.svd_calls", None), ("gaussian.decomp_work", _decomp_work))),
}

# Per-layer self-time metrics, by layer.
TIME_METRICS = {
    "tensorfile.load_s": "tensorfile.load",
    "metrics.validate_s": "metrics.validate",
    "metrics.class_split_s": "metrics.class_split",
    "metrics.is_family_s": "metrics.is_family",
    "metrics.class_stats_s": "metrics.class_stats",
    "gaussian.estimate_s": "gaussian.estimate",
    "gaussian.psd_check_s": "gaussian.psd_check",
    "gaussian.root_s": "gaussian.root",
    "gaussian.svd_s": "gaussian.svd",
    "gaussian.frechet_s": "gaussian.frechet",
    "matching.assign_s": "matching.assign",
    "evaluate.build_report_s": "evaluate.build_report",
    "synth.label_noise_s": "synth.label_noise",
    "parallel.map_s": "parallel.map",
    "report.emit_s": "report.emit",
}

COUNT_METRICS = sorted({name for _, counters in BINDINGS.values() for name, _ in counters})


def unit(name: str) -> str:
    """Unit of a per-layer metric; counts and bytes are exact and repeat."""
    if name == "trace.coverage":
        return "ratio"
    if name in ("tensorfile.bytes_read", "report.bytes_out"):
        return "bytes"
    return "s" if name.endswith("_s") else "count"


class _Span:
    __slots__ = ("layer", "parent", "start", "end")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0


class Tracer:
    """Collects spans and counters from the wrappers it hands out."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, counters=()):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for name, measure in counters:
                self.counts[name] += 1 if measure is None else measure(*args, **kwargs)
            stack = self._stack()
            span = _Span(layer, stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def layer_times(self):
        """Self time per layer, and the duration of each layer's outermost spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        self_s = Counter()
        outer_s = Counter()
        for span in self.spans:
            covered, reach = 0.0, span.start
            for start, end in sorted(children[id(span)]):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            self_s[span.layer] += span.end - span.start - covered
            if not _has_ancestor(span, span.layer):
                outer_s[span.layer] += span.end - span.start
        return self_s, outer_s


def _has_ancestor(span: _Span, layer: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.layer == layer:
            return True
        parent = parent.parent
    return False


class _Proxy:
    """Stands in for a module: the given attributes, everything else from it."""

    def __init__(self, target, **overrides):
        self.__dict__["_target"] = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding in BINDINGS that exists; return the missing ones."""
    missing = []
    linalg = defaultdict(dict)
    for (module_name, attr), (layer, counters) in BINDINGS.items():
        label = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(f"condmetrics.{module_name}")
        except ImportError:
            missing.append(label)
            continue
        if attr.startswith("np.linalg."):
            np_mod = getattr(module, "np", None)
            fn = getattr(getattr(np_mod, "linalg", None), attr.rsplit(".", 1)[1], None)
            if fn is None:
                missing.append(label)
            else:
                linalg[module][fn.__name__] = tracer.wrap(layer, fn, counters)
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(label)
            continue
        setattr(module, attr, tracer.wrap(layer, fn, counters))
    for module, fns in linalg.items():
        module.np = _Proxy(module.np, linalg=_Proxy(module.np.linalg, **fns))
    return missing


def layer_metrics(self_s, outer_s, counts, main_s: float, missing) -> dict:
    """Per-layer metrics of one traced run, except the overhead, which needs
    untraced runs to compare with."""
    out = {name: self_s.get(layer, 0.0) for name, layer in TIME_METRICS.items()}
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    reports = counts.get("evaluate.build_report_calls", 0)
    out["evaluate.point_s"] = outer_s.get("evaluate.build_report", 0.0) / reports if reports else 0.0
    out["cli.main_s"] = main_s
    out["trace.coverage"] = sum(t for layer, t in self_s.items() if layer != "cli.main") / main_s
    out["trace.missing"] = len(missing)
    return out


def main(argv) -> int:
    result_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py RESULT.json -- <condmetrics arguments>")
    sys.path.insert(0, str(Path.cwd() / "src"))
    from condmetrics import cli

    tracer = Tracer()
    missing = install(tracer)
    run = tracer.wrap("cli.main", cli.main)
    start = time.perf_counter()
    code = run(cli_args)
    main_s = time.perf_counter() - start
    self_s, outer_s = tracer.layer_times()
    result = {
        "returncode": code,
        "metrics": layer_metrics(self_s, outer_s, tracer.counts, main_s, missing),
        "missing": missing,
        "spans": len(tracer.spans),
    }
    Path(result_path).write_text(json.dumps(result, indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
