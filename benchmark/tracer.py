"""Run the actdiag CLI in this process with every public actdiag function
wrapped from outside, and write per-layer times and work counts as JSON.

    python3 benchmark/tracer.py LAYERS.json -- <actdiag arguments>

Each module is a layer. A wrapped call's self time (its duration less
that of wrapped calls it makes into other layers) goes to its layer, so
the layers' self times add up to the time spent inside report.main.
Wrappers replace every binding of a function in every actdiag module,
including the names that `from .metrics import ...` copied, so calls
made through those names are timed and counted too. Calls from worker
threads pass through untimed; only the main thread is traced.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict

MODULES = ("corpus", "metrics", "report", "temporal", "boundary",
           "erroranalysis", "attributes", "stats", "oracles")

# Functions whose own inclusive time is a metric, and private functions
# wrapped because a layer metric needs them. None of them recurses.
INCLUSIVE = {
    "corpus.load_vocabulary", "corpus.load_annotations",
    "corpus.load_predictions", "corpus.load_auxiliary",
    "report.bootstrap_map_ci", "report._write_bundle",
    "temporal.smoothing_sweep", "boundary.boundary_excluded_eval",
    "boundary.agreement", "stats.pearson", "oracles.kmeans",
    "oracles.spectral_cluster",
}
# Sub-layers of report: their self time is kept out of report.self_s.
LAYER_OF = {"report.bootstrap_map_ci": "report.bootstrap",
            "report._write_bundle": "report.write"}


class Tracer:
    def __init__(self):
        self.thread = threading.get_ident()
        self.stack = []                     # [layer, time in child layers]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def wrap(self, qual, fn):
        layer = LAYER_OF.get(qual, qual.split(".")[0])
        timed = qual in INCLUSIVE
        stack, calls = self.stack, self.calls
        observe = OBSERVERS.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self.thread:
                return fn(*args, **kwargs)
            calls[qual] += 1
            if not timed and stack and stack[-1][0] == layer:
                # same layer: its self time already runs in the caller
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    stack.pop()
                    self.self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
                    if timed:
                        self.incl_s[qual] += dt
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, modules):
        wrapped = {}
        for mod in modules.values():
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                qual = f"{short}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or qual in INCLUSIVE)):
                    wrapped[obj] = self.wrap(qual, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def layers(self):
        s, i, n = self.self_s, self.incl_s, self.counts
        parse_s = sum(i[f"corpus.{f}"] for f in ("load_vocabulary", "load_annotations",
                                                 "load_predictions", "load_auxiliary"))
        rows = n["prediction_rows"]
        boot = i["report.bootstrap_map_ci"]
        return {
            "corpus.parse_s": parse_s,
            "corpus.prediction_rows": rows,
            "corpus.parse_rows_per_s": rows / i["corpus.load_predictions"]
            if i["corpus.load_predictions"] else 0.0,
            "corpus.annotation_loads": self.calls["corpus.load_annotations"],
            "corpus.self_s": s["corpus"],
            "metrics.eval_s": s["metrics"],
            "metrics.items_builds": self.calls["metrics.build_localization_items"],
            "metrics.items_rows": n["items_rows"],
            "metrics.ap_evals": self.calls["metrics.normalized_ap"]
            + self.calls["metrics.weighted_ap"],
            "report.bootstrap_s": boot,
            "report.bootstrap_class_resamples": n["class_resamples"],
            "report.bootstrap_rate": n["class_resamples"] / boot if boot else 0.0,
            "report.self_s": s["report"],
            "report.write_s": i["report._write_bundle"],
            "temporal.sweep_s": i["temporal.smoothing_sweep"],
            "temporal.smoothed_videos": self.calls["temporal.smooth_predictions"],
            "temporal.self_s": s["temporal"],
            "boundary.exclusion_s": i["boundary.boundary_excluded_eval"],
            "boundary.agreement_s": i["boundary.agreement"],
            "boundary.agreement_records": n["agreement_records"],
            "boundary.self_s": s["boundary"],
            "erroranalysis.s": s["erroranalysis"],
            "erroranalysis.top_items": n["top_items"],
            "stats.permutation_s": i["stats.pearson"],
            "stats.permutations": n["permutations"],
            "stats.self_s": s["stats"],
            "attributes.s": s["attributes"],
            "attributes.procrustes_pairs": self.calls["attributes.procrustes_distance"],
            "oracles.s": s["oracles"],
            "oracles.kmeans_s": i["oracles.kmeans"],
            "oracles.kmeans_points": n["kmeans_points"],
            "oracles.spectral_s": i["oracles.spectral_cluster"],
        }


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _prediction_rows(counts, args, kwargs, result):
    counts["prediction_rows"] += sum(len(p.frame_times) if hasattr(p, "frame_times")
                                     else 1 for p in result)


def _items_rows(counts, args, kwargs, result):
    counts["items_rows"] += len(result.times)


def _class_resamples(counts, args, kwargs, result):
    counts["class_resamples"] += _arg(args, kwargs, 2, "b", 10000) * args[0].shape[1]


def _agreement_records(counts, args, kwargs, result):
    counts["agreement_records"] += len(result[0])


def _top_items(counts, args, kwargs, result):
    counts["top_items"] += int(result.top_n.sum())


def _permutations(counts, args, kwargs, result):
    counts["permutations"] += _arg(args, kwargs, 2, "permutations", 10000)


def _kmeans_points(counts, args, kwargs, result):
    counts["kmeans_points"] += len(args[0])


OBSERVERS = {
    "corpus.load_predictions": _prediction_rows,
    "metrics.build_localization_items": _items_rows,
    "report.bootstrap_map_ci": _class_resamples,
    "boundary.agreement": _agreement_records,
    "erroranalysis.classify_top_predictions": _top_items,
    "stats.pearson": _permutations,
    "oracles.kmeans": _kmeans_points,
}


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        raise SystemExit("usage: tracer.py LAYERS.json -- <actdiag arguments>")
    out, argv = sys.argv[1], sys.argv[3:]
    modules = {m: importlib.import_module(f"actdiag.{m}") for m in MODULES}
    tracer = Tracer()
    tracer.install(modules)
    code = modules["report"].main(argv)
    with open(out, "w") as f:
        json.dump(tracer.layers(), f, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
