"""CLI entry point: runs the full diagnostic battery over a corpus plus one
or more prediction sets and writes a report bundle.

The bundle is one directory with summary.md (human readable), report.json
(every table, the machine contract), and one CSV per table. Every number in
the summary also appears in a table. Outputs are deterministic given
(inputs, config, seed). No section uses a thread pool; `workers` (--workers)
is accepted for compatibility and changes nothing.

The report is an ordered list of sections, each a function of one
RunContext that loads every input and computes every shared intermediate
at most once. Each CLI subcommand prints what the same context and
sections compute.
"""

import argparse
import json
import os
import re
import shutil
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import attributes as attr_mod
from . import metrics
from . import boundary as boundary_mod
from . import erroranalysis
from . import oracles as oracle_mod
from . import stats as stats_mod
from . import temporal as temporal_mod
from .corpus import (load_annotations, load_auxiliary, load_predictions,
                     load_vocabulary, validate_corpus, dump_video_predictions)
from .metrics import classification_map, eval_result_csv, labels_matrix

DEFAULT_SWEEP = (0.0, 0.01, 0.02, 0.04, 0.08, 0.16)
DEFAULT_INTENT_KS = (30, 50)
POSE_CLUSTERS = 500

# rule -> (suggestion text, the thresholds the rule reads)
RULES = {
    "boundary_sensitivity": (
        "predictions are boundary-sensitive; consider fluid-boundary training",
        ("boundary_gain",)),
    "object_confusion": (
        "confusion among same-object classes; add fine-grained discrimination",
        ("object_rho", "object_p")),
    "temporal_aggregation": ("add temporal aggregation", ()),
    "person_crop": ("add person-centered cropping", ()),
    "sequence_modeling": ("add sequence modeling", ("temporal_gain",)),
}


@dataclass
class RunConfig:
    vocab: str
    test: str
    train: str = None
    predictions: dict = field(default_factory=dict)   # name -> path
    aux: str = None
    reannotations: str = None
    seed: int = 0
    samples_per_video: int = 25
    sweep_fractions: tuple = DEFAULT_SWEEP
    intent_ks: tuple = DEFAULT_INTENT_KS
    pose_k: int = POSE_CLUSTERS
    bootstrap_resamples: int = 10000
    permutations: int = 10000
    bins: int = 6
    out: str = "diagnostics"
    workers: int = 1      # accepted for compatibility; changes nothing

    def __post_init__(self):
        for path in [self.vocab, self.test, self.train, self.aux,
                     self.reannotations, *self.predictions.values()]:
            if path is not None and not os.path.exists(path):
                raise FileNotFoundError(path)


def _is_frame_file(path):
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                return line.startswith("#fps=")
    return False


def _load(path, loader, *args):
    """loader applied to the open file at path; None when there is no path."""
    if not path:
        return None
    with open(path) as f:
        return loader(f, *args)


class MethodResults:
    """One prediction set and the results derived from it, each computed
    on first use."""

    def __init__(self, ctx, name, path):
        self.ctx, self.name = ctx, name
        mode = "frame" if _is_frame_file(path) else "video"
        preds = _load(path, load_predictions, ctx.vocab, mode)
        self.frame = preds if mode == "frame" else None
        self.video = preds if self.frame is None else temporal_mod._maxpool_predictions(preds)

    @cached_property
    def scores(self):
        """(V, C) video scores in test-annotation order."""
        return metrics.aligned_scores(self.video, self.ctx.test,
                                      f"{self.name} predictions")

    @cached_property
    def classification(self):
        return metrics.per_class_eval(self.scores, self.ctx.labels)

    @cached_property
    def items(self):
        return metrics.build_localization_items(self.frame, self.ctx.grid,
                                                f"{self.name} frame predictions")

    @cached_property
    def localization(self):
        return metrics.per_class_eval(self.items.scores, self.items.labels)

    @cached_property
    def boundary_excluded(self):
        return boundary_mod.excluded_eval(self.items, self.ctx.keep)


class RunContext:
    """The inputs of one run and the intermediates that sections share.
    Each is loaded or computed on first use, at most once per run."""

    def __init__(self, config):
        self.config = config

    @cached_property
    def vocab(self):
        return _load(self.config.vocab, load_vocabulary)

    @cached_property
    def test(self):
        return _load(self.config.test, load_annotations, self.vocab)

    @cached_property
    def train(self):
        return _load(self.config.train, load_annotations, self.vocab)

    @cached_property
    def aux(self):
        return _load(self.config.aux, load_auxiliary)

    @cached_property
    def reannotations(self):
        return _load(self.config.reannotations, load_annotations, self.vocab)

    @cached_property
    def methods(self):
        """name -> MethodResults, in name order."""
        return {name: MethodResults(self, name, self.config.predictions[name])
                for name in sorted(self.config.predictions)}

    @cached_property
    def labels(self):
        """(V, C) test video labels."""
        return labels_matrix(self.test, self.vocab)

    @cached_property
    def grid(self):
        """The sampled (video, time) items every localization shares."""
        return metrics.sample_grid(self.test, self.vocab,
                                   self.config.samples_per_video)

    @cached_property
    def keep(self):
        return boundary_mod.boundary_keep_mask(self.grid, self.vocab)

    @cached_property
    def category_table(self):
        ann = self.train if self.train is not None else self.test
        return attr_mod.category_attributes(self.vocab, ann, self.aux,
                                            seed=self.config.seed)

    @cached_property
    def video_table(self):
        return attr_mod.video_attributes(self.test, self.aux)


# --- bootstrap of classification mAP over videos ---

BOOTSTRAP_BLOCK = 32   # resamples per GEMM; 64 raised a 360-video report's peak RSS 2 %


def bootstrap_map_ci(scores, labels, b=10000, level=0.95, seed=0):
    """Percentile bootstrap CI of classification mAP, resampling videos.

    Draws the same resamples as stats.bootstrap_ci (one Generator per
    (seed, index), up to 1 + stats.MAX_RETRIES draws until one holds a
    labelled video, else the same ValueError) and takes, per resample, the
    mAP that metrics.weighted_classification_map gives on its video counts,
    up to the order of each class's sum over positives.

    GEMM form: the step matrix M (K, n) has one row per positive of every
    class, M[j, v] = 1 where video v ranks at or above positive j's block
    end in its class. One float32 GEMM per BOOTSTRAP_BLOCK resamples,
    M @ weights.T, gives every class's cumulative weight at each of its
    positives' block ends, and metrics._ranked_ap turns them into APs,
    each class padded to the largest positive count with zero-weight
    copies of its last positive. Every GEMM entry and partial sum is an
    integer of at most n (a resample's counts sum to n), which float32
    holds exactly for n < 2**24, so the counts do not depend on the BLAS,
    its thread count or its summation order; larger n raises ValueError.
    The sum over each class's positives and the sum over classes run left
    to right, so a resample's mAP does not depend on the block size."""
    n = len(scores)
    if n >= 2 ** 24:
        raise ValueError("bootstrap needs fewer than 2**24 videos")
    weights = np.empty((b, n), dtype=np.float32)
    has_label = labels.any(axis=1)
    for i in range(b):
        rng = np.random.default_rng((seed, i))
        for _ in range(stats_mod.MAX_RETRIES + 1):
            idx = rng.integers(0, n, n)
            if has_label[idx].any():
                break
        else:
            raise ValueError("resample has no positive labels")
        weights[i] = np.bincount(idx, minlength=n)
    maps = _resample_maps(scores, labels, weights)
    alpha = (1 - level) / 2
    low, high = np.quantile(maps, [alpha, 1 - alpha])
    return float(low), float(high)


def _resample_maps(scores, labels, weights):
    """mAP under every row of weights, (b, n) float32 video counts each
    summing to n, in the GEMM form of bootstrap_map_ci."""
    n = weights.shape[1]
    npos = (weights @ labels.astype(np.float32)).astype(np.int64).mean(axis=1)
    nneg = n - npos
    classes = np.flatnonzero(labels.any(axis=0))     # no other class is ever live
    counts = labels[:, classes].sum(axis=0)
    width, n_live = counts.max(), len(classes)
    step = np.empty((counts.sum(), n), dtype=np.float32)
    # (positive, class) -> its step row, its video, its block's last positive
    rows, items, last = (np.empty((width, n_live), dtype=np.intp) for _ in range(3))
    rank_of = np.empty(n, dtype=np.intp)
    start = 0
    for k, c in enumerate(classes):
        o = metrics.rank_order(scores[:, c], labels[:, c])
        ranks, ends, lst = metrics._positive_steps(labels[o, c], scores[o, c])
        rank_of[o] = np.arange(n)
        step[start:start + len(ranks)] = rank_of <= ends[:, None]
        pad = np.minimum(np.arange(width), len(ranks) - 1)   # repeat the last positive
        rows[:, k], items[:, k], last[:, k] = start + pad, o[ranks][pad], lst[pad] * n_live + k
        start += len(ranks)
    real = (np.arange(width)[:, None] < counts)[..., None]   # padding has weight 0
    maps = np.empty(len(weights))
    for s in range(0, len(weights), BOOTSTRAP_BLOCK):
        block = slice(s, s + BOOTSTRAP_BLOCK)
        w = weights[block].T.copy()                          # (n, resamples)
        ap, live = metrics._ranked_ap((step @ w)[rows], w[items] * real, last, n,
                                      npos[block], nneg[block])
        # cumsum adds left to right in class order
        maps[block] = np.cumsum(np.where(live, ap, 0.0), axis=0)[-1] / live.sum(axis=0)
    return maps


def suggest(report):
    """Transparent threshold rules over report quantities.

    Rules (per method where the inputs exist):
      boundary_sensitivity: boundary-excluded mAP gain > 0.01
      object_confusion: rho(AP, object_complexity) < -0.2 with p < 0.05
      temporal_aggregation: best smoothing fraction > 0
      person_crop: person-size curve peaks strictly inside the range
      sequence_modeling: temporal-oracle combination gain > 0.05
    """
    th = {"boundary_gain": 0.01, "object_rho": -0.2, "object_p": 0.05,
          "temporal_gain": 0.05}
    out = []

    def rule(rid, method, triggered):
        text, keys = RULES[rid]
        out.append({"rule": rid, "method": method, "triggered": bool(triggered),
                    "text": text, "thresholds": {k: th[k] for k in keys}})

    for name, ev in report.get("evaluation", {}).items():
        loc = ev.get("localization_map")
        bex = ev.get("boundary_excluded_map")
        if loc is not None and bex is not None:
            rule("boundary_sensitivity", name, bex - loc > th["boundary_gain"])
        corr = {r["attribute"]: r for r in report.get("correlations", {}).get(name, [])}
        oc = corr.get("object_complexity")
        if oc is not None:
            rule("object_confusion", name,
                 oc["rho"] < th["object_rho"] and oc["p"] < th["object_p"])
        sweep = report.get("smoothing_sweep", {}).get(name)
        if sweep is not None and not isinstance(sweep, str):
            rule("temporal_aggregation", name, sweep["best_fraction"] > 0)
        curve = report.get("video_curves", {}).get(f"{name}:person_size")
        if curve:
            ys = [r["map"] for r in curve]
            peak = int(np.nanargmax(ys)) if np.isfinite(ys).any() else 0
            rule("person_crop", name, 0 < peak < len(ys) - 1)
        ora = report.get("oracles", {}).get("combined", {})
        key = f"temporal+{name}"
        base = ev.get("classification_map")
        if key in ora and base is not None:
            rule("sequence_modeling", name, ora[key] - base > th["temporal_gain"])
    return out


CATEGORY_ATTRS = ("train_examples", "train_frames", "avg_extent",
                  "object_complexity", "verb_complexity", "motion",
                  "pose_variability", "overlap_rate")
VIDEO_ATTRS = ("num_actions", "person_size", "multi_person", "mean_motion")


# --- report sections: each maps the context to (report keys, CSV files) ---

def _validation(ctx):
    val = validate_corpus(ctx.test, {n: m.video for n, m in ctx.methods.items()},
                          ctx.aux)
    return {"validation": {"findings": val.findings,
                           "auxiliary_coverage": val.auxiliary_coverage}}, {}


def _evaluation(ctx):
    c = ctx.config
    evaluation, csvs = {}, {}
    for name, m in ctx.methods.items():
        cls = m.classification
        csvs[f"classification_{name}.csv"] = eval_result_csv(cls, ctx.vocab)
        low, high = bootstrap_map_ci(m.scores, ctx.labels, c.bootstrap_resamples,
                                     0.95, c.seed)
        ev = evaluation[name] = {"classification_map": cls.mean_ap,
                                 "classification_map_ci": [low, high]}
        if m.frame is None:
            ev["localization"] = "skipped: no frame predictions"
            continue
        loc, bex = m.localization, m.boundary_excluded
        csvs[f"localization_{name}.csv"] = eval_result_csv(loc, ctx.vocab)
        csvs[f"boundary_excluded_{name}.csv"] = eval_result_csv(bex, ctx.vocab)
        ev["localization_map"] = loc.mean_ap
        ev["boundary_excluded_map"] = bex.mean_ap
        ev["boundary_gain"] = bex.mean_ap - loc.mean_ap
    return {"evaluation": evaluation}, csvs


def _perfect_classifier(ctx):
    res = boundary_mod.perfect_classifier_eval(ctx.grid, ctx.labels)
    return ({"perfect_classifier_localization_map": res.mean_ap},
            {"perfect_classifier_localization.csv": eval_result_csv(res, ctx.vocab)})


def _agreement(ctx):
    if ctx.reannotations is None:
        return {"agreement": "skipped: no re-annotations"}, {}
    records, summary = boundary_mod.agreement(ctx.reannotations, ctx.test,
                                              ctx.config.permutations, ctx.config.seed)
    return {"agreement": summary}, {"agreement.csv": boundary_mod.agreement_csv(records)}


def _error_types(ctx):
    breakdown, csvs = {}, {}
    for name, m in ctx.methods.items():
        if m.frame is None:
            breakdown[name] = "skipped: no frame predictions"
            continue
        bd = erroranalysis.classify_top_items(m.items, ctx.keep, ctx.vocab)
        csvs[f"errors_{name}.csv"] = bd.to_csv(ctx.vocab)
        means = np.nanmean(bd.fractions[bd.mask], axis=0) if bd.mask.any() else \
            np.full(len(erroranalysis.LABELS), np.nan)
        breakdown[name] = dict(zip(erroranalysis.LABELS, [float(v) for v in means]))
    return {"error_breakdown": breakdown}, csvs


def _confusion(ctx):
    confusion, csvs = {}, {}
    for name, m in ctx.methods.items():
        conf = erroranalysis.score_confusion(m.scores, ctx.labels)
        csvs[f"confusion_{name}.csv"] = erroranalysis.confusion_csv(conf, ctx.vocab)
        confusion[name] = {"mean_offdiag": float(np.nanmean(conf))}
    return {"confusion": confusion}, csvs


def _attributes(ctx):
    return ({"category_attributes": "see category_attributes.csv",
             "video_attributes": "see video_attributes.csv"},
            {"category_attributes.csv": attr_mod.category_attributes_csv(ctx.category_table),
             "video_attributes.csv": attr_mod.video_attributes_csv(ctx.video_table)})


def _correlations(ctx):
    """Per method: AP binned by, and correlated with, each category
    attribute, over the classes evaluated."""
    c = ctx.config
    curves, correlations, csvs = {}, {}, {}
    tests = []   # (method, attribute, pairs), tested together below
    for name, m in ctx.methods.items():
        cls = m.classification
        correlations[name] = []
        for attr in CATEGORY_ATTRS:
            pairs = [(float(v), float(cls.per_class_ap[i]))
                     for i, cat in enumerate(ctx.vocab.categories)
                     if cls.class_mask[i]
                     and (v := getattr(ctx.category_table[cat.id], attr)) is not None]
            if len(pairs) >= c.bins:
                curve = stats_mod.bin_by_attribute(pairs, c.bins)
                csvs[f"curve_{name}_{attr}.csv"] = curve.to_csv()
                curves[f"{name}:{attr}"] = [
                    {"x_center": float(x), "y_mean": float(ym), "y_std": float(ys),
                     "n": int(n)}
                    for x, ym, ys, n in zip(curve.x_center, curve.y_mean,
                                            curve.y_std, curve.n)]
            tests.append((name, attr, pairs))
    results = stats_mod.pearson_many(
        [([x for x, _ in pairs], [y for _, y in pairs]) for _, _, pairs in tests],
        c.permutations, c.seed)
    for (name, attr, _), r in zip(tests, results):
        if r is not None:
            correlations[name].append(
                {"attribute": attr, "rho": r.rho, "p": r.p_value, "n": r.n})
    return {"category_curves": curves, "correlations": correlations}, csvs


def _video_curves(ctx):
    """Bin videos by an attribute and compute mAP per bin via weighted
    evaluation of the member subset."""
    bins = ctx.config.bins
    curves = {}
    for name, m in ctx.methods.items():
        for attr in VIDEO_ATTRS:
            pairs = [(float(val), v) for v, ann in enumerate(ctx.test)
                     if (val := getattr(ctx.video_table[ann.video_id], attr)) is not None]
            if len(pairs) < bins:
                continue
            xs = np.array([p[0] for p in pairs])
            idx = np.array([p[1] for p in pairs])
            rows = []
            for members in stats_mod.equal_population_bins(xs, bins):
                w = np.zeros(len(ctx.test), dtype=int)
                w[idx[members]] = 1
                try:
                    m_ap = metrics.weighted_classification_map(m.scores, ctx.labels, w)
                except ValueError:
                    m_ap = float("nan")
                rows.append({"x_center": float(xs[members].mean()), "map": m_ap,
                             "n": len(members)})
            curves[f"{name}:{attr}"] = rows
    return {"video_curves": curves}, {}


def _smoothing(ctx):
    sweeps, csvs = {}, {}
    for name, m in ctx.methods.items():
        if m.frame is None:
            sweeps[name] = "skipped: no frame predictions"
            continue
        sweep = temporal_mod.sweep_items(m.frame, m.items, ctx.labels,
                                         ctx.config.sweep_fractions,
                                         m.localization, m.classification)
        csvs[f"sweep_{name}.csv"] = sweep.to_csv()
        sweeps[name] = {"fractions": sweep.fractions, "loc_map": sweep.loc_map,
                        "cls_map": sweep.cls_map, "best_fraction": sweep.best_fraction}
    return {"smoothing_sweep": sweeps}, csvs


def _context_benefit(ctx):
    benefit, csvs = {}, {}
    for name, m in ctx.methods.items():
        cb = temporal_mod.score_context_benefit(m.scores, ctx.labels)
        csvs[f"context_{name}.csv"] = cb.to_csv(ctx.vocab)
        benefit[name] = {"mean_count": float(cb.counts.mean()), "margin": 0.0}
    return {"context_benefit": benefit}, csvs


def _overlap(ctx):
    if ctx.train is None:
        return {"overlap": "skipped: no training annotations"}, {}
    ov = temporal_mod.overlap_stats(ctx.train, ctx.vocab)
    return ({"overlap": {"mean_offdiag": float(np.nanmean(ov))}},
            {"overlap.csv": erroranalysis.confusion_csv(ov, ctx.vocab)})


def _oracles(ctx):
    c, vocab, test, train = ctx.config, ctx.vocab, ctx.test, ctx.train
    sec = {"single": {}, "combined": {}}
    oracle_preds = {
        "object": oracle_mod.object_oracle(test, vocab),
        "verb": oracle_mod.verb_oracle(test, vocab),
    }
    if train is not None:
        stats = oracle_mod.build_temporal_stats(train, vocab, c.samples_per_video)
        oracle_preds["temporal"] = oracle_mod.temporal_oracle(
            stats, test, vocab, c.samples_per_video)
        nonzero = int((labels_matrix(train, vocab).sum(axis=1) > 0).sum())
        for k in c.intent_ks:
            if nonzero < k:
                sec["single"][f"intent{k}"] = "skipped: too few training videos"
                continue
            clusters = oracle_mod.build_intent_clusters(train, vocab, k, c.seed)
            oracle_preds[f"intent{k}"] = oracle_mod.intent_oracle(clusters, test, vocab)
        if (ctx.aux is not None
                and len(oracle_mod.posed_frames(train, ctx.aux)) >= c.pose_k):
            try:
                pc = oracle_mod.build_pose_clusters(train, ctx.aux, vocab, c.pose_k,
                                                    c.seed)
            except attr_mod.AlignmentError as e:
                sec["single"]["pose"] = f"skipped: {e}"
            else:
                oracle_preds["pose"] = oracle_mod.pose_oracle(pc, test, ctx.aux, vocab)
        else:
            sec["single"]["pose"] = "skipped: not enough posed frames"
    else:
        sec["single"]["temporal"] = "skipped: no training annotations"

    test_ids = {a.video_id for a in test}
    annotated = {name: [p for p in m.video if p.video_id in test_ids]
                 for name, m in ctx.methods.items()}
    csvs = {}
    for oname, preds in oracle_preds.items():
        sec["single"][oname] = classification_map(preds, test, vocab).mean_ap
        csvs[f"oracle_{oname}.preds"] = dump_video_predictions(preds)
        for mname, sub in annotated.items():
            combined = oracle_mod.combine(preds, sub)
            sec["combined"][f"{oname}+{mname}"] = classification_map(combined, test,
                                                                     vocab).mean_ap
    rows = ["oracle,map"] + [f"{k},{v!r}" for k, v in sec["single"].items()
                             if not isinstance(v, str)]
    rows += ["combination,map"] + [f"{k},{v!r}" for k, v in sec["combined"].items()]
    csvs["oracle_eval.csv"] = "\n".join(rows) + "\n"
    return {"oracles": sec}, csvs


SECTIONS = (_validation, _evaluation, _perfect_classifier, _agreement,
            _error_types, _confusion, _attributes, _correlations, _video_curves,
            _smoothing, _context_benefit, _overlap, _oracles)


def run_report(config):
    """Execute the full battery and write the bundle; returns the report
    dict. Any module failure aborts before anything is written."""
    return _report(RunContext(config))


def _report(ctx):
    c = ctx.config
    _check_out(c.out)
    report = {"config": {
        "seed": c.seed, "samples_per_video": c.samples_per_video,
        "sweep_fractions": list(c.sweep_fractions),
        "intent_ks": list(c.intent_ks),
        "bootstrap_resamples": c.bootstrap_resamples,
        "permutations": c.permutations, "bins": c.bins,
        "methods": sorted(c.predictions),
    }}
    csvs = {}
    for section in SECTIONS:
        fragment, tables = section(ctx)
        report.update(fragment)
        csvs.update(tables)
    report["suggestions"] = suggest(report)
    csvs["suggestions.csv"] = "\n".join(
        ["rule,method,triggered,text"]
        + [f"{r['rule']},{r['method']},{int(r['triggered'])},\"{r['text']}\""
           for r in report["suggestions"]]) + "\n"
    _write_bundle(c.out, report, csvs)
    return report


def _render_summary(report):
    lines = ["# Diagnostic report", ""]
    lines.append(f"Methods: {', '.join(report['config']['methods'])}")
    lines.append(f"Seed: {report['config']['seed']}")
    lines.append("")
    lines.append("## Evaluation")
    for name, ev in report["evaluation"].items():
        ci = ev.get("classification_map_ci")
        lines.append(f"- {name}: classification mAP {ev['classification_map']:.4f}"
                     f" (95% CI [{ci[0]:.4f}, {ci[1]:.4f}])")
        if "localization_map" in ev:
            lines.append(f"  - localization mAP {ev['localization_map']:.4f}, "
                         f"boundary-excluded {ev['boundary_excluded_map']:.4f} "
                         f"(gain {ev['boundary_gain']:.4f})")
    lines.append(f"- perfect-classifier localization oracle: "
                 f"{report['perfect_classifier_localization_map']:.4f}")
    lines.append("")
    if isinstance(report["agreement"], dict):
        ag = report["agreement"]
        lines.append("## Annotator agreement")
        lines.append(f"- mean IOU {ag['iou']['mean']:.4f}, boundary-excluded "
                     f"{ag['iou_noboundary']['mean']:.4f}")
        lines.append("")
    lines.append("## Oracles (classification mAP)")
    for k, v in report["oracles"]["single"].items():
        lines.append(f"- {k}: {v:.4f}" if not isinstance(v, str) else f"- {k}: {v}")
    for k, v in report["oracles"]["combined"].items():
        lines.append(f"- {k}: {v:.4f}")
    lines.append("")
    lines.append("## Suggestions")
    for r in report["suggestions"]:
        flag = "TRIGGERED" if r["triggered"] else "not triggered"
        lines.append(f"- [{flag}] {r['rule']} ({r['method']}; "
                     f"thresholds {r['thresholds']}): {r['text']}")
    lines.append("")
    return "\n".join(lines)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


# Every name a bundle file can have; a test checks each name a report writes.
BUNDLE_NAME = re.compile(
    r"report\.json|summary\.md|oracle_\w+\.preds|(classification|localization|boundary_excluded"
    r"|errors|confusion|curve|sweep|context)_.+\.csv|(perfect_classifier_localization|agreement"
    r"|category_attributes|video_attributes|overlap|oracle_eval|suggestions)\.csv")


def _check_out(out_dir):
    """Refuse an out_dir that is neither absent, empty nor an earlier bundle
    (report.json and otherwise only regular files with bundle names), so no
    file of the user's, such as an input beside a mistaken '.', is replaced."""
    if not os.path.exists(out_dir):
        return
    if os.path.isdir(out_dir):
        with os.scandir(out_dir) as it:
            entries = list(it)
        if not entries or any(e.name == "report.json" for e in entries) and all(
                BUNDLE_NAME.fullmatch(e.name) and e.is_file(follow_symlinks=False)
                for e in entries):
            return
    raise FileExistsError(f"{out_dir} is not a report bundle; refusing to replace it")


def _write_bundle(out_dir, report, csvs):
    """Write the bundle into a new directory beside out_dir, then swap it
    into place (a symlinked out_dir keeps pointing at it), so no file of an
    earlier bundle survives. A failed write removes the new directory and
    leaves out_dir as it was."""
    out = os.path.realpath(out_dir)
    tmp, old = f"{out}.tmp-{os.getpid()}", f"{out}.old-{os.getpid()}"
    os.makedirs(tmp)
    try:
        files = {"report.json": json.dumps(report, indent=2, default=_json_default) + "\n",
                 "summary.md": _render_summary(report), **csvs}
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as f:
                f.write(text)
        if os.path.exists(out):
            os.rename(out, old)
        os.rename(tmp, out)
    except BaseException:
        if os.path.exists(old) and not os.path.exists(out):
            os.rename(old, out)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


# --- CLI subcommands: each prints what the context or a section computed ---

def _print_validate(ctx):
    val = _validation(ctx)[0]["validation"]
    for line in val["findings"] or ["no findings"]:
        print(line)
    if val["auxiliary_coverage"] is not None:
        print(f"auxiliary coverage: {val['auxiliary_coverage']:.3f}")


def _print_eval(ctx):
    for name, m in ctx.methods.items():
        print(f"{name}: classification mAP {m.classification.mean_ap:.4f}")
        if m.frame is not None:
            print(f"{name}: localization mAP {m.localization.mean_ap:.4f}")


def _print_boundary(ctx):
    oracle = _perfect_classifier(ctx)[0]["perfect_classifier_localization_map"]
    print(f"perfect-classifier localization mAP {oracle:.4f}")
    for name, m in ctx.methods.items():
        if m.frame is not None:
            print(f"{name}: localization {m.localization.mean_ap:.4f} -> "
                  f"boundary-excluded {m.boundary_excluded.mean_ap:.4f}")


def _print_agreement(ctx):
    if ctx.reannotations is None:
        raise SystemExit("agreement requires --reannotations")
    print(json.dumps(_agreement(ctx)[0]["agreement"], indent=2, default=_json_default))


def _print_errors(ctx):
    for name, bd in _error_types(ctx)[0]["error_breakdown"].items():
        if isinstance(bd, str):
            print(f"{name}: skipped (no frame predictions)")
        else:
            print(f"{name}: " + " ".join(f"{k}={v:.3f}" for k, v in bd.items()))


def _print_attributes(ctx):
    sys.stdout.write(_attributes(ctx)[1]["category_attributes.csv"])


def _print_correlate(ctx):
    for name, rows in _correlations(ctx)[0]["correlations"].items():
        for row in rows:
            print(f"{name} {row['attribute']}: rho={row['rho']:.3f} "
                  f"p={row['p']:.4f} n={row['n']}")


def _print_oracles(ctx):
    print(json.dumps(_oracles(ctx)[0]["oracles"], indent=2, default=_json_default))


def _print_smooth(ctx):
    for name, sweep in _smoothing(ctx)[0]["smoothing_sweep"].items():
        if isinstance(sweep, str):
            print(f"{name}: skipped (no frame predictions)")
            continue
        for f, lm, cm in zip(sweep["fractions"], sweep["loc_map"], sweep["cls_map"]):
            print(f"{name} fraction={f}: loc {lm:.4f} cls {cm:.4f}")
        print(f"{name} best fraction: {sweep['best_fraction']}")


def _print_context(ctx):
    for name, cb in _context_benefit(ctx)[0]["context_benefit"].items():
        print(f"{name}: mean context benefit {cb['mean_count']:.3f}")


def _print_report(ctx):
    report = _report(ctx)
    print(f"report written to {ctx.config.out}")
    for name, ev in report["evaluation"].items():
        print(f"{name}: classification mAP {ev['classification_map']:.4f}")


VIEWS = {"validate": _print_validate, "eval": _print_eval,
         "boundary": _print_boundary, "agreement": _print_agreement,
         "errors": _print_errors, "attributes": _print_attributes,
         "correlate": _print_correlate, "oracles": _print_oracles,
         "smooth": _print_smooth, "context": _print_context,
         "report": _print_report}


# --- CLI ---

def _add_common(p, train=False):
    p.add_argument("--vocab", required=True)
    p.add_argument("--test", required=True)
    if train:
        p.add_argument("--train")
    p.add_argument("--pred", action="append", default=[],
                   metavar="NAME=PATH")
    p.add_argument("--aux")
    p.add_argument("--reannotations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames-per-video", type=int, default=25)
    p.add_argument("--out", default="diagnostics")
    p.add_argument("--workers", type=int, default=1)


def _parse_preds(pairs):
    if bad := [pair for pair in pairs if "=" not in pair]:
        raise SystemExit(f"--pred expects NAME=PATH, got {bad[0]!r}")
    return dict(pair.split("=", 1) for pair in pairs)


def _config_from_args(args):
    return RunConfig(
        vocab=args.vocab, test=args.test, train=getattr(args, "train", None),
        predictions=_parse_preds(args.pred), aux=args.aux,
        reannotations=args.reannotations, seed=args.seed,
        samples_per_video=args.frames_per_video, out=args.out,
        workers=args.workers,
        bootstrap_resamples=getattr(args, "bootstrap", 10000),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(prog="actdiag",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in VIEWS:
        p = sub.add_parser(cmd)
        _add_common(p, train=cmd in ("attributes", "oracles", "context",
                                     "report", "correlate"))
        if cmd == "report":
            p.add_argument("--bootstrap", type=int, default=10000)
    args = parser.parse_args(argv)
    VIEWS[args.command](RunContext(_config_from_args(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
