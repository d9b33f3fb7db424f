"""Checks of the program's outputs against computations made here, from
the generator's arrays and the definitions in the actdiag docstrings,
without importing actdiag.

Each check returns a list of failure messages; an empty list passes.
"""

import csv
import json
import math
import os
import re

import numpy as np

from gen import (CLASS_OBJECT, FRAMES_PER_VIDEO, JITTER_CS, N_CLASSES,
                 sample_times, video_labels)

TOL = 1e-9


def normalized_ap(scores, positives, n_pos_ref, n_neg_ref):
    """Normalized AP summed over blocks of equal score, best score first.

    A block's precision uses every entry at or above it, so tied entries
    share one precision whatever the order inside the block; this is the
    metrics.py tie rule without ranking single entries."""
    values, inverse = np.unique(scores, return_inverse=True)
    pos = np.bincount(inverse, weights=positives, minlength=len(values))[::-1]
    neg = np.bincount(inverse, minlength=len(values))[::-1] - pos
    recall = np.cumsum(pos) / pos.sum()
    fp_rate = np.cumsum(neg) / neg.sum() if neg.sum() > 0 else np.zeros(len(pos))
    num = recall * n_pos_ref
    den = num + fp_rate * n_neg_ref
    hit = pos > 0
    return float((pos[hit] * num[hit] / den[hit]).sum() / pos.sum())


def mean_ap(scores, labels):
    """mAP over classes with a positive; the reference counts are the mean
    per-class positive and negative counts of the whole list."""
    n_pos = labels.sum(axis=0)
    ref_pos = float(n_pos.mean())
    ref_neg = float(labels.shape[0] - ref_pos)
    aps = [normalized_ap(scores[:, c], labels[:, c], ref_pos, ref_neg)
           for c in np.flatnonzero(n_pos > 0)]
    return float(np.mean(aps))


def frame_labels(video, times):
    lab = np.zeros((len(times), N_CLASSES), dtype=bool)
    for c, s, e in video.instances:
        lab[:, c] |= (times >= s / 100) & (times <= e / 100)
    return lab


def localization_inputs(corpus, method):
    """Scores and labels of the 25 sampled items per test video; each item
    takes the frame nearest its time, the earlier one on a tie."""
    scores, labels = [], []
    for v, ft, fs in zip(corpus.test, corpus.frame_times[method],
                         corpus.frame_scores[method]):
        times = sample_times(v.duration)
        nearest = np.abs(ft[None, :] - times[:, None]).argmin(axis=1)
        scores.append(fs[nearest])
        labels.append(frame_labels(v, times))
    return np.vstack(scores), np.vstack(labels)


def reference_values(corpus):
    """The mAPs every check compares against, keyed like report.json."""
    labels = video_labels(corpus.test)
    ref = {}
    for m, frames in corpus.frame_scores.items():
        video = np.stack([f.max(axis=0) for f in frames])
        ref[f"{m}.classification_map"] = mean_ap(video, labels)
        ref[f"{m}.localization_map"] = mean_ap(*localization_inputs(corpus, m))
    for m, scores in corpus.video_scores.items():
        ref[f"{m}.classification_map"] = mean_ap(scores, labels)
    if corpus.frame_scores:
        rows = [frame_labels(v, sample_times(v.duration)) for v in corpus.test]
        ref["perfect_classifier_localization_map"] = mean_ap(
            np.repeat(labels.astype(float), FRAMES_PER_VIDEO, axis=0), np.vstack(rows))
    if corpus.video_scores:
        objects = np.zeros((len(corpus.test), N_CLASSES))
        for i, v in enumerate(corpus.test):
            present = {CLASS_OBJECT[c] for c, _, _ in v.instances}
            objects[i] = np.isin(CLASS_OBJECT, sorted(present))
        ref["object_oracle_map"] = mean_ap(objects, labels)
    return ref


def _close(name, got, want, tol=TOL):
    if got is None or not math.isclose(got, want, rel_tol=tol, abs_tol=tol):
        return [f"{name}: program {got!r}, reference {want!r}"]
    return []


def _read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def _p_values(report):
    for rows in report["correlations"].values():
        for r in rows:
            yield f"correlation {r['attribute']}", r["p"]
    if isinstance(report["agreement"], dict):
        for k, v in report["agreement"].items():
            if k.startswith("rho_"):
                yield f"agreement {k}", v["p"]


def check_report(bundle, corpus, ref, expect):
    """Checks on a report bundle. expect names the sections the inputs
    enable: 'frame' (localization, errors, sweep), 'agreement', 'pose'."""
    with open(os.path.join(bundle, "report.json")) as f:
        report = json.load(f)
    bad = []
    methods = sorted(corpus.frame_scores) + sorted(corpus.video_scores)
    for m in methods:
        ev = report["evaluation"][m]
        bad += _close(f"{m} classification_map", ev["classification_map"],
                      ref[f"{m}.classification_map"])
        low, high = ev["classification_map_ci"]
        if not 0 <= low <= high <= 1:
            bad.append(f"{m} CI [{low}, {high}] outside 0 <= low <= high <= 1")
        if "frame" in expect:
            bad += _close(f"{m} localization_map", ev.get("localization_map"),
                          ref[f"{m}.localization_map"])
            sweep = report["smoothing_sweep"][m]
            if not isinstance(sweep, dict) or sweep["fractions"][0] != 0.0:
                bad.append(f"{m} smoothing sweep missing or not starting at 0")
            else:
                bad += _close(f"{m} sweep fraction 0", sweep["loc_map"][0],
                              ev.get("localization_map"), 1e-12)
            if not isinstance(report["error_breakdown"][m], dict):
                bad.append(f"{m} error breakdown skipped")
            for row in _read_csv(os.path.join(bundle, f"errors_{m}.csv")):
                fr = [float(row[k]) for k in row if k != "class_id"]
                if not all(math.isnan(x) for x in fr) and abs(sum(fr) - 1) > 1e-9:
                    bad.append(f"{m} {row['class_id']} error fractions sum to {sum(fr)}")
                    break
            if "boundary_excluded_map" not in ev:
                bad.append(f"{m} boundary exclusion missing")
    if "frame" in expect:
        bad += _close("perfect_classifier_localization_map",
                      report["perfect_classifier_localization_map"],
                      ref["perfect_classifier_localization_map"])
    perms = report["config"]["permutations"]
    p_count = 0
    for name, p in _p_values(report):
        p_count += 1
        if not 1 / (perms + 1) - 1e-15 <= p <= 1:
            bad.append(f"{name} p-value {p} outside [1/(P+1), 1]")
    if p_count == 0:
        bad.append("no permutation p-values in the report")
    single = report["oracles"]["single"]
    wanted = ["object", "verb", "temporal", "intent30", "intent50"]
    if "pose" in expect:
        wanted.append("pose")
    for k in wanted:
        if not isinstance(single.get(k), float):
            bad.append(f"oracle {k}: {single.get(k)!r}")
    if "object_oracle_map" in ref:
        bad += _close("object oracle", single.get("object"), ref["object_oracle_map"])
    if not isinstance(report["overlap"], dict):
        bad.append(f"overlap: {report['overlap']!r}")
    if "agreement" in expect:
        bad += _check_agreement(report, bundle, corpus)
    if "pose" in expect and not report["video_curves"]:
        bad.append("video curves empty although auxiliary records are given")
    return bad


def _check_agreement(report, bundle, corpus):
    if not isinstance(report["agreement"], dict):
        return [f"agreement: {report['agreement']!r}"]
    rows = _read_csv(os.path.join(bundle, "agreement.csv"))
    n_inst = sum(len(v.instances) for v in corpus.test)
    bad = []
    if len(rows) != n_inst:
        bad.append(f"agreement has {len(rows)} records for {n_inst} instances")
    for r in rows:
        err = max(float(r["start_err"]), float(r["end_err"]))
        if not err <= JITTER_CS / 100 + 1e-9:
            bad.append(f"agreement {r['video_id']} {r['class_id']} error {err} "
                       f"beyond the {JITTER_CS / 100} s jitter")
            break
    return bad


def check_eval_stdout(text, corpus, ref):
    """`actdiag eval` prints mAPs to 4 decimals; each must be the reference
    rounded."""
    bad = []
    for m in sorted(corpus.frame_scores):
        for kind in ("classification", "localization"):
            hit = re.search(rf"^{m}: {kind} mAP (\d\.\d{{4}})$", text, re.M)
            want = ref[f"{m}.{kind}_map"]
            if hit is None:
                bad.append(f"{m} {kind} mAP not printed")
            elif abs(float(hit.group(1)) - want) > 0.5e-4 + 1e-12:
                bad.append(f"{m} {kind} mAP printed {hit.group(1)}, reference {want:.6f}")
    return bad
