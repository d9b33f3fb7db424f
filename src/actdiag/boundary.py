"""Temporal-boundary ambiguity analysis.

The boundary region of an instance [t1, t2] is
B = [t1-a, t1+a] u [t2-a, t2+a] with a = (t2-t1)/3, clipped to the video.
Since 2a < t2-t1 the two sub-intervals never overlap.
"""

from dataclasses import dataclass

import numpy as np

from .metrics import (EvalResult, NormalizationConstants, interval_iou,
                      labels_matrix, normalized_ap, build_localization_items,
                      per_class_eval, sample_grid)
from .stats import pearson_many


@dataclass(frozen=True)
class BoundaryRegion:
    intervals: tuple  # up to two (start, end) pairs, clipped, disjoint


def boundary_region(instance, duration):
    """Boundary region of an instance, clipped to [0, duration]."""
    t1, t2 = instance.start, instance.end
    if not (0 <= t1 < t2 <= duration):
        raise ValueError(f"invalid instance [{t1}, {t2}] in duration {duration}")
    a = (t2 - t1) / 3
    intervals = []
    for lo, hi in ((t1 - a, t1 + a), (t2 - a, t2 + a)):
        lo, hi = max(lo, 0.0), min(hi, duration)
        if hi > lo:
            intervals.append((lo, hi))
    return BoundaryRegion(tuple(intervals))


def _measure_minus(intervals, excluded):
    """Total length of the union of `intervals` minus the union of
    `excluded` (both lists of (start, end))."""
    points = sorted({p for iv in intervals + excluded for p in iv})
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        mid = (lo + hi) / 2
        inside = any(s <= mid <= e for s, e in intervals)
        out = any(s <= mid <= e for s, e in excluded)
        if inside and not out:
            total += hi - lo
    return total


def boundary_excluded_iou(reference, other, duration):
    """IOU of two instances with the reference's boundary region removed
    from both the intersection and the union; nan if nothing remains."""
    excl = list(boundary_region(reference, duration).intervals)
    inter_lo = max(reference.start, other.start)
    inter_hi = min(reference.end, other.end)
    inter = [(inter_lo, inter_hi)] if inter_hi > inter_lo else []
    union = [(reference.start, reference.end), (other.start, other.end)]
    num = _measure_minus(inter, excl)
    den = _measure_minus(union, excl)
    if den == 0:
        return float("nan")
    return num / den


@dataclass
class AgreementRecord:
    video_id: str
    category: str
    iou: float
    boundary_excluded_iou: float
    start_error: float
    end_error: float
    center_covered: float
    matched: bool
    duration_ref: float  # reference instance length, for correlations


def _greedy_match(refs, others):
    """Greedy max-IOU matching of two same-category instance lists."""
    pairs = []
    cand = sorted(((interval_iou((r.start, r.end), (o.start, o.end)), ri, oi)
                   for ri, r in enumerate(refs) for oi, o in enumerate(others)),
                  key=lambda t: (-t[0], t[1], t[2]))
    used_r, used_o = set(), set()
    for iou, ri, oi in cand:
        if ri in used_r or oi in used_o:
            continue
        used_r.add(ri)
        used_o.add(oi)
        pairs.append((ri, oi))
    return pairs, used_r, used_o


def agreement(reference, reannotation, permutations=10000, seed=0):
    """Compare two annotation sets instance by instance.

    Instances are matched within (video, category) greedily by maximum IOU;
    unmatched instances on either side become flagged zero-IOU records.
    Returns (records, summary dict).
    """
    re_by_id = {a.video_id: a for a in reannotation}
    records = []
    for ann in reference:
        other = re_by_id.get(ann.video_id)
        o_insts = list(other.instances) if other is not None else []
        by_cat = {}
        for inst in ann.instances:
            by_cat.setdefault(inst.category, ([], []))[0].append(inst)
        for inst in o_insts:
            by_cat.setdefault(inst.category, ([], []))[1].append(inst)
        for cat, (refs, others) in sorted(by_cat.items()):
            pairs, used_r, used_o = _greedy_match(refs, others)
            for ri, oi in pairs:
                r, o = refs[ri], others[oi]
                c0 = r.start + (r.end - r.start) / 3
                c1 = r.end - (r.end - r.start) / 3
                cov = max(0.0, min(c1, o.end) - max(c0, o.start)) / (c1 - c0)
                records.append(AgreementRecord(
                    ann.video_id, cat,
                    interval_iou((r.start, r.end), (o.start, o.end)),
                    boundary_excluded_iou(r, o, ann.duration),
                    abs(o.start - r.start), abs(o.end - r.end), cov,
                    True, r.end - r.start))
            unmatched = ([r for ri, r in enumerate(refs) if ri not in used_r]
                         + [o for oi, o in enumerate(others) if oi not in used_o])
            for r in unmatched:
                records.append(AgreementRecord(
                    ann.video_id, cat, 0.0, 0.0, float("nan"),
                    float("nan"), 0.0, False, r.end - r.start))
    summary = _agreement_summary(records, permutations, seed)
    return records, summary


def _agreement_summary(records, permutations, seed):
    def moments(vals):
        vals = np.array([v for v in vals if np.isfinite(v)])
        if len(vals) == 0:
            return {"mean": float("nan"), "median": float("nan"), "std": float("nan")}
        return {"mean": float(vals.mean()), "median": float(np.median(vals)),
                "std": float(vals.std())}

    summary = {
        "iou": moments([r.iou for r in records]),
        "iou_noboundary": moments([r.boundary_excluded_iou for r in records]),
        "start_error": moments([r.start_error for r in records]),
        "end_error": moments([r.end_error for r in records]),
        "center_covered": moments([r.center_covered for r in records]),
    }
    # per-video averaged IOU alongside the per-instance mean
    by_vid = {}
    for r in records:
        by_vid.setdefault(r.video_id, []).append(r.iou)
    summary["iou_per_video"] = moments([float(np.mean(v)) for v in by_vid.values()])
    matched = [r for r in records if r.matched]
    if len(matched) >= 3:
        dur = [r.duration_ref for r in matched]
        ys = {"rho_iou_vs_duration": [r.iou for r in matched],
              "rho_start_error_vs_duration": [r.start_error for r in matched]}
        tests = pearson_many([(dur, y) for y in ys.values()], permutations, seed)
        for key, c in zip(ys, tests):
            if c is not None:
                summary[key] = {"rho": c.rho, "p": c.p_value, "n": c.n}
    return summary


def boundary_keep_mask(grid, vocab):
    """(N, C) bool: item i may be evaluated for class c, i.e. its time is
    not inside a boundary region of any instance of c in its video."""
    n_videos = len(grid.annotations)
    keep = np.ones_like(grid.labels, dtype=bool)
    per_video = keep.reshape(n_videos, -1, keep.shape[1])
    times = grid.times.reshape(n_videos, -1)
    for v, ann in enumerate(grid.annotations):
        t = times[v]
        for inst in ann.instances:
            inside = np.zeros(len(t), dtype=bool)
            for s, e in boundary_region(inst, ann.duration).intervals:
                inside |= (t >= s) & (t <= e)
            per_video[v, inside, vocab.index[inst.category]] = False
    return keep


def boundary_excluded_eval(preds, annotations, vocab, samples_per_video=25):
    """localization_map with per-class removal of items that fall inside a
    same-class boundary region."""
    grid = sample_grid(annotations, vocab, samples_per_video)
    return excluded_eval(build_localization_items(preds, grid),
                         boundary_keep_mask(grid, vocab))


def excluded_eval(items, keep):
    """Per-class AP over the items that `keep` (N, C) admits per class."""
    n_pos = (items.labels & keep).sum(axis=0)
    n_neg = (~items.labels & keep).sum(axis=0)
    if n_pos.mean() <= 0:
        raise ValueError("no positive items after boundary exclusion")
    consts = NormalizationConstants(float(n_pos.mean()), float(n_neg.mean()))
    per_class = np.full(keep.shape[1], np.nan)
    mask = n_pos > 0
    for c in np.flatnonzero(mask):
        sel = keep[:, c]
        per_class[c] = normalized_ap(items.column(c)[sel], items.labels[sel, c], consts)
    mean_ap = float(per_class[mask].mean()) if mask.any() else float("nan")
    return EvalResult(per_class, mean_ap, mask, n_pos, n_neg)


def perfect_classifier_localization(annotations, vocab, samples_per_video=25):
    """Localization score of an oracle that emits each video's binary
    class-presence vector at every frame."""
    grid = sample_grid(annotations, vocab, samples_per_video)
    return per_class_eval(labels_matrix(annotations, vocab)[grid.video_index], grid.labels)
