"""Temporal smoothing sweeps, context-benefit measurement, and pairwise
overlap statistics."""

from dataclasses import dataclass

import numpy as np

from .metrics import (aligned_predictions, frame_labels, frame_period,
                      grid_times, per_class_eval)


def smooth_predictions(scores, times, window_fraction, duration):
    """A new (F, C) array: the (F, C) scores at the (F,) frame times, each
    class averaged over a centered window of window_fraction * duration
    seconds, truncated at the ends. The window is converted to frames by
    metrics.frame_period and rounded to the nearest odd count >= 1;
    fraction 0 is the identity."""
    if not 0 <= window_fraction <= 1:
        raise ValueError(f"window_fraction {window_fraction} outside [0, 1]")
    w = 1
    if window_fraction > 0 and len(times) >= 2:
        frames = window_fraction * duration / frame_period(times)
        w = int(round(frames))
        if w % 2 == 0:
            w += 1 if w < frames else -1
    if w <= 1:
        return scores.copy()
    half = w // 2
    n = scores.shape[0]
    cum = np.vstack([np.zeros((1, scores.shape[1])), np.cumsum(scores, axis=0)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (cum[hi] - cum[lo]) / (hi - lo)[:, None]


@dataclass
class SmoothingSweepResult:
    fractions: list
    loc_map: list
    cls_map: list
    best_fraction: float


def sweep_items(preds, items, video_labels, fractions, base_loc, base_cls):
    """Evaluate localization and classification mAP of the frame
    predictions `preds` across smoothing window fractions (0 is always
    included); the best fraction is chosen by localization mAP.

    items are the localization items of `preds` and video_labels the (V, C)
    labels of their annotations. base_loc and base_cls are the unsmoothed
    localization and classification results, which fraction 0 reports.
    Smoothing keeps frame times, so a smoothed video's items are its
    smoothed frames at the items' frame rows; one video is smoothed at a
    time."""
    fractions = sorted(set(float(f) for f in fractions) | {0.0})
    annotations = items.annotations
    frames = aligned_predictions(preds, annotations, "frame predictions")
    rows = items.frame_rows.reshape(len(annotations), -1)
    scores = np.empty(rows.shape + video_labels.shape[1:])   # (V, items per video, C)
    video_scores = np.empty(video_labels.shape)
    loc_maps, cls_maps = [], []
    for f in fractions:
        if f == 0:
            loc_maps.append(base_loc.mean_ap)
            cls_maps.append(base_cls.mean_ap)
            continue
        for v, (ann, fp) in enumerate(zip(annotations, frames)):
            smoothed = smooth_predictions(fp.scores, fp.frame_times, f, ann.duration)
            scores[v] = smoothed[rows[v]]
            video_scores[v] = smoothed.max(axis=0)
        loc_maps.append(per_class_eval(scores.reshape(items.labels.shape), items.labels).mean_ap)
        cls_maps.append(per_class_eval(video_scores, video_labels).mean_ap)
    return SmoothingSweepResult(fractions, loc_maps, cls_maps,
                                fractions[int(np.argmax(loc_maps))])


def score_context_benefit(scores, labels):
    """(C,) counts: for each action a, how many actions b != a whose
    presence raises a's mean video-level score, over a (V, C) score matrix
    and its (V, C) labels. Pairs where either side of the presence split is
    empty are skipped."""
    n_with = labels.sum(axis=0).astype(float)              # (B,)
    n_without = labels.shape[0] - n_with
    sum_with = scores.T @ labels                           # (A, B)
    sum_all = scores.sum(axis=0)                           # (A,)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_with = sum_with / n_with[None, :]
        mean_without = (sum_all[:, None] - sum_with) / n_without[None, :]
    valid = (n_with > 0) & (n_without > 0)
    gain = np.where(valid[None, :], mean_with - mean_without, -np.inf)
    np.fill_diagonal(gain, -np.inf)
    return (gain > 0).sum(axis=1)


def overlap_stats(annotations, vocab):
    """(C, C) matrix: fraction of grid frames (metrics.grid_times) labeled
    A that are also labeled B; rows of classes with zero frames are nan."""
    n = len(vocab)
    frames = np.zeros(n)
    co = np.zeros((n, n))
    for ann in annotations:
        present = sorted({vocab.index[i.category] for i in ann.instances})
        if not present:
            continue
        active = frame_labels(ann, vocab, grid_times(ann.duration))[:, present]
        cnt = active.T.astype(float) @ active.astype(float)
        frames[present] += np.diag(cnt)
        co[np.ix_(present, present)] += cnt
    with np.errstate(divide="ignore", invalid="ignore"):
        mat = co / frames[:, None]
    np.fill_diagonal(mat, 0.0)
    mat[frames == 0] = np.nan
    return mat
