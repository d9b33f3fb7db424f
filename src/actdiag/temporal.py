"""Temporal smoothing sweeps, context-benefit measurement, and pairwise
overlap statistics."""

from dataclasses import dataclass

import numpy as np

from .metrics import frame_labels, grid_times, per_class_eval


def window_frames(period, window_fraction, duration):
    """(V,) odd frame counts of centered windows of window_fraction *
    duration seconds over videos of (V,) frame periods
    (LocalizationItems.period) and (V,) durations: the seconds over the
    period, rounded to the nearest odd count >= 1, an even count going
    down. A count within a relative 1e-9 of a whole number is that number,
    so rounding noise cannot settle a tie. Fraction 0, or a video with one
    frame (period 0), gives 1."""
    if not 0 <= window_fraction <= 1:
        raise ValueError(f"window_fraction {window_fraction} outside [0, 1]")
    frames = window_fraction * duration / np.where(period > 0, period, np.inf)
    frames = np.where(abs(frames - frames.round()) <= 1e-9 * frames, frames.round(), frames)
    return np.maximum(2 * np.ceil(frames / 2).astype(int) - 1, 1)


def smooth_predictions(scores, w):
    """A new (F, C) array: each class of the (F, C) scores averaged over a
    centered window of w frames (odd), truncated at the ends."""
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


def sweep_items(items, video_labels, fractions, base_loc, base_cls):
    """Evaluate localization and classification mAP of a frame method's
    localization items across smoothing window fractions (0 is always
    included); the best fraction is the first with the highest
    localization mAP.

    video_labels are the (V, C) labels of the items' annotations. base_loc
    and base_cls are the unsmoothed localization and classification
    results, which every fraction whose window is one frame in every video
    reports. Each distinct set of per-video windows (window_frames) is
    evaluated once. Smoothing keeps frame times, so a smoothed video's
    items are its smoothed frames at the items' rows; one video's rows of
    items.frame_scores are smoothed at a time."""
    fractions = sorted(set(float(f) for f in fractions) | {0.0})
    durations = np.array([a.duration for a in items.annotations])
    rows = items.rows.reshape(len(durations), -1) - items.first[:, None]
    scores = np.empty(rows.shape + video_labels.shape[1:])   # (V, items per video, C)
    video_scores = np.empty(video_labels.shape)
    maps = {(1,) * len(durations): (base_loc.mean_ap, base_cls.mean_ap)}
    loc_maps, cls_maps = [], []
    for f in fractions:
        windows = tuple(window_frames(items.period, f, durations).tolist())
        if windows not in maps:
            for v, (s, n, w) in enumerate(zip(items.first, items.count, windows)):
                frames = items.frame_scores[s:s + n]
                smoothed = frames if w == 1 else smooth_predictions(frames, w)
                scores[v] = smoothed[rows[v]]
                video_scores[v] = smoothed.max(axis=0)
            maps[windows] = (
                per_class_eval(scores.reshape(items.labels.shape), items.labels).mean_ap,
                per_class_eval(video_scores, video_labels).mean_ap)
        loc_maps.append(maps[windows][0])
        cls_maps.append(maps[windows][1])
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
