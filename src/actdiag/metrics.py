"""Core evaluation: interval IOU, normalized average precision, and
classification / per-frame localization mAP.

Normalized precision replaces the raw positive/negative counts of a ranked
list with fixed reference counts, so AP values stay comparable across data
subsets with different label balance:

    prec = R * n_pos / (R * n_pos + F * n_neg)

with R the recall and F the false-positive rate at a rank. With the
reference counts equal to the list's actual counts this reduces exactly to
classical AP.

Tie rule: entries with equal scores share one rank, so tied positives share
one precision value and AP does not depend on the order within a tie. A
positive's block end is the count of entries scoring at or above it, read
from a sort of the list; no full rank order is built. An all-ones or binary
score vector (an oracle) credits every positive in a tie at the tie's last
rank.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NormalizationConstants:
    n_pos: float
    n_neg: float

    def __post_init__(self):
        if self.n_pos <= 0 or self.n_neg < 0:
            raise ValueError(f"bad normalization constants {self}")


@dataclass
class EvalResult:
    per_class_ap: np.ndarray   # (C,), nan where masked
    mean_ap: float             # mean over unmasked classes
    class_mask: np.ndarray     # (C,) bool, True where class had >= 1 positive
    n_pos: np.ndarray          # (C,) actual positive counts
    n_neg: np.ndarray          # (C,) actual negative counts


def interval_iou(a, b):
    """Intersection-over-union of two (start, end) intervals in seconds."""
    a0, a1 = a
    b0, b1 = b
    if a0 >= a1 or b0 >= b1:
        raise ValueError(f"degenerate interval: {a}, {b}")
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union


def _positive_steps(scores, positives):
    """Where a list's positives sit once it is ranked by score, descending,
    read from sorts alone: the positives' indices in rank order (tied
    positives in index order); each one's block end, the count of entries
    scoring at or above it (so equal scores share one precision value and
    duplicating a list changes nothing); and for each the index (among the
    positives) of the last positive in its block."""
    idx = np.flatnonzero(positives)
    pos = scores[idx]
    asc = np.sort(pos)
    desc = asc[::-1]                     # the positives' scores in rank order
    ends = len(scores) - np.searchsorted(np.sort(scores), desc)
    last = len(idx) - 1 - np.searchsorted(asc, desc)
    return idx[np.argsort(-pos, kind="stable")], ends, last


def _ranked_ap(cw_end, wpos, last, total, n_pos, n_neg):
    """The one AP arithmetic: normalized AP of ranked lists, from the
    cumulative weight at each positive's block end.

    Arrays run over the positives, in rank order, along their first axis:
    (P,) for one list, (P, ...) for a batch of lists, P >= 1. cw_end: the
    total weight at or above the positive's block end; wpos: the
    positive's own weight (an integer count; a padding entry of weight 0
    adds nothing); last: the index of the last positive in the positive's
    block, flat over the first last.ndim axes. total (each list's total
    weight), n_pos and n_neg (reference counts) broadcast against the
    batch axes. Returns the APs and whether each list has positive weight
    (its AP is meaningless otherwise).

    Weights are integers, so cw_end is exact whatever the order within a
    tie: normalized_ap takes it as a count from the sorted list, and
    report._resample_maps (the bootstrap and the video curves) from a
    float32 GEMM (exact below 2**24) for every class and a block of weight
    rows at once. The sum over positives
    is numpy's pairwise sum for one list and left to right (_sum_rows) for a
    batch, so a list's AP does not depend on the batch it is in."""
    wpos = np.asarray(wpos, dtype=float)
    cwp = np.cumsum(wpos, axis=0)
    ptot = cwp[-1]
    ftot = total - ptot
    p_div = np.maximum(ptot, 1e-300)
    cwp_end = cwp.reshape(last.size, -1)[last].reshape(cwp.shape)
    recall = cwp_end / p_div
    fp_rate = (cw_end - cwp_end) / np.maximum(ftot, 1e-300)
    num = recall * n_pos
    den = num + fp_rate * n_neg
    prec = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    prec *= wpos
    psum = prec.sum() if prec.ndim == 1 else _sum_rows(prec)
    return np.where(ftot == 0, 1.0, psum / p_div), ptot > 0


def _sum_rows(a):
    """np.cumsum(a, axis=0)[-1] without the prefix array: the rows added left
    to right (a.sum(axis=0) adds pairwise when a row holds one entry)."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def normalized_ap(scores, positives, consts):
    """Normalized AP of one ranked list.

    AP is the mean, over positive entries, of the normalized precision at
    that entry's rank, with recall R = positives at or above the rank /
    total positives and F = negatives at or above / total negatives (0 when
    the list has no negatives). Entries tied in score share one rank.
    """
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape:
        raise ValueError(f"{scores.shape} scores for {positives.shape} positive flags")
    if not positives.any():
        raise ValueError("ranked list has no positive entries")
    idx, ends, last = _positive_steps(scores, positives)
    ap, _ = _ranked_ap(ends, np.ones(len(idx)), last, len(scores),
                       consts.n_pos, consts.n_neg)
    return float(ap)


def labels_matrix(annotations, vocab):
    """(V, C) bool: video v contains an instance of class c."""
    labels = np.zeros((len(annotations), len(vocab)), dtype=bool)
    for v, ann in enumerate(annotations):
        for inst in ann.instances:
            labels[v, vocab.index[inst.category]] = True
    return labels


def subset_constants(labels):
    """Reference counts = average per-class positive/negative counts of the
    evaluated subset, so subset scores are chance-comparable."""
    n_items = labels.shape[0]
    pos = labels.sum(axis=0)
    n_pos = float(pos.mean())
    n_neg = float(n_items - pos.mean())
    if n_pos <= 0:
        raise ValueError("no positive labels in any class")
    return NormalizationConstants(n_pos, n_neg)


def per_class_eval(scores, labels):
    """Per-class AP over an items x classes score/label pair, normalized by
    the pair's subset_constants. scores is an (N, C) array or a function of
    c giving its column c (LocalizationItems.column)."""
    column = scores if callable(scores) else lambda c: scores[:, c]
    n_items, n_classes = labels.shape
    consts = subset_constants(labels)
    per_class = np.full(n_classes, np.nan)
    n_pos = labels.sum(axis=0)
    n_neg = n_items - n_pos
    mask = n_pos > 0
    for c in np.flatnonzero(mask):
        per_class[c] = normalized_ap(column(c), labels[:, c], consts)
    mean_ap = float(per_class[mask].mean()) if mask.any() else float("nan")
    return EvalResult(per_class, mean_ap, mask, n_pos, n_neg)


def aligned_predictions(preds, annotations, what="predictions"):
    """Each annotated video's prediction, in annotation order; raises
    ValueError naming the videos that `preds` (described by `what`) lacks."""
    by_id = {p.video_id: p for p in preds}
    missing = [a.video_id for a in annotations if a.video_id not in by_id]
    if missing:
        raise ValueError(f"missing {what} for {len(missing)} videos: "
                         + ", ".join(missing[:10]))
    return [by_id[a.video_id] for a in annotations]


def classification_map(preds, annotations, vocab):
    """Video-level mAP: a video is positive for class c iff it contains any
    instance of c.

    preds: list of VideoPredictions covering every annotated video.
    """
    rows = aligned_predictions(preds, annotations)
    return per_class_eval(np.stack([p.scores for p in rows]),
                          labels_matrix(annotations, vocab))


def sample_times(duration, n):
    """n equally spaced sample times (interval midpoints) in [0, duration]."""
    return (np.arange(n) + 0.5) * duration / n


GRID_STEP = 0.1   # seconds; the frame-counting grid of attributes and overlap


def grid_times(duration):
    """Times GRID_STEP apart from GRID_STEP / 2 up to, not including, duration."""
    return np.arange(GRID_STEP / 2, duration, GRID_STEP)


@dataclass
class SampleGrid:
    """Equally spaced (video, time) items over an annotation list, the same
    for every prediction set evaluated on it."""
    video_index: np.ndarray   # (N,) index into the annotation list
    times: np.ndarray         # (N,) sampled time in seconds
    labels: np.ndarray        # (N, C) bool, time inside an instance of c
    annotations: list


@dataclass
class LocalizationItems(SampleGrid):
    """A prediction set's scores on a sample grid, read a class at a time."""
    frame_scores: np.ndarray  # (F, C) every predicted frame's scores
    rows: np.ndarray          # (N,) the nearest predicted frame's row in it
    period: np.ndarray        # (V,) each video's frame_period, 0 for one frame
    first: np.ndarray         # (V,) each video's first row in frame_scores
    count: np.ndarray         # (V,) and its number of rows there

    def column(self, c):
        """(N,) the items' scores for class c."""
        return self.frame_scores[self.rows, c]


def frame_labels(annotation, vocab, times):
    """(T, C) bool: sampled time lies inside an instance (closed interval)."""
    labels = np.zeros((len(times), len(vocab)), dtype=bool)
    for inst in annotation.instances:
        c = vocab.index[inst.category]
        labels[:, c] |= (times >= inst.start) & (times <= inst.end)
    return labels


def sample_grid(annotations, vocab, samples_per_video=25):
    """Sample each video at samples_per_video equally spaced times; no
    annotations give an empty grid."""
    times = [sample_times(a.duration, samples_per_video) for a in annotations]
    return SampleGrid(np.repeat(np.arange(len(annotations)), samples_per_video),
                      np.concatenate([np.empty(0), *times]),
                      np.concatenate([np.empty((0, len(vocab)), dtype=bool),
                                      *[frame_labels(a, vocab, t)
                                        for a, t in zip(annotations, times)]]),
                      list(annotations))


def _score_matrix(frames, n_classes):
    """One (F, C) matrix of every video's frame scores and each video's first
    row in it: the matrix that all the scores are row ranges of, as
    corpus.load_predictions hands them out, or else one stack of them."""
    base = frames[0].scores.base
    if isinstance(base, np.ndarray) and base.flags.c_contiguous and base.size % n_classes == 0:
        matrix = base.reshape(-1, n_classes)
        first = [(f.scores.ctypes.data - matrix.ctypes.data) // matrix.strides[0] for f in frames]
        if all(matrix[s:s + len(f.scores)].__array_interface__ == f.scores.__array_interface__
               for f, s in zip(frames, first)):   # the same memory, shape and type
            return matrix, np.array(first)
    return (np.concatenate([f.scores for f in frames], dtype=float),
            np.cumsum([0] + [len(f.scores) for f in frames])[:-1])


def frame_period(times):
    """The spacing of two or more increasing frame times: the middle of the
    sorted spacings, or the mean of the two middle ones, by np.median's
    arithmetic (without the numpy.ma import its first call makes)."""
    d = np.sort(np.diff(times))
    m = len(d) // 2
    return float(d[m] if len(d) % 2 else (d[m - 1] + d[m]) / 2)


def build_localization_items(preds, grid, what="frame predictions"):
    """Look up, for every grid item, the nearest predicted frame (within
    one frame period) of its video."""
    times = grid.times.reshape(len(grid.annotations), -1)
    rows = np.zeros(times.shape, dtype=int)   # a one-frame video's items read its frame
    frames = aligned_predictions(preds, grid.annotations, what)
    matrix, first = _score_matrix(frames, grid.labels.shape[1])
    period = np.zeros(len(frames))
    for v, (fp, t, r) in enumerate(zip(frames, times, rows)):
        ft = fp.frame_times
        if len(ft) == 0:
            raise ValueError(f"{fp.video_id}: no predicted frames")
        if len(ft) > 1:
            nearest = np.clip(np.searchsorted(ft, t), 1, len(ft) - 1)
            nearest = np.where(t - ft[nearest - 1] <= ft[nearest] - t,
                               nearest - 1, nearest)
            period[v] = frame_period(ft)
            far = np.abs(ft[nearest] - t) > period[v] + 1e-9
            if far.any():
                raise ValueError(f"{fp.video_id}: no predicted frame within one "
                                 f"frame period of t={t[far][0]:.3f}s")
            r[:] = nearest
    return LocalizationItems(grid.video_index, grid.times, grid.labels,
                             grid.annotations, matrix, (rows + first[:, None]).ravel(),
                             period, first, np.array([len(f.scores) for f in frames]))


def localization_map(preds, annotations, vocab, samples_per_video=25):
    """Per-frame mAP over all (video, sampled time) items pooled per class."""
    items = build_localization_items(
        preds, sample_grid(annotations, vocab, samples_per_video))
    return per_class_eval(items.column, items.labels)
