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
one precision value and AP does not depend on the order within a tie. An
all-ones or binary score vector (an oracle) credits every positive in a tie
at the tie's last rank.
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
    constants: NormalizationConstants = None

    def to_rows(self, vocab):
        return [(vocab.categories[i].id,
                 float(self.per_class_ap[i]) if self.class_mask[i] else float("nan"),
                 int(self.n_pos[i]), int(self.n_neg[i]))
                for i in range(len(vocab))]


def interval_iou(a, b):
    """Intersection-over-union of two (start, end) intervals in seconds."""
    a0, a1 = a
    b0, b1 = b
    if a0 >= a1 or b0 >= b1:
        raise ValueError(f"degenerate interval: {a}, {b}")
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union


def rank_order(scores, positives):
    """Indices sorting by score descending, equal scores negatives-first."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    # lexsort: last key is primary
    return np.lexsort((positives.astype(np.int8), -scores))


def _positive_steps(pos, sorted_scores):
    """Where a ranked list's positives sit: their ranks; each one's block
    end, the last rank holding its score ('at or above a rank' then
    includes every tied entry, so equal scores share one precision value
    and duplicating a list changes nothing); and for each the index
    (among the positives) of the last positive in its block."""
    ranks = np.flatnonzero(pos)
    bounds = np.flatnonzero(sorted_scores[:-1] != sorted_scores[1:])
    ends = np.append(bounds, len(sorted_scores) - 1)[np.searchsorted(bounds, ranks)]
    return ranks, ends, np.searchsorted(ranks, ends, side="right") - 1


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
    tie: normalized_ap and weighted_ap take it from one list's cumsum,
    report.bootstrap_map_ci from a float32 GEMM (exact below 2**24) for
    every class and a block of resamples at once. The sum over positives
    is numpy's pairwise sum for one list and left to right (cumsum) for a
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
    psum = prec.sum() if prec.ndim == 1 else np.cumsum(prec, axis=0)[-1]
    return np.where(ftot == 0, 1.0, psum / p_div), ptot > 0


def normalized_ap(scores, positives, consts):
    """Normalized AP of one ranked list.

    AP is the mean, over positive entries, of the normalized precision at
    that entry's rank, with recall R = positives at or above the rank /
    total positives and F = negatives at or above / total negatives (0 when
    the list has no negatives). Entries tied in score share one rank.
    """
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    if not positives.any():
        raise ValueError("ranked list has no positive entries")
    # unit weights: tied positives share one precision, so ties need no order
    order = np.argsort(-scores)
    ranks, ends, last = _positive_steps(positives[order], scores[order])
    ap, _ = _ranked_ap(ends + 1, np.ones(len(ranks)), last, len(order),
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
    the pair's subset_constants."""
    n_items, n_classes = scores.shape
    consts = subset_constants(labels)
    per_class = np.full(n_classes, np.nan)
    n_pos = labels.sum(axis=0)
    n_neg = n_items - n_pos
    mask = n_pos > 0
    for c in np.flatnonzero(mask):
        per_class[c] = normalized_ap(scores[:, c], labels[:, c], consts)
    mean_ap = float(per_class[mask].mean()) if mask.any() else float("nan")
    return EvalResult(per_class, mean_ap, mask, n_pos, n_neg, consts)


def aligned_predictions(preds, annotations, what="predictions"):
    """Each annotated video's prediction, in annotation order; raises
    ValueError naming the videos that `preds` (described by `what`) lacks."""
    by_id = {p.video_id: p for p in preds}
    missing = [a.video_id for a in annotations if a.video_id not in by_id]
    if missing:
        raise ValueError(f"missing {what} for {len(missing)} videos: "
                         + ", ".join(missing[:10]))
    return [by_id[a.video_id] for a in annotations]


def aligned_scores(preds, annotations, what="predictions"):
    """(V, C) scores of aligned_predictions."""
    return np.stack([p.scores for p in aligned_predictions(preds, annotations, what)])


def classification_map(preds, annotations, vocab):
    """Video-level mAP: a video is positive for class c iff it contains any
    instance of c.

    preds: list of VideoPredictions covering every annotated video.
    """
    return per_class_eval(aligned_scores(preds, annotations),
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
    """A prediction set's scores on a sample grid."""
    scores: np.ndarray        # (N, C) scores of the nearest predicted frame
    frame_rows: np.ndarray    # (N,) that frame's row in its video's predictions


def frame_labels(annotation, vocab, times):
    """(T, C) bool: sampled time lies inside an instance (closed interval)."""
    labels = np.zeros((len(times), len(vocab)), dtype=bool)
    for inst in annotation.instances:
        c = vocab.index[inst.category]
        labels[:, c] |= (times >= inst.start) & (times <= inst.end)
    return labels


def sample_grid(annotations, vocab, samples_per_video=25):
    """Sample each video at samples_per_video equally spaced times."""
    times = [sample_times(a.duration, samples_per_video) for a in annotations]
    return SampleGrid(np.repeat(np.arange(len(annotations)), samples_per_video),
                      np.concatenate(times),
                      np.vstack([frame_labels(a, vocab, t)
                                 for a, t in zip(annotations, times)]),
                      list(annotations))


def build_localization_items(preds, grid, what="frame predictions"):
    """Look up, for every grid item, the nearest predicted frame (within
    one frame period) of its video."""
    n_videos = len(grid.annotations)
    times = grid.times.reshape(n_videos, -1)
    rows = np.empty(times.shape, dtype=int)
    scores = np.empty(grid.labels.shape)
    per_video = scores.reshape(n_videos, times.shape[1], -1)
    for v, fp in enumerate(aligned_predictions(preds, grid.annotations, what)):
        t = times[v]
        ft = fp.frame_times
        if len(ft) > 1:
            period = float(np.median(np.diff(ft)))
            nearest = np.clip(np.searchsorted(ft, t), 1, len(ft) - 1)
            nearest = np.where(t - ft[nearest - 1] <= ft[nearest] - t,
                               nearest - 1, nearest)
            dist = np.abs(ft[nearest] - t)
            if np.any(dist > period + 1e-9):
                bad = t[dist > period + 1e-9][0]
                raise ValueError(f"{fp.video_id}: no predicted frame within one "
                                 f"frame period of t={bad:.3f}s")
        else:
            nearest = np.zeros(len(t), dtype=int)
        rows[v] = nearest
        per_video[v] = fp.scores[nearest]
    return LocalizationItems(grid.video_index, grid.times, grid.labels,
                             grid.annotations, scores, rows.ravel())


def localization_map(preds, annotations, vocab, samples_per_video=25):
    """Per-frame mAP over all (video, sampled time) items pooled per class."""
    items = build_localization_items(
        preds, sample_grid(annotations, vocab, samples_per_video))
    return per_class_eval(items.scores, items.labels)


# --- weighted AP (video multisets) ---

def weighted_ap(scores, positives, weights, consts):
    """Normalized AP of the list where entry i is repeated weights[i] times.

    Equals normalized_ap on the np.repeat-expanded list up to summation
    order: a weighted positive adds its block's precision weights[i] times,
    summed in rank_order. weights must be non-negative integers summing
    below 2**31; others raise ValueError, as does no positive weight.
    """
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    weights = np.asarray(weights, dtype=float)
    if not (np.all((weights >= 0) & (weights == np.floor(weights)))
            and weights.sum() < 2 ** 31):
        raise ValueError("weights must be non-negative integers summing below 2**31")
    if not weights[positives].any():
        raise ValueError("ranked list has no positive weight")
    order = rank_order(scores, positives)
    w = weights[order]
    ranks, ends, last = _positive_steps(positives[order], scores[order])
    ap, _ = _ranked_ap(np.cumsum(w)[ends], w[ranks], last, w.sum(),
                       consts.n_pos, consts.n_neg)
    return float(ap)


def weighted_classification_map(scores, labels, weights):
    """mAP of the video multiset where video v appears weights[v] times.

    Reference counts are recomputed from the weighted subset. Videos with
    weight 0 are excluded. Used by bootstrap resampling.
    """
    total = float(weights.sum())
    pos_w = weights @ labels
    n_pos = float(pos_w.mean())
    n_neg = float(total - pos_w.mean())
    if n_pos <= 0:
        raise ValueError("resample has no positive labels")
    consts = NormalizationConstants(n_pos, n_neg)
    return float(np.mean([weighted_ap(scores[:, c], labels[:, c], weights, consts)
                          for c in np.flatnonzero(pos_w > 0)]))


def eval_result_csv(result, vocab):
    lines = ["class_id,ap,n_pos,n_neg"]
    for cid, ap, np_, nn in result.to_rows(vocab):
        lines.append(f"{cid},{ap!r},{np_},{nn}")
    return "\n".join(lines) + "\n"
