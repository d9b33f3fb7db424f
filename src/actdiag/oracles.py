"""Perfect-information oracles and their combination with baseline
predictions.

Five oracles, each a lower bound on the value of one kind of ground-truth
side information: the objects interacted with, the verbs executed, the
neighboring activities in time, the video's intent cluster, and the pose
cluster of each frame. Mask oracles emit {0,1} vectors; distribution
oracles emit per-class scores in [0,1]. All outputs are lists of
VideoPredictions so they can be written out and re-ingested like any
method.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .attributes import AlignmentError, align_pose, _confident
from .corpus import VideoPredictions
from .metrics import labels_matrix, sample_times

SMOOTHING = 1.0   # additive count per (condition, class) cell
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6   # stop once no centroid moves farther


def object_oracle(annotations, vocab):
    """Score 1 for every category whose object occurs among a video's
    ground-truth instance categories' objects, 0 otherwise."""
    return _component_oracle(annotations, vocab, vocab.object_of)


def verb_oracle(annotations, vocab):
    """Object oracle with verb components."""
    return _component_oracle(annotations, vocab, vocab.verb_of)


def _component_oracle(annotations, vocab, component_of):
    out = []
    for ann in annotations:
        present = {component_of[vocab.index[i.category]] for i in ann.instances}
        mask = np.isin(component_of, sorted(present)).astype(float)
        out.append(VideoPredictions(ann.video_id, mask))
    return out


@dataclass
class TransitionStats:
    """First-order activity statistics on a sampled frame grid.

    prior: p(a); cond_prev[a_p]: p(a | previous ended activity = a_p);
    cond_next[a_n]: p(a | next beginning activity = a_n). Rows are
    additively smoothed and normalized to sum to 1. Raw counts are kept for
    verification."""
    prior: np.ndarray          # (C,)
    cond_prev: np.ndarray      # (C, C)
    cond_next: np.ndarray      # (C, C)
    prior_counts: np.ndarray
    prev_counts: np.ndarray
    next_counts: np.ndarray
    prev_totals: np.ndarray    # frames observed per condition
    next_totals: np.ndarray


def _neighbors(ann, vocab, t):
    """(previous, next) category indices around time t, or None.

    Previous: category of the instance that most recently ended strictly
    before t; next: the first to begin strictly after; ties broken by
    category index."""
    prev = best_end = None
    nxt = best_start = None
    for inst in ann.instances:
        c = vocab.index[inst.category]
        if inst.end < t and (best_end is None or inst.end > best_end
                             or (inst.end == best_end and c < prev)):
            prev, best_end = c, inst.end
        if inst.start > t and (best_start is None or inst.start < best_start
                               or (inst.start == best_start and c < nxt)):
            nxt, best_start = c, inst.start
    return prev, nxt


def build_temporal_stats(annotations, vocab, samples_per_video=25):
    """Count (neighbor, active class) co-occurrences over sampled frames of
    the training annotations."""
    n = len(vocab)
    prior_counts = np.zeros(n)
    prev_counts = np.zeros((n, n))
    next_counts = np.zeros((n, n))
    prev_totals = np.zeros(n)
    next_totals = np.zeros(n)
    for ann in annotations:
        times = sample_times(ann.duration, samples_per_video)
        for t in times:
            active = [vocab.index[i.category] for i in ann.instances
                      if i.start <= t <= i.end]
            prev, nxt = _neighbors(ann, vocab, t)
            for a in active:
                prior_counts[a] += 1
                if prev is not None:
                    prev_counts[prev, a] += 1
                if nxt is not None:
                    next_counts[nxt, a] += 1
            if prev is not None:
                prev_totals[prev] += 1
            if nxt is not None:
                next_totals[nxt] += 1

    def smooth(rows):
        sm = rows + SMOOTHING
        return sm / sm.sum(axis=-1, keepdims=True)

    return TransitionStats(smooth(prior_counts), smooth(prev_counts),
                           smooth(next_counts), prior_counts, prev_counts,
                           next_counts, prev_totals, next_totals)


def apply_temporal_oracle(stats, annotation, vocab, samples_per_video=25):
    """Frame score vector proportional to p(a|a_p) * p(a|a_n) with the
    prior substituted for a missing side; video vector is the max over
    frames."""
    times = sample_times(annotation.duration, samples_per_video)
    frames = np.empty((len(times), len(vocab)))
    for i, t in enumerate(times):
        prev, nxt = _neighbors(annotation, vocab, t)
        p = stats.prior if prev is None else stats.cond_prev[prev]
        q = stats.prior if nxt is None else stats.cond_next[nxt]
        frames[i] = p * q
    return VideoPredictions(annotation.video_id, frames.max(axis=0))


def temporal_oracle(stats, annotations, vocab, samples_per_video=25):
    return [apply_temporal_oracle(stats, a, vocab, samples_per_video)
            for a in annotations]


def kmeans(points, k, seed=0):
    """Lloyd k-means with seeded greedy spreading (k-means++) init.

    Returns (centroids, assignments). The objective is checked to be
    non-increasing every iteration; empty clusters are re-seeded with the
    point farthest from its centroid."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0:
            centroids[j] = points[rng.integers(n)]
            continue
        centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    prev_obj = np.inf
    assign = None
    for _ in range(KMEANS_MAX_ITER):
        dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        obj = dist[np.arange(n), assign].sum()
        assert obj <= prev_obj + 1e-9, "k-means objective increased"
        moved = 0.0
        for j in range(k):
            members = points[assign == j]
            if len(members) == 0:
                far = dist[np.arange(n), assign].argmax()
                new = points[far]
            else:
                new = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new - centroids[j])))
            centroids[j] = new
        if moved < KMEANS_TOL:
            break
        prev_obj = obj
    dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = dist.argmin(axis=1)
    return centroids, assign


def spectral_cluster(vectors, k, seed=0):
    """Cluster nonnegative vectors by cosine affinity via the symmetric
    normalized graph Laplacian.

    Zero-norm vectors go to a dedicated extra cluster with id k. Returns
    (assignments, degenerate_flag); degenerate means all vectors were
    identical and everything landed in cluster 0."""
    vectors = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=1)
    assign = np.full(len(vectors), k, dtype=int)
    live = norms > 0
    idx = np.flatnonzero(live)
    if len(idx) == 0:
        return assign, True
    unit = vectors[idx] / norms[idx, None]
    if len(idx) < k:
        raise ValueError(f"only {len(idx)} nonzero vectors for k={k}")
    affinity = np.clip(unit @ unit.T, 0.0, 1.0)
    if np.allclose(affinity, 1.0):
        assign[idx] = 0
        return assign, True
    deg = affinity.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    norm_aff = affinity * inv_sqrt[:, None] * inv_sqrt[None, :]
    # k largest eigenvectors of the normalized affinity = k smallest of L
    if len(idx) > 500:
        _, vecs = scipy.sparse.linalg.eigsh(norm_aff, k=k, which="LA",
                                            v0=np.ones(len(idx)))
    else:
        _, vecs = scipy.linalg.eigh(norm_aff,
                                    subset_by_index=[len(idx) - k, len(idx) - 1])
    row_norm = np.linalg.norm(vecs, axis=1)
    row_norm[row_norm == 0] = 1.0
    embed = vecs / row_norm[:, None]
    _, labels = kmeans(embed, k, seed)
    assign[idx] = labels
    return assign, False


@dataclass
class IntentClusters:
    k: int
    assignments: np.ndarray     # training video -> cluster (k = zero-label bin)
    distributions: np.ndarray   # (k+1, C) mean member label vector
    prior: np.ndarray           # (C,) global mean label vector


def build_intent_clusters(annotations, vocab, k, seed=0):
    """Spectral-cluster training label vectors with cosine affinity; each
    cluster's activity distribution is the mean of its members' binary
    label vectors."""
    labels = labels_matrix(annotations, vocab).astype(float)
    assign, _ = spectral_cluster(labels, k, seed)
    dists = np.zeros((k + 1, len(vocab)))
    for j in range(k + 1):
        members = labels[assign == j]
        if len(members):
            dists[j] = members.mean(axis=0)
    return IntentClusters(k, assign, dists, labels.mean(axis=0))


def intent_oracle(clusters, annotations, vocab):
    """Assign each test video's ground-truth label vector to the nearest
    cluster by cosine similarity and emit that cluster's distribution;
    zero-label videos fall back to the prior."""
    labels = labels_matrix(annotations, vocab).astype(float)
    out = []
    cnorm = np.linalg.norm(clusters.distributions[:clusters.k], axis=1)
    for ann, vec in zip(annotations, labels):
        n = np.linalg.norm(vec)
        if n == 0:
            out.append(VideoPredictions(ann.video_id, clusters.prior.copy()))
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = (clusters.distributions[:clusters.k] @ vec) / (cnorm * n)
        sim = np.nan_to_num(sim, nan=-1.0)
        best = int(np.argmax(sim))
        out.append(VideoPredictions(ann.video_id, clusters.distributions[best].copy()))
    return out


@dataclass
class PoseClusters:
    centroids: np.ndarray       # (k, 2*keypoints) aligned pose vectors
    distributions: np.ndarray   # (k, C) mean frame-label indicator
    reference: np.ndarray       # mean pose used for alignment, (keypoints, 3)
    prior: np.ndarray


def _pose_vector(pose, reference):
    return align_pose(pose, reference).ravel()


def _mean_reference(poses):
    """One-pass generalized alignment: align everything to the first pose
    that poses can align to (one that aligns to itself: at least two
    confident keypoints, not all at one point), average, and use the
    average as the reference. Raises AlignmentError when no pose can."""
    for ref in poses:
        try:
            align_pose(ref, ref)
        except AlignmentError:
            continue
        break
    else:
        raise AlignmentError("no pose that the others can align to")
    aligned = []
    for p in poses:
        try:
            aligned.append(align_pose(p, ref))
        except AlignmentError:
            continue
    mean_xy = np.mean(aligned, axis=0)
    return np.column_stack([mean_xy, np.ones(len(mean_xy))])


def posed_frames(annotations, auxiliary):
    """(annotation, frame time, pose) of each auxiliary record of an
    annotated video whose pose has at least two confident keypoints: the
    frames build_pose_clusters clusters, which needs at least k of them."""
    by_vid = {a.video_id: a for a in annotations}
    out = []
    for r in auxiliary:
        if r.video_id in by_vid and r.pose is not None:
            pose = np.asarray(r.pose)
            if _confident(pose).sum() >= 2:
                out.append((by_vid[r.video_id], r.frame_time, pose))
    return out


def build_pose_clusters(annotations, auxiliary, vocab, k=500, seed=0):
    """Cluster Procrustes-aligned training poses and record each cluster's
    frame-label distribution. Raises AlignmentError when fewer than k
    poses align to the mean reference."""
    poses, frame_labels = [], []
    for ann, t, pose in posed_frames(annotations, auxiliary):
        lab = np.zeros(len(vocab))
        for inst in ann.instances:
            if inst.start <= t <= inst.end:
                lab[vocab.index[inst.category]] = 1.0
        poses.append(pose)
        frame_labels.append(lab)
    if len(poses) < k:
        raise ValueError(f"only {len(poses)} posed training frames for k={k}")
    reference = _mean_reference(poses)
    vecs, labs = [], []
    for p, lab in zip(poses, frame_labels):
        try:
            vecs.append(_pose_vector(p, reference))
            labs.append(lab)
        except AlignmentError:
            continue
    if len(vecs) < k:
        raise AlignmentError(f"only {len(vecs)} posed training frames align for k={k}")
    vecs = np.array(vecs)
    labs = np.array(labs)
    centroids, assign = kmeans(vecs, k, seed)
    dists = np.zeros((k, len(vocab)))
    for j in range(k):
        members = labs[assign == j]
        if len(members):
            dists[j] = members.mean(axis=0)
    return PoseClusters(centroids, dists, reference, labs.mean(axis=0))


def pose_oracle(clusters, annotations, auxiliary, vocab):
    """Per frame, the nearest pose centroid's distribution; video vector is
    the max over posed frames, the prior when a video has none."""
    by_vid = {}
    for r in auxiliary:
        if r.pose is not None:
            by_vid.setdefault(r.video_id, []).append(r)
    out = []
    for ann in annotations:
        frames = []
        for r in by_vid.get(ann.video_id, ()):
            try:
                v = _pose_vector(np.asarray(r.pose), clusters.reference)
            except AlignmentError:
                continue
            d2 = ((clusters.centroids - v) ** 2).sum(axis=1)
            frames.append(clusters.distributions[int(np.argmin(d2))])
        if frames:
            out.append(VideoPredictions(ann.video_id, np.max(frames, axis=0)))
        else:
            out.append(VideoPredictions(ann.video_id, clusters.prior.copy()))
    return out


def squash_scores(preds):
    """Map raw per-class scores to (0, 1) with a logistic over per-class
    standardized scores; monotone per class, so rankings are preserved."""
    scores = np.stack([p.scores for p in preds])
    mean = scores.mean(axis=0)
    std = scores.std(axis=0)
    std[std == 0] = 1.0
    z = (scores - mean) / std
    sq = 1.0 / (1.0 + np.exp(-z))
    return [VideoPredictions(p.video_id, sq[i]) for i, p in enumerate(preds)]


def combine(oracle_preds, baseline_preds):
    """Elementwise product of squashed baseline scores and oracle scores;
    both sets must cover the same videos."""
    o_ids = {p.video_id for p in oracle_preds}
    b_ids = {p.video_id for p in baseline_preds}
    if o_ids != b_ids:
        raise ValueError(f"video coverage mismatch: {sorted(o_ids ^ b_ids)[:10]}")
    squashed = {p.video_id: p.scores for p in squash_scores(baseline_preds)}
    return [VideoPredictions(p.video_id, p.scores * squashed[p.video_id])
            for p in oracle_preds]
