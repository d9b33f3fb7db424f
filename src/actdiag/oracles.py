"""Perfect-information oracles and their combination with baseline
predictions.

Five oracles, each a lower bound on the value of one kind of ground-truth
side information: the objects interacted with, the verbs executed, the
neighboring activities in time, the video's intent cluster, and the pose
cluster of each frame. The oracles read what a run already holds: the
test and training label matrices, the test sample grid and the posed
training frames. Each returns one (videos, classes) float array with a row
per test video, in annotation order: mask oracles emit {0,1} rows,
distribution oracles per-class scores in [0,1]. combine is the
list form of the combination with a method, kept for callers that hold
VideoPredictions.
"""

from dataclasses import dataclass

import numpy as np

from .attributes import AlignmentError, align_pose, _active_at, _by_video, _confident
from .corpus import VideoPredictions
from .metrics import frame_labels, sample_times

SMOOTHING = 1.0   # additive count per (condition, class) cell
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6   # stop once no centroid moves farther
DIST_BLOCK_BYTES = 1 << 20   # size of one (rows, k, d) difference block


def component_oracle(labels, component_of):
    """(V, C) from (V, C) bool labels: 1 where a class's component (its
    object for vocab.object_of, its verb for vocab.verb_of) is the component
    of one of the video's labelled classes, 0 otherwise."""
    present = labels @ (component_of[:, None] == np.arange(component_of.max() + 1))
    return present[:, component_of].astype(float)


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
    for ann in annotations:
        times = sample_times(ann.duration, samples_per_video)
        active = frame_labels(ann, vocab, times)   # a class counts once per frame
        prior_counts += active.sum(axis=0)
        for t, row in zip(times, active):
            prev, nxt = _neighbors(ann, vocab, t)
            if prev is not None:
                prev_counts[prev] += row
            if nxt is not None:
                next_counts[nxt] += row

    def smooth(rows):
        sm = rows + SMOOTHING
        return sm / sm.sum(axis=-1, keepdims=True)

    return TransitionStats(smooth(prior_counts), smooth(prev_counts),
                           smooth(next_counts), prior_counts, prev_counts,
                           next_counts)


def temporal_oracle(stats, grid, vocab):
    """(V, C): per video of the sample grid, the max over its sampled frames
    of p(a|a_p) * p(a|a_n), with the prior substituted for a missing side."""
    annotations = grid.annotations
    bounds = np.searchsorted(grid.video_index, np.arange(len(annotations) + 1))
    out = np.empty((len(annotations), len(vocab)))
    for v, ann in enumerate(annotations):
        frames = []
        for t in grid.times[bounds[v]:bounds[v + 1]]:
            prev, nxt = _neighbors(ann, vocab, t)
            frames.append((stats.prior if prev is None else stats.cond_prev[prev])
                          * (stats.prior if nxt is None else stats.cond_next[nxt]))
        out[v] = np.max(frames, axis=0)
    return out


def kmeans(points, k, seed=0):
    """Lloyd k-means with seeded greedy spreading (k-means++) init.

    Returns (centroids, assignments). The objective is checked to be
    non-increasing every iteration. The empty clusters of an iteration are
    re-seeded, in cluster order, with _far_points; one left without a
    point keeps its centroid."""
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
    for _ in range(KMEANS_MAX_ITER):
        dist = _sq_dists(points, centroids)
        assign = dist.argmin(axis=1)
        nearest = dist[np.arange(n), assign]
        obj = nearest.sum()
        assert obj <= prev_obj + 1e-9, "k-means objective increased"
        # a stable sort keeps each cluster's members in index order, the
        # rows and order points[assign == j] would give
        order = np.argsort(assign, kind="stable")
        members = points[order]
        bounds = np.searchsorted(assign[order], np.arange(k + 1))
        seeds = _far_points(points, nearest)   # runs on an empty cluster's next()
        moved = 0.0
        for j in range(k):
            lo, hi = bounds[j], bounds[j + 1]
            new = members[lo:hi].mean(axis=0) if hi > lo else next(seeds, centroids[j])
            moved = max(moved, float(np.linalg.norm(new - centroids[j])))
            centroids[j] = new
        if moved < KMEANS_TOL:
            break
        prev_obj = obj
    assign = _sq_dists(points, centroids).argmin(axis=1)
    return centroids, assign


def _far_points(points, nearest):
    """Yield the distinct points at positive distance from their nearest
    centroid (`nearest`, squared), farthest first, ties in index order; as
    none equals a centroid, none collides with a kept cluster."""
    order = np.argsort(-nearest, kind="stable")
    order = order[nearest[order] > 0]
    _, first = np.unique(points[order], axis=0, return_index=True)
    yield from points[order[np.sort(first)]]


def _sq_dists(points, centroids):
    """(n, k) squared distances from each point to each centroid. Each
    entry is ((p - c) ** 2).sum() over the contiguous last axis, as in one
    (n, k, d) broadcast, but taken a block of rows at a time so that the
    difference temporary stays near DIST_BLOCK_BYTES."""
    n, d = points.shape
    k = len(centroids)
    rows = max(1, DIST_BLOCK_BYTES // (k * d * points.itemsize))
    out = np.empty((n, k))
    for lo in range(0, n, rows):
        diff = points[lo:lo + rows, None, :] - centroids[None, :, :]
        np.square(diff, out=diff)
        diff.sum(axis=2, out=out[lo:lo + rows])
    return out


def spectral_cluster(vectors, k, seed=0):
    """Cluster nonnegative vectors by cosine affinity via the symmetric
    normalized graph Laplacian.

    Zero-norm vectors go to a dedicated extra cluster with id k. Returns
    (assignments, degenerate_flag); degenerate means all vectors were
    identical and everything landed in cluster 0."""
    vectors = np.asarray(vectors, dtype=float)
    if (vectors < 0).any():
        raise ValueError("spectral clustering needs nonnegative vectors")
    norms = np.linalg.norm(vectors, axis=1)
    assign = np.full(len(vectors), k, dtype=int)
    idx = np.flatnonzero(norms > 0)
    if len(idx) == 0:
        return assign, True
    unit = vectors[idx] / norms[idx, None]
    if len(idx) < k:
        raise ValueError(f"only {len(idx)} nonzero vectors for k={k}")
    if np.allclose(unit, unit[0]):
        assign[idx] = 0
        return assign, True
    vecs = _spectral_embedding(unit, k)
    row_norm = np.linalg.norm(vecs, axis=1)
    row_norm[row_norm == 0] = 1.0
    _, assign[idx] = kmeans(vecs / row_norm[:, None], k, seed)
    return assign, False


def _spectral_embedding(unit, k):
    """(n, k) top eigenvectors, in ascending eigenvalue order, of the
    normalized affinity D^-1/2 U U^T D^-1/2 of nonnegative unit rows U, D
    its row sums. That matrix is B B^T with B = D^-1/2 U, so they are B's k
    leading left singular vectors: one (n, C) SVD, no n x n matrix."""
    deg = unit @ unit.sum(axis=0)
    u, _, _ = np.linalg.svd(unit / np.sqrt(deg)[:, None], full_matrices=k > unit.shape[1])
    return u[:, k - 1::-1]


@dataclass
class IntentClusters:
    k: int
    distributions: np.ndarray   # (k+1, C) mean member label vector
    prior: np.ndarray           # (C,) global mean label vector


def build_intent_clusters(train_labels, k, seed=0):
    """Spectral-cluster the rows of the (V, C) training label matrix with
    cosine affinity; each cluster's activity distribution is the mean of
    its members' binary label vectors."""
    labels = train_labels.astype(float)
    assign, _ = spectral_cluster(labels, k, seed)
    dists = _cluster_means(labels, assign, k + 1)
    return IntentClusters(k, dists, labels.mean(axis=0))


def _cluster_means(labels, assign, k):
    """(k, C) mean of each cluster's 0/1 label rows, zero for an empty
    cluster. The sums are counts, exact in any order, so each row equals
    labels[assign == j].mean(axis=0)."""
    sums = np.zeros((k, labels.shape[1]))
    np.add.at(sums, assign, labels)
    counts = np.bincount(assign, minlength=k)
    return sums / np.maximum(counts, 1)[:, None]


def intent_oracle(clusters, labels):
    """(V, C): each row of the (V, C) test label matrix is assigned to the
    nearest cluster by cosine similarity, one row at a time, and gets that
    cluster's distribution; zero-label videos get the prior."""
    labels = labels.astype(float)
    dists = clusters.distributions[:clusters.k]
    cnorm = np.linalg.norm(dists, axis=1)
    out = np.tile(clusters.prior, (len(labels), 1))
    for row, vec in zip(out, labels):
        n = np.linalg.norm(vec)
        if n > 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                sim = (dists @ vec) / (cnorm * n)
            row[:] = clusters.distributions[np.argmax(np.nan_to_num(sim, nan=-1.0))]
    return out


@dataclass
class PoseClusters:
    centroids: np.ndarray       # (k, 2*keypoints) aligned pose vectors
    distributions: np.ndarray   # (k, C) mean frame-label indicator
    reference: np.ndarray       # mean pose used for alignment, (keypoints, 3)
    prior: np.ndarray


def _mean_reference(poses):
    """One-pass generalized alignment: align everything to the first pose
    that poses can align to (one that aligns to itself: at least two
    confident keypoints, not all at one point), average, and use the
    average as the reference. Raises AlignmentError when no pose can."""
    _, self_ok = align_pose(poses, poses)
    if not self_ok.any():
        raise AlignmentError("no pose that the others can align to")
    aligned, ok = align_pose(poses, poses[np.argmax(self_ok)])
    mean_xy = aligned[ok].mean(axis=0)
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


def build_pose_clusters(frames, vocab, k=500, seed=0):
    """Cluster the Procrustes-aligned poses of posed training frames (the
    list posed_frames gives) and record each cluster's frame-label
    distribution. Raises AlignmentError when fewer than k poses align to
    the mean reference."""
    if len(frames) < k:
        raise ValueError(f"only {len(frames)} posed training frames for k={k}")
    labs = np.zeros((len(frames), len(vocab)))
    for lab, (ann, t, _) in zip(labs, frames):
        for cid in _active_at(ann, t):
            lab[vocab.index[cid]] = 1.0
    poses = np.stack([pose for _, _, pose in frames])
    reference = _mean_reference(poses)
    aligned, ok = align_pose(poses, reference)
    n_ok = int(ok.sum())
    if n_ok < k:
        raise AlignmentError(f"only {n_ok} posed training frames align for k={k}")
    vecs = aligned[ok].reshape(n_ok, -1)
    labs = labs[ok]
    centroids, assign = kmeans(vecs, k, seed)
    return PoseClusters(centroids, _cluster_means(labs, assign, k), reference,
                        labs.mean(axis=0))


def pose_oracle(clusters, annotations, auxiliary, vocab):
    """(V, C): per frame, the nearest pose centroid's distribution; a
    video's row is the max over its posed frames, the prior when it has
    none. All the test frames are aligned by one call, and those that
    align are assigned by one blocked distance call."""
    by_vid = _by_video(r for r in auxiliary if r.pose is not None)
    poses, owner = [], []
    for i, ann in enumerate(annotations):
        for r in by_vid.get(ann.video_id, ()):
            poses.append(r.pose)
            owner.append(i)
    nearest = np.zeros(0, dtype=int)
    if poses:
        aligned, ok = align_pose(poses, clusters.reference)
        owner = np.array(owner)[ok]
        vecs = aligned[ok].reshape(len(owner), -1)
        nearest = _sq_dists(vecs, clusters.centroids).argmin(axis=1)
    frames = clusters.distributions[nearest]
    bounds = np.searchsorted(owner, np.arange(len(annotations) + 1))
    out = np.empty((len(annotations), len(vocab)))
    for v, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        out[v] = frames[lo:hi].max(axis=0) if hi > lo else clusters.prior
    return out


def squash_scores(scores):
    """Map a (V, C) score array to (0, 1) with a logistic over per-class
    standardized scores; monotone per class, so rankings are preserved."""
    mean = scores.mean(axis=0)
    std = scores.std(axis=0)
    std[std == 0] = 1.0
    return 1.0 / (1.0 + np.exp(-((scores - mean) / std)))


def combine(oracle_preds, baseline_preds):
    """Elementwise product of squashed baseline scores and oracle scores,
    as lists of VideoPredictions; both sets must cover the same videos."""
    o_ids = {p.video_id for p in oracle_preds}
    b_ids = {p.video_id for p in baseline_preds}
    if o_ids != b_ids:
        raise ValueError(f"video coverage mismatch: {sorted(o_ids ^ b_ids)[:10]}")
    squashed = dict(zip([p.video_id for p in baseline_preds],
                        squash_scores(np.stack([p.scores for p in baseline_preds]))))
    return [VideoPredictions(p.video_id, p.scores * squashed[p.video_id])
            for p in oracle_preds]
