"""Per-category and per-video attributes that condition the diagnostic
curves, including Procrustes-based pose variability.

Poses are arrays of shape (keypoints, 3) holding (x, y, confidence). Only
keypoints confident in both poses (confidence > CONF_THRESHOLD) take part
in alignment, and reflections are not allowed: poses are chiral.
"""

from dataclasses import dataclass

import numpy as np

from .metrics import frame_labels, grid_times

CONF_THRESHOLD = 0.1
MAX_PAIRS = 10000        # pose pairs compared per category, at most


class AlignmentError(ValueError):
    pass


def _confident(pose):
    return np.asarray(pose)[..., 2] > CONF_THRESHOLD


def _matmul(x, y):
    """x @ y over stacked matrices, as products summed over the shared axis
    in index order, so a matrix's product does not depend on the stack."""
    return (x[..., :, :, None] * y[..., None, :, :]).sum(axis=-2)


def _centred(xy, shared):
    """Stacked (P, K, 2) keypoints minus the mean of each configuration's
    shared keypoints, and the norm of the shared part. Every sum runs over
    the keypoint axis in index order (a non-shared keypoint adds 0), the
    order of one configuration's own mean. A norm within the mean's rounding
    error, (m + 1) * sqrt(2m) ulps of the largest coordinate of the m shared
    keypoints, is 0: that configuration is one point."""
    w = shared[..., None]
    m = np.maximum(shared.sum(axis=1), 1)
    centred = xy - ((xy * w).sum(axis=1) / m[:, None])[:, None]
    norm = np.sqrt(((centred * w) ** 2).sum(axis=1).sum(axis=1))
    noise = (m + 1) * np.sqrt(2 * m) * np.finfo(float).eps * np.abs(xy * w).max(
        axis=(1, 2), initial=0.0)
    return centred, np.where(norm > noise, norm, 0.0)


def _fit_similarity(a, b):
    """Best rotation (no reflection) and scale taking each unit-normalized
    pose of the stack b onto the matching one of a, both (P, K, 3).

    Returns (pa, pb, rot, c, shared, ok): every keypoint of a and b centred
    on, and scaled by the norm of, the keypoints confident in both; the
    (P, 2, 2) rotations; the residual terms c; the shared masks; and
    whether each pair can be aligned (at least 2 shared keypoints and
    neither shared configuration at one point). A pair's values do not
    depend on the stack it is in."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shared = _confident(a) & _confident(b)
    pa, na = _centred(a[..., :2], shared)
    pb, nb = _centred(b[..., :2], shared)
    ok = (shared.sum(axis=1) >= 2) & (na > 0) & (nb > 0)
    pa /= np.where(ok, na, 1.0)[:, None, None]
    pb /= np.where(ok, nb, 1.0)[:, None, None]
    w = shared[..., None]
    u, sv, vt = np.linalg.svd(_matmul((pb * w).transpose(0, 2, 1), pa * w))
    d = np.sign(np.linalg.det(_matmul(u, vt)))
    c = sv[:, 0] + d * sv[:, 1]
    rot = _matmul(u * np.stack([np.ones_like(d), d], axis=1)[:, None, :], vt)
    return pa, pb, rot, c, shared, ok


def _procrustes(a, b):
    """Stacked procrustes_distance: (distances, ok) of (P, K, 3) pose
    pairs; a distance is meaningless where ok is False."""
    pa, pb, rot, c, shared, ok = _fit_similarity(a, b)
    resid = (pa - c[:, None, None] * _matmul(pb, rot)) * shared[..., None]
    m = np.maximum(shared.sum(axis=1), 1)
    return np.sqrt((resid ** 2).sum(axis=1).sum(axis=1)) / np.sqrt(m), ok


def procrustes_distance(a, b):
    """Minimum RMS keypoint distance between two poses over translation,
    rotation and uniform scale, on unit-norm centered configurations.

    The residual is formed explicitly (rather than as sqrt(1 - c^2), which
    loses half the significant digits near zero)."""
    a = np.asarray(a, dtype=float)[None]
    b = np.asarray(b, dtype=float)[None]
    dist, ok = _procrustes(a, b)
    if not ok[0]:
        m = int((_confident(a) & _confident(b)).sum())
        if m < 2:
            raise AlignmentError(f"only {m} shared confident keypoints")
        raise AlignmentError("degenerate pose (all keypoints coincide)")
    return float(dist[0])


def align_pose(poses, reference):
    """Similarity-align each pose of a (P, K, 3) stack to one reference
    pose; returns the (P, K, 2) coordinates of every keypoint after its
    fitted transform, and whether each pose aligns (see _fit_similarity)."""
    poses = np.asarray(poses, dtype=float)
    ref = np.broadcast_to(np.asarray(reference, dtype=float), poses.shape)
    _, pb, rot, c, _, ok = _fit_similarity(ref, poses)
    return _matmul(pb * c[:, None, None], rot), ok


def _sample_pairs(n, seed):
    """All unordered pairs of n items if few enough, else a deterministic
    uniform sample of MAX_PAIRS ordered pairs of distinct items."""
    if n * (n - 1) // 2 <= MAX_PAIRS:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < MAX_PAIRS:
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i != j:
            pairs.append((i, j))
    return pairs


def pose_variability(poses, seed=0):
    """Mean pairwise Procrustes distance within a pose set; None when fewer
    than two alignable poses/pairs exist. The sampled pairs are fitted in
    one stacked call."""
    poses = [np.asarray(p) for p in poses if _confident(p).sum() >= 2]
    if len(poses) < 2:
        return None
    stack = np.stack(poses)
    i, j = np.array(_sample_pairs(len(poses), seed)).T
    dists, ok = _procrustes(stack[i], stack[j])
    if not ok.any():
        return None
    return float(np.mean(dists[ok]))


@dataclass
class CategoryAttributes:
    category: str
    train_examples: int
    train_frames: int
    avg_extent: float | None
    object_complexity: int
    verb_complexity: int
    motion: float | None
    pose_variability: float | None
    overlap_rate: float | None


@dataclass
class VideoAttributes:
    video_id: str
    num_actions: int
    person_size: float | None
    multi_person: bool | None
    mean_motion: float | None


def complexity_counts(vocab):
    """Per category: how many *other* categories share its object / verb."""
    obj = np.bincount(vocab.object_of, minlength=vocab.object_count)
    verb = np.bincount(vocab.verb_of, minlength=vocab.verb_count)
    return obj[vocab.object_of] - 1, verb[vocab.verb_of] - 1


def _by_video(records):
    """video_id -> its records, in input order."""
    out = {}
    for r in records:
        out.setdefault(r.video_id, []).append(r)
    return out


def poses_by_category(annotations, auxiliary, vocab):
    """Group auxiliary poses by the categories active at their frame time."""
    by_vid = _by_video(r for r in auxiliary if r.pose is not None)
    out = {c.id: [] for c in vocab.categories}
    for ann in annotations:
        for r in by_vid.get(ann.video_id, ()):
            pose = np.asarray(r.pose)
            for cid in _active_at(ann, r.frame_time):
                out[cid].append(pose)
    return out


def _active_at(ann, t):
    """The categories of ann with an instance active at time t, each once
    however many of its instances overlap there (as in frame_labels)."""
    return dict.fromkeys(i.category for i in ann.instances if i.start <= t <= i.end)


def category_attributes(vocab, train_annotations, auxiliary=None, seed=0):
    """Compute the per-category attribute table from the training split."""
    obj_cx, verb_cx = complexity_counts(vocab)
    n = len(vocab)
    examples = np.zeros(n, dtype=int)
    frames = np.zeros(n, dtype=int)
    overlap = np.zeros(n, dtype=int)
    extents = [[] for _ in range(n)]
    motion_sum = np.zeros(n)
    motion_cnt = np.zeros(n, dtype=int)
    aux_by_vid = _by_video(auxiliary or ())

    for ann in train_annotations:
        present = sorted({vocab.index[i.category] for i in ann.instances})
        active = frame_labels(ann, vocab, grid_times(ann.duration))[:, present]
        frames[present] += active.sum(axis=0)
        overlap[present] += active[active.sum(axis=1) > 1].sum(axis=0)
        for inst in ann.instances:
            c = vocab.index[inst.category]
            examples[c] += 1
            extents[c].append(inst.end - inst.start)
        for r in aux_by_vid.get(ann.video_id, ()):
            if r.motion is None:
                continue
            for cid in _active_at(ann, r.frame_time):
                motion_sum[vocab.index[cid]] += r.motion
                motion_cnt[vocab.index[cid]] += 1

    pose_var = {c.id: None for c in vocab.categories}
    if auxiliary:
        for cid, poses in poses_by_category(train_annotations, auxiliary, vocab).items():
            pose_var[cid] = pose_variability(poses, seed)

    table = {}
    for i, cat in enumerate(vocab.categories):
        table[cat.id] = CategoryAttributes(
            category=cat.id,
            train_examples=int(examples[i]),
            train_frames=int(frames[i]),
            avg_extent=float(np.mean(extents[i])) if extents[i] else None,
            object_complexity=int(obj_cx[i]),
            verb_complexity=int(verb_cx[i]),
            motion=float(motion_sum[i] / motion_cnt[i]) if motion_cnt[i] else None,
            pose_variability=pose_var[cat.id],
            overlap_rate=float(overlap[i] / frames[i]) if frames[i] else None,
        )
    return table


def video_attributes(annotations, auxiliary=None):
    """Per-video attribute table (person size from auxiliary boxes)."""
    aux_by_vid = _by_video(auxiliary or ())
    table = {}
    for ann in annotations:
        recs = aux_by_vid.get(ann.video_id, [])
        heights = [r.person_box[3] for r in recs if r.person_box is not None]
        counts = [r.person_count for r in recs if r.person_count is not None]
        motions = [r.motion for r in recs if r.motion is not None]
        table[ann.video_id] = VideoAttributes(
            video_id=ann.video_id,
            num_actions=len(ann.instances),
            person_size=float(np.mean(heights)) if heights else None,
            multi_person=(max(counts) > 1) if counts else None,
            mean_motion=float(np.mean(motions)) if motions else None,
        )
    return table

