import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from actdiag import oracles
from actdiag.attributes import AlignmentError, align_pose
from actdiag.corpus import (ActivityInstance, AuxiliaryRecord,
                            VideoAnnotation, VideoPredictions,
                            load_vocabulary)
from actdiag.metrics import (classification_map, labels_matrix, sample_grid,
                             sample_times)
from actdiag.oracles import (build_intent_clusters,
                             build_pose_clusters, build_temporal_stats,
                             combine, component_oracle, intent_oracle, kmeans,
                             pose_oracle, posed_frames, spectral_cluster,
                             squash_scores, temporal_oracle)

VOCAB = load_vocabulary("""class_id,verb_id,object_id,description
c000,v00,o00,hold cup
c001,v01,o00,drink from cup
c002,v00,o01,hold broom
c003,v02,o02,open door
""")


def ann(vid, duration, *insts):
    return VideoAnnotation(vid, duration,
                           tuple(ActivityInstance(c, s, e) for c, s, e in insts))


def test_object_oracle_masks_shared_object():
    anns = [ann("V1", 10.0, ("c000", 0.0, 5.0))]
    out = component_oracle(labels_matrix(anns, VOCAB), VOCAB.object_of)
    # o00 is shared by c000 and c001; c002/c003 use other objects
    assert list(out[0]) == [1.0, 1.0, 0.0, 0.0]


def test_verb_oracle_masks_shared_verb():
    anns = [ann("V1", 10.0, ("c001", 0.0, 5.0))]
    out = component_oracle(labels_matrix(anns, VOCAB), VOCAB.verb_of)
    # v01 belongs only to c001
    assert list(out[0]) == [0.0, 1.0, 0.0, 0.0]


def test_component_oracle_union_over_instances():
    anns = [ann("V1", 10.0, ("c001", 0.0, 2.0), ("c002", 3.0, 5.0))]
    out = component_oracle(labels_matrix(anns, VOCAB), VOCAB.object_of)
    assert list(out[0]) == [1.0, 1.0, 1.0, 0.0]


def test_temporal_stats_conditional_rows_normalized():
    anns = [ann("V1", 10.0, ("c000", 0.0, 3.0), ("c001", 5.0, 9.0)),
            ann("V2", 10.0, ("c002", 1.0, 4.0), ("c000", 6.0, 9.0))]
    stats = build_temporal_stats(anns, VOCAB)
    assert np.allclose(stats.prior.sum(), 1.0, atol=1e-9)
    assert np.allclose(stats.cond_prev.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(stats.cond_next.sum(axis=1), 1.0, atol=1e-9)


def test_temporal_stats_hand_counts():
    # single video, 25 samples on [0,10): c000 on [0,3], c001 on [5,9]
    anns = [ann("V1", 10.0, ("c000", 0.0, 3.0), ("c001", 5.0, 9.0))]
    stats = build_temporal_stats(anns, VOCAB)
    times = sample_times(10.0, 25)
    # frames where c001 is active and c000 has already ended
    want = int(((times >= 5.0) & (times <= 9.0) & (times > 3.0)).sum())
    assert stats.prev_counts[0, 1] == want
    neighbors = [oracles._neighbors(anns[0], VOCAB, t) for t in times]
    # frames with previous neighbor c000: after 3.0 until c001 ends and
    # takes over as the most recent
    assert sum(p == 0 for p, _ in neighbors) == int(((times > 3.0) & (times <= 9.0)).sum())
    # frames with next neighbor c001 (before its start)
    assert sum(n == 1 for _, n in neighbors) == int((times < 5.0).sum())
    # c000 active while c001 is still upcoming
    want = int(((times >= 0.0) & (times <= 3.0) & (times < 5.0)).sum())
    assert stats.next_counts[1, 0] == want


def test_temporal_stats_count_a_frame_once_per_class():
    # c000 on [0,6] and [2,8] overlap on [2,6]; a frame there is one c000
    # frame, as metrics.frame_labels labels it
    anns = [ann("V1", 10.0, ("c000", 0.0, 6.0), ("c000", 2.0, 8.0),
                ("c001", 9.0, 10.0))]
    stats = build_temporal_stats(anns, VOCAB)
    times = sample_times(10.0, 25)
    in_c000 = times <= 8.0
    assert stats.prior_counts[0] == in_c000.sum() == 20
    # c001, starting at 9, is the next neighbor of every frame after 2
    assert stats.next_counts[1, 0] == (in_c000 & (times > 2.0)).sum() == 15
    # c000's first instance, ended at 6, is the previous neighbor after it
    assert stats.prev_counts[0, 0] == (in_c000 & (times > 6.0)).sum() == 5


def test_temporal_oracle_hand_arithmetic():
    train = [ann("T1", 10.0, ("c000", 0.0, 3.0), ("c001", 5.0, 9.0))]
    stats = build_temporal_stats(train, VOCAB)
    test = ann("V1", 10.0, ("c000", 0.0, 3.0), ("c001", 5.0, 9.0))
    (out,) = temporal_oracle(stats, sample_grid([test], VOCAB), VOCAB)
    times = sample_times(10.0, 25)
    frames = np.empty((len(times), len(VOCAB)))
    for i, t in enumerate(times):
        prev = 1 if t > 9.0 else (0 if t > 3.0 else None)
        nxt = 1 if t < 5.0 else None
        p = stats.prior if prev is None else stats.cond_prev[prev]
        q = stats.prior if nxt is None else stats.cond_next[nxt]
        frames[i] = p * q
    assert np.allclose(out, frames.max(axis=0), atol=1e-9)


def test_temporal_oracle_prior_fallback_isolated_video():
    train = [ann("T1", 10.0, ("c000", 0.0, 3.0))]
    stats = build_temporal_stats(train, VOCAB)
    test = ann("V1", 10.0, ("c003", 0.0, 10.0))
    (out,) = temporal_oracle(stats, sample_grid([test], VOCAB), VOCAB)
    # instance covers the whole video: no neighbors ever, prior^2 everywhere
    assert np.allclose(out, stats.prior ** 2, atol=1e-12)


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.normal(0, 0.1, (20, 2)),
                     rng.normal(5, 0.1, (20, 2)),
                     rng.normal(10, 0.1, (20, 2))])
    _, assign = kmeans(pts, 3, seed=1)
    blocks = [set(assign[:20]), set(assign[20:40]), set(assign[40:])]
    assert all(len(b) == 1 for b in blocks)
    assert len(set().union(*blocks)) == 3


def test_kmeans_deterministic():
    rng = np.random.default_rng(3)
    pts = rng.random((50, 4))
    c1, a1 = kmeans(pts, 5, seed=9)
    c2, a2 = kmeans(pts, 5, seed=9)
    assert np.array_equal(c1, c2) and np.array_equal(a1, a2)


def test_kmeans_k_bounds():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4)
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 0)


def _loop_kmeans(points, k, seed=0, emptied=None):
    """Reference: Lloyd k-means with one full (n, k, d) distance tensor
    and one boolean mask per cluster. The empty clusters of an iteration
    take, in cluster order, the distinct points at positive distance from
    their centroid, farthest first; one left without keeps its centroid.
    Appends to emptied each time a cluster is empty."""
    points = np.asarray(points, dtype=float)
    n = len(points)
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
    for _ in range(oracles.KMEANS_MAX_ITER):
        dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        nearest = dist[np.arange(n), assign]
        seeds = []
        for i in sorted(range(n), key=lambda i: -nearest[i]):   # stable
            if nearest[i] > 0 and not any(np.array_equal(points[i], p) for p in seeds):
                seeds.append(points[i])
        moved = 0.0
        for j in range(k):
            members = points[assign == j]
            if len(members) == 0:
                if emptied is not None:
                    emptied.append(j)
                new = seeds.pop(0) if seeds else centroids[j].copy()
            else:
                new = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new - centroids[j])))
            centroids[j] = new
        if moved < oracles.KMEANS_TOL:
            break
    dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return centroids, dist.argmin(axis=1)


def _assert_kmeans_matches_loop(points, k, seed):
    want_c, want_a = _loop_kmeans(points, k, seed)
    got_c, got_a = kmeans(points, k, seed)
    assert np.array_equal(got_c, want_c)
    assert np.array_equal(got_a, want_a)
    return got_a


def test_kmeans_matches_loop_reference_d1_large_cluster():
    # numpy sums an (m, 1) column pairwise, unlike the row-by-row sum of
    # an (m, d >= 2) block; the means must still be the masked means
    pts = np.random.default_rng(5).normal(size=(300, 1))
    assign = _assert_kmeans_matches_loop(pts, 3, seed=2)
    assert np.bincount(assign).max() > 8


def test_kmeans_matches_loop_reference_k1_and_kn():
    pts = np.random.default_rng(6).normal(size=(40, 5))
    _assert_kmeans_matches_loop(pts, 1, seed=0)
    _assert_kmeans_matches_loop(pts, 40, seed=1)


def test_kmeans_matches_loop_reference_with_empty_clusters():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(3, 4))[rng.integers(0, 3, 60)]
    emptied = []
    _loop_kmeans(pts, 6, seed=3, emptied=emptied)
    assert emptied, "the case must exercise empty clusters"
    _assert_kmeans_matches_loop(pts, 6, seed=3)


def _count_distance_calls(monkeypatch):
    """Each centroid array oracles._sq_dists is called with, in order."""
    calls = []
    sq_dists = oracles._sq_dists

    def spy(points, centroids):
        calls.append(centroids.copy())
        return sq_dists(points, centroids)
    monkeypatch.setattr(oracles, "_sq_dists", spy)
    return calls


def test_kmeans_stops_when_no_point_is_left_to_reseed(monkeypatch):
    # 3 distinct values for k = 6: every point sits on a centroid after the
    # seeding, so the empty clusters keep theirs and Lloyd stops at once
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(3, 4))[rng.integers(0, 3, 60)]
    calls = _count_distance_calls(monkeypatch)
    _, assign = kmeans(pts, 6, seed=3)
    assert len(calls) <= 3
    assert len(set(assign)) == 3


class _ScriptedRng:
    """Stands in for default_rng: integers and choice return the scripted
    point indices in turn, so the seeding can pick one point twice."""

    def __init__(self, picks):
        self.picks = iter(picks)

    def integers(self, *args):
        return next(self.picks)

    def choice(self, *args, **kwargs):
        return next(self.picks)


def test_kmeans_reseeds_two_emptied_clusters_with_two_points(monkeypatch):
    pts = np.array([[0.0], [0.0], [5.0], [9.0], [9.5], [9.5]])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ScriptedRng([0, 1, 0]))
    calls = _count_distance_calls(monkeypatch)
    kmeans(pts, 3)
    # all three seeds at 0: clusters 1 and 2 are empty after the first
    # assignment and take the farthest point and the next distinct one
    assert np.array_equal(calls[0], [[0.0], [0.0], [0.0]])
    assert np.array_equal(calls[1], [[5.5], [9.5], [9.0]])


def test_kmeans_matches_loop_reference_rounded_ties():
    rng = np.random.default_rng(8)
    for d in (1, 2, 7, 26):
        pts = np.round(rng.normal(size=(150, d)), 1)
        _assert_kmeans_matches_loop(pts, 12, seed=d)


def test_kmeans_matches_loop_reference_across_distance_blocks(monkeypatch):
    # blocks of one row, of a few rows, and one block for everything
    pts = np.random.default_rng(9).normal(size=(90, 6))
    for size in (1, 1000, 1 << 30):
        monkeypatch.setattr(oracles, "DIST_BLOCK_BYTES", size)
        _assert_kmeans_matches_loop(pts, 10, seed=4)


def test_kmeans_memory_stays_below_the_full_distance_tensor():
    # the (800, 500, 26) float64 difference tensor alone is 83 MB
    pts = np.random.default_rng(0).normal(size=(800, 26))
    tracemalloc.start()
    try:
        kmeans(pts, 500, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, f"k-means peaked at {peak / 1e6:.1f} MB"


def _normalized_affinity(labels):
    """The clipped normalized affinity D^-1/2 A D^-1/2 formed explicitly,
    over the unit nonzero rows of labels."""
    unit = labels[labels.any(axis=1)]
    unit = unit / np.linalg.norm(unit, axis=1, keepdims=True)
    aff = np.clip(unit @ unit.T, 0.0, 1.0)
    inv_sqrt = 1.0 / np.sqrt(aff.sum(axis=1))
    return unit, aff * inv_sqrt[:, None] * inv_sqrt[None, :]


def test_spectral_embedding_spans_the_dense_top_eigenvectors():
    rng = np.random.default_rng(13)
    compared = 0
    for n, c, k in ((40, 6, 3), (120, 20, 5), (150, 12, 12), (620, 30, 8), (700, 157, 30)):
        labels = (rng.random((n, c)) < 3 / c).astype(float)
        labels[n // 2:n // 2 + n // 5] = labels[:n // 5]        # duplicate label sets
        unit, norm_aff = _normalized_affinity(labels)
        vals, vecs = np.linalg.eigh(norm_aff)
        if vals[-k] - vals[-k - 1] <= 1e-8:
            continue
        got = oracles._spectral_embedding(unit, k)
        assert got.shape == (len(unit), k)
        want = vecs[:, -k:]
        assert np.abs(got @ got.T - want @ want.T).max() < 1e-10
        # ascending eigenvalue order, as eigh gives them
        assert np.allclose(np.einsum("ij,ij->j", got, norm_aff @ got), vals[-k:],
                           atol=1e-10)
        compared += 1
    assert compared >= 4


def test_spectral_embedding_with_more_clusters_than_classes():
    rng = np.random.default_rng(14)
    labels = (rng.random((30, 4)) < 0.5).astype(float)
    unit, norm_aff = _normalized_affinity(labels)
    got = oracles._spectral_embedding(unit, 6)
    assert got.shape == (len(unit), 6)
    assert np.allclose(got.T @ got, np.eye(6), atol=1e-10)
    # the span holds every eigenvector of a nonzero eigenvalue
    assert np.allclose(got @ (got.T @ norm_aff), norm_aff, atol=1e-10)
    assign, degenerate = spectral_cluster(labels, 6, seed=0)
    assert not degenerate and set(assign[labels.any(axis=1)]) <= set(range(6))


def test_spectral_cluster_rejects_negative_vectors():
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_cluster(np.array([[1.0, 0.0], [0.5, -0.1], [0.0, 1.0]]), 2)


def test_clustering_and_report_run_without_scipy(tmp_path):
    vocab = "class_id,verb_id,object_id\nc0,v0,o0\nc1,v1,o1\nc2,v0,o1\n"
    train = [f"T{i},10.0,c{i % 2} 1 4;c2 5 9" for i in range(8)]
    test = [f"V{i},10.0,c{i % 3} 1 4" for i in range(4)]
    preds = [f"V{i} 0.{i} 0.5 0.{9 - i}" for i in range(4)]
    for name, lines in (("vocab.csv", [vocab]), ("train.csv", train),
                        ("test.csv", test), ("pred.txt", preds)):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    code = f"""
import sys
sys.modules["scipy"] = None      # any scipy import fails
import numpy as np
from actdiag.oracles import spectral_cluster
from actdiag.report import RunConfig, run_report
rng = np.random.default_rng(0)
for n in (40, 600):              # n <= 500 and n > 500
    assign, _ = spectral_cluster(rng.random((n, 12)) < 0.3, 5)
    assert assign.max() <= 5
root = {str(tmp_path)!r}
report = run_report(RunConfig(vocab=root + "/vocab.csv", test=root + "/test.csv",
                              train=root + "/train.csv",
                              predictions={{"cnn": root + "/pred.txt"}},
                              out=root + "/out", intent_ks=(2,),
                              bootstrap_resamples=50, permutations=50))
assert isinstance(report["oracles"]["single"]["intent2"], float)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracles.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_spectral_cluster_planted_blocks():
    rng = np.random.default_rng(0)
    base = np.eye(3)
    vecs, truth = [], []
    for i in range(3):
        for _ in range(20):
            vecs.append(base[i] + rng.uniform(0, 0.05, 3))
            truth.append(i)
    assign, degenerate = spectral_cluster(np.array(vecs), 3, seed=0)
    assert not degenerate
    # same block -> same cluster, different blocks -> different clusters
    truth = np.array(truth)
    for i in range(3):
        assert len(set(assign[truth == i])) == 1
    assert len(set(assign)) == 3


def test_spectral_cluster_zero_rows_get_extra_cluster():
    vecs = np.vstack([np.eye(3), np.eye(3), np.zeros((2, 3))])
    assign, _ = spectral_cluster(vecs, 3, seed=0)
    assert assign[-1] == 3 and assign[-2] == 3
    assert set(assign[:-2]) <= {0, 1, 2}


def test_spectral_cluster_degenerate_identical_vectors():
    vecs = np.tile([1.0, 2.0, 0.5], (10, 1))
    assign, degenerate = spectral_cluster(vecs, 2, seed=0)
    assert degenerate
    assert set(assign) == {0}


def test_intent_oracle_recovers_plants():
    # two clear intent groups by disjoint label support
    group_a = [ann(f"A{i}", 10.0, ("c000", 0.0, 5.0), ("c001", 5.0, 9.0))
               for i in range(10)]
    group_b = [ann(f"B{i}", 10.0, ("c002", 0.0, 5.0), ("c003", 5.0, 9.0))
               for i in range(10)]
    clusters = build_intent_clusters(labels_matrix(group_a + group_b, VOCAB), k=2,
                                     seed=0)
    out = intent_oracle(clusters, labels_matrix([group_a[0], group_b[0]], VOCAB))
    assert np.allclose(out[0], [1, 1, 0, 0])
    assert np.allclose(out[1], [0, 0, 1, 1])


def test_intent_oracle_prior_for_unlabeled_video():
    train = [ann(f"A{i}", 10.0, ("c000", 0.0, 5.0)) for i in range(4)]
    train += [ann(f"B{i}", 10.0, ("c001", 0.0, 5.0)) for i in range(4)]
    clusters = build_intent_clusters(labels_matrix(train, VOCAB), k=2, seed=0)
    empty = ann("E", 10.0)
    out = intent_oracle(clusters, labels_matrix([empty], VOCAB))
    assert np.allclose(out[0], clusters.prior)


def _pose(base, jitter, rng):
    pts = base + rng.normal(scale=jitter, size=base.shape)
    return tuple((float(x), float(y), 1.0) for x, y in pts)


def test_pose_oracle_distinguishes_pose_classes():
    rng = np.random.default_rng(0)
    standing = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, 2.0]])
    sitting = np.array([[0.0, 0.0], [1.0, 0.1], [1.1, 1.0], [2.0, 1.2]])
    anns, aux = [], []
    for i in range(12):
        base, cat = (standing, "c000") if i % 2 == 0 else (sitting, "c001")
        vid = f"T{i}"
        anns.append(ann(vid, 10.0, (cat, 0.0, 10.0)))
        for t in (2.0, 5.0, 8.0):
            aux.append(AuxiliaryRecord(vid, t, pose=_pose(base, 0.01, rng)))
    clusters = build_pose_clusters(posed_frames(anns, aux), VOCAB, k=2, seed=0)
    test_ann = [ann("X", 10.0, ("c000", 0.0, 10.0))]
    test_aux = [AuxiliaryRecord("X", 5.0, pose=_pose(standing, 0.01, rng))]
    out = pose_oracle(clusters, test_ann, test_aux, VOCAB)
    assert out[0, 0] > 0.9
    assert out[0, 1] < 0.1


def test_pose_oracle_prior_without_poses():
    rng = np.random.default_rng(1)
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    anns = [ann(f"T{i}", 10.0, ("c000", 0.0, 10.0)) for i in range(3)]
    aux = [AuxiliaryRecord(f"T{i}", 5.0, pose=_pose(base, 0.1, rng))
           for i in range(3)]
    clusters = build_pose_clusters(posed_frames(anns, aux), VOCAB, k=2, seed=0)
    out = pose_oracle(clusters, [ann("X", 10.0, ("c000", 0.0, 5.0))], [], VOCAB)
    assert np.allclose(out[0], clusters.prior)


def test_pose_reference_skips_a_leading_pose_whose_keypoints_coincide():
    # the first three poses cannot serve as the reference; the parent
    # aligned to poses[0] only and died with a bare TypeError
    rng = np.random.default_rng(2)
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    point = ((0.5, 0.5, 1.0),) * 3
    anns = [ann(f"T{i}", 10.0, ("c000", 0.0, 10.0)) for i in range(5)]
    poses = [point] * 3 + [_pose(base, 0.1, rng) for _ in range(2)]
    aux = [AuxiliaryRecord(f"T{i}", 5.0, pose=p) for i, p in enumerate(poses)]
    clusters = build_pose_clusters(posed_frames(anns, aux), VOCAB, k=2, seed=0)
    alone = build_pose_clusters(posed_frames(anns[3:], aux[3:]), VOCAB, k=2, seed=0)
    assert np.array_equal(clusters.reference, alone.reference)
    assert np.array_equal(clusters.centroids, alone.centroids)
    with pytest.raises(AlignmentError, match="only 2 posed training frames align"):
        build_pose_clusters(posed_frames(anns, aux), VOCAB, k=3, seed=0)
    with pytest.raises(AlignmentError, match="no pose"):
        build_pose_clusters(posed_frames(anns[:3], aux[:3]), VOCAB, k=2, seed=0)


def _loop_pose_vector(pose, reference):
    """One pose aligned by a one-pose call, flattened; None if it cannot."""
    aligned, ok = align_pose(pose[None], reference)
    return aligned[0].ravel() if ok[0] else None


def _loop_mean_reference(poses):
    """Reference _mean_reference: one alignment call per pose."""
    ref = next(p for p in poses if _loop_pose_vector(p, p) is not None)
    aligned = [v.reshape(-1, 2) for p in poses
               if (v := _loop_pose_vector(p, ref)) is not None]
    mean_xy = np.mean(aligned, axis=0)
    return np.column_stack([mean_xy, np.ones(len(mean_xy))])


def _loop_pose_clusters(annotations, auxiliary, vocab, k, seed):
    """Reference build_pose_clusters: loop k-means and one masked mean per
    cluster."""
    poses, frame_labels = [], []
    for a, t, pose in oracles.posed_frames(annotations, auxiliary):
        lab = np.zeros(len(vocab))
        for inst in a.instances:
            if inst.start <= t <= inst.end:
                lab[vocab.index[inst.category]] = 1.0
        poses.append(pose)
        frame_labels.append(lab)
    reference = _loop_mean_reference(poses)
    vecs, labs = [], []
    for p, lab in zip(poses, frame_labels):
        v = _loop_pose_vector(p, reference)
        if v is not None:
            vecs.append(v)
            labs.append(lab)
    vecs, labs = np.array(vecs), np.array(labs)
    centroids, assign = _loop_kmeans(vecs, k, seed)
    dists = np.zeros((k, len(vocab)))
    for j in range(k):
        members = labs[assign == j]
        if len(members):
            dists[j] = members.mean(axis=0)
    return oracles.PoseClusters(centroids, dists, reference, labs.mean(axis=0))


def _loop_pose_oracle(clusters, annotations, auxiliary):
    """Reference pose_oracle: one distance row and argmin per frame."""
    by_vid = {}
    for r in auxiliary:
        if r.pose is not None:
            by_vid.setdefault(r.video_id, []).append(r)
    out = []
    for a in annotations:
        frames = []
        for r in by_vid.get(a.video_id, ()):
            v = _loop_pose_vector(np.asarray(r.pose), clusters.reference)
            if v is None:
                continue
            d2 = ((clusters.centroids - v) ** 2).sum(axis=1)
            frames.append(clusters.distributions[int(np.argmin(d2))])
        out.append(np.max(frames, axis=0) if frames else clusters.prior.copy())
    return out


def _pose_corpus(rng, prefix, n_videos):
    """Videos of one or two activities, each frame posed from one of three
    templates; every fifth frame has a single confident keypoint and cannot
    be aligned."""
    templates = [np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, 2.0]]),
                 np.array([[0.0, 0.0], [1.0, 0.1], [1.1, 1.0], [2.0, 1.2]]),
                 np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0], [0.5, 2.0]])]
    anns, aux = [], []
    for v in range(n_videos):
        vid = f"{prefix}{v}"
        c = int(rng.integers(4))
        insts = [(f"c00{c}", 0.0, 6.0), (f"c00{(c + 1) % 4}", 4.0, 10.0)][:1 + v % 2]
        anns.append(ann(vid, 10.0, *insts))
        for t in (1.0, 3.0, 5.0, 7.0, 9.0):
            pose = _pose(templates[int(rng.integers(3))], 0.05, rng)
            if rng.random() < 0.2:
                pose = tuple((x, y, 1.0 if i == 0 else 0.0)
                             for i, (x, y, _) in enumerate(pose))
            aux.append(AuxiliaryRecord(vid, t, pose=pose))
    return anns, aux


def test_pose_clusters_and_oracle_match_loop_references():
    rng = np.random.default_rng(10)
    train, train_aux = _pose_corpus(rng, "T", 40)
    test, test_aux = _pose_corpus(rng, "V", 12)
    test.append(ann("NOPOSE", 10.0, ("c000", 0.0, 5.0)))
    test_aux.append(AuxiliaryRecord("UNANNOTATED", 1.0,
                                    pose=_pose(np.eye(3)[:, :2], 0.05, rng)))
    for k in (1, 5, 40):
        want = _loop_pose_clusters(train, train_aux, VOCAB, k, seed=k)
        got = build_pose_clusters(posed_frames(train, train_aux), VOCAB, k=k, seed=k)
        for field in ("centroids", "distributions", "reference", "prior"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        expect = _loop_pose_oracle(got, test, test_aux)
        out = pose_oracle(got, test, test_aux, VOCAB)
        assert np.array_equal(out, expect)
    assert np.array_equal(out[-1], got.prior)


def test_intent_clusters_match_loop_reference(monkeypatch):
    rng = np.random.default_rng(12)
    anns = []
    for v in range(60):
        cats = rng.choice(4, size=int(rng.integers(0, 3)), replace=False)
        anns.append(ann(f"T{v}", 10.0, *[(f"c00{c}", 0.0, 5.0) for c in cats]))
    labels = labels_matrix(anns, VOCAB).astype(float)
    for k in (1, 2, 3):
        got = build_intent_clusters(labels_matrix(anns, VOCAB), k, seed=k)
        with monkeypatch.context() as m:
            m.setattr(oracles, "kmeans", _loop_kmeans)
            assign, _ = spectral_cluster(labels, k, seed=k)
        want = np.zeros((k + 1, len(VOCAB)))
        for j in range(k + 1):
            members = labels[assign == j]
            if len(members):
                want[j] = members.mean(axis=0)
        assert np.array_equal(got.distributions, want)


def test_build_pose_clusters_requires_enough_frames():
    with pytest.raises(ValueError):
        build_pose_clusters(posed_frames([ann("T0", 10.0, ("c000", 0.0, 5.0))], []),
                            VOCAB, k=5)


def test_squash_preserves_per_class_ranking():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(10, 4))
    out = squash_scores(raw)
    assert out.shape == raw.shape and np.all((out > 0) & (out < 1))
    for c in range(4):
        assert np.array_equal(np.argsort(raw[:, c]), np.argsort(out[:, c]))


def test_combine_all_ones_oracle_keeps_ap():
    rng = np.random.default_rng(4)
    anns = [ann(f"V{i}", 10.0, (f"c00{i % 4}", 0.0, 5.0)) for i in range(12)]
    base = [VideoPredictions(a.video_id, rng.normal(size=4)) for a in anns]
    ones = [VideoPredictions(a.video_id, np.ones(4)) for a in anns]
    combined = combine(ones, base)
    before = classification_map(base, anns, VOCAB)
    after = classification_map(combined, anns, VOCAB)
    assert np.allclose(before.per_class_ap, after.per_class_ap, atol=1e-12)


def test_combine_rejects_coverage_mismatch():
    a = [VideoPredictions("V1", np.ones(4))]
    b = [VideoPredictions("V2", np.ones(4))]
    with pytest.raises(ValueError):
        combine(a, b)


def test_oracles_beat_chance_on_synthetic_corpus():
    rng = np.random.default_rng(7)
    anns = [ann(f"V{i}", 10.0, (f"c00{i % 4}", 0.0, 5.0)) for i in range(40)]
    random_preds = [VideoPredictions(a.video_id, rng.random(4)) for a in anns]
    chance = classification_map(random_preds, anns, VOCAB).mean_ap
    verbs = [VideoPredictions(a.video_id, row)
             for a, row in zip(anns, component_oracle(labels_matrix(anns, VOCAB),
                                                      VOCAB.verb_of))]
    oracle = classification_map(combine(verbs, random_preds), anns, VOCAB).mean_ap
    assert oracle > chance


def test_oracles_return_one_row_per_annotation_even_for_none():
    train = [ann(f"T{i}", 10.0, (f"c00{i % 4}", 0.0, 3.0), (f"c00{(i + 1) % 4}", 5.0, 9.0))
             for i in range(8)]
    aux = [AuxiliaryRecord(a.video_id, 2.0, pose=((0.0, 0.0, 1.0), (0.0, 1.0, 1.0),
                                                   (1.0, float(i), 1.0)))
           for i, a in enumerate(train)]
    stats = build_temporal_stats(train, VOCAB)
    intent = build_intent_clusters(labels_matrix(train, VOCAB), k=2, seed=0)
    pose = build_pose_clusters(posed_frames(train, aux), VOCAB, k=2, seed=0)
    for anns in (train[:3], []):
        labels = labels_matrix(anns, VOCAB)
        for out in (component_oracle(labels, VOCAB.object_of),
                    component_oracle(labels, VOCAB.verb_of),
                    temporal_oracle(stats, sample_grid(anns, VOCAB), VOCAB),
                    intent_oracle(intent, labels),
                    pose_oracle(pose, anns, aux, VOCAB)):
            assert out.shape == (len(anns), len(VOCAB)) and out.dtype == float
