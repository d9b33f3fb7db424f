import numpy as np
import pytest

from actdiag.attributes import AlignmentError
from actdiag.corpus import (ActivityInstance, AuxiliaryRecord,
                            VideoAnnotation, VideoPredictions,
                            load_vocabulary)
from actdiag.metrics import classification_map, sample_times
from actdiag.oracles import (apply_temporal_oracle, build_intent_clusters,
                             build_pose_clusters, build_temporal_stats,
                             combine, intent_oracle, kmeans, object_oracle,
                             pose_oracle, spectral_cluster, squash_scores,
                             temporal_oracle, verb_oracle)

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
    out = object_oracle(anns, VOCAB)
    # o00 is shared by c000 and c001; c002/c003 use other objects
    assert list(out[0].scores) == [1.0, 1.0, 0.0, 0.0]


def test_verb_oracle_masks_shared_verb():
    anns = [ann("V1", 10.0, ("c001", 0.0, 5.0))]
    out = verb_oracle(anns, VOCAB)
    # v01 belongs only to c001
    assert list(out[0].scores) == [0.0, 1.0, 0.0, 0.0]


def test_component_oracle_union_over_instances():
    anns = [ann("V1", 10.0, ("c001", 0.0, 2.0), ("c002", 3.0, 5.0))]
    out = object_oracle(anns, VOCAB)
    assert list(out[0].scores) == [1.0, 1.0, 1.0, 0.0]


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
    # frames observed with previous neighbor c000: after 3.0 until c001
    # ends and takes over as the most recent
    assert stats.prev_totals[0] == int(((times > 3.0) & (times <= 9.0)).sum())
    # frames with next neighbor c001 (before its start)
    assert stats.next_totals[1] == int((times < 5.0).sum())
    # c000 active while c001 is still upcoming
    want = int(((times >= 0.0) & (times <= 3.0) & (times < 5.0)).sum())
    assert stats.next_counts[1, 0] == want


def test_apply_temporal_oracle_hand_arithmetic():
    train = [ann("T1", 10.0, ("c000", 0.0, 3.0), ("c001", 5.0, 9.0))]
    stats = build_temporal_stats(train, VOCAB)
    test = ann("V1", 10.0, ("c000", 0.0, 3.0), ("c001", 5.0, 9.0))
    out = apply_temporal_oracle(stats, test, VOCAB)
    times = sample_times(10.0, 25)
    frames = np.empty((len(times), len(VOCAB)))
    for i, t in enumerate(times):
        prev = 1 if t > 9.0 else (0 if t > 3.0 else None)
        nxt = 1 if t < 5.0 else None
        p = stats.prior if prev is None else stats.cond_prev[prev]
        q = stats.prior if nxt is None else stats.cond_next[nxt]
        frames[i] = p * q
    assert np.allclose(out.scores, frames.max(axis=0), atol=1e-9)


def test_temporal_oracle_prior_fallback_isolated_video():
    train = [ann("T1", 10.0, ("c000", 0.0, 3.0))]
    stats = build_temporal_stats(train, VOCAB)
    test = ann("V1", 10.0, ("c003", 0.0, 10.0))
    out = apply_temporal_oracle(stats, test, VOCAB)
    # instance covers the whole video: no neighbors ever, prior^2 everywhere
    assert np.allclose(out.scores, stats.prior ** 2, atol=1e-12)


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
    clusters = build_intent_clusters(group_a + group_b, VOCAB, k=2, seed=0)
    out = intent_oracle(clusters, [group_a[0], group_b[0]], VOCAB)
    assert np.allclose(out[0].scores, [1, 1, 0, 0])
    assert np.allclose(out[1].scores, [0, 0, 1, 1])


def test_intent_oracle_prior_for_unlabeled_video():
    train = [ann(f"A{i}", 10.0, ("c000", 0.0, 5.0)) for i in range(4)]
    train += [ann(f"B{i}", 10.0, ("c001", 0.0, 5.0)) for i in range(4)]
    clusters = build_intent_clusters(train, VOCAB, k=2, seed=0)
    empty = ann("E", 10.0)
    out = intent_oracle(clusters, [empty], VOCAB)
    assert np.allclose(out[0].scores, clusters.prior)


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
    clusters = build_pose_clusters(anns, aux, VOCAB, k=2, seed=0)
    test_ann = [ann("X", 10.0, ("c000", 0.0, 10.0))]
    test_aux = [AuxiliaryRecord("X", 5.0, pose=_pose(standing, 0.01, rng))]
    out = pose_oracle(clusters, test_ann, test_aux, VOCAB)
    assert out[0].scores[0] > 0.9
    assert out[0].scores[1] < 0.1


def test_pose_oracle_prior_without_poses():
    rng = np.random.default_rng(1)
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    anns = [ann(f"T{i}", 10.0, ("c000", 0.0, 10.0)) for i in range(3)]
    aux = [AuxiliaryRecord(f"T{i}", 5.0, pose=_pose(base, 0.1, rng))
           for i in range(3)]
    clusters = build_pose_clusters(anns, aux, VOCAB, k=2, seed=0)
    out = pose_oracle(clusters, [ann("X", 10.0, ("c000", 0.0, 5.0))], [], VOCAB)
    assert np.allclose(out[0].scores, clusters.prior)


def test_pose_reference_skips_a_leading_pose_whose_keypoints_coincide():
    # the first three poses cannot serve as the reference; the parent
    # aligned to poses[0] only and died with a bare TypeError
    rng = np.random.default_rng(2)
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    point = ((0.5, 0.5, 1.0),) * 3
    anns = [ann(f"T{i}", 10.0, ("c000", 0.0, 10.0)) for i in range(5)]
    poses = [point] * 3 + [_pose(base, 0.1, rng) for _ in range(2)]
    aux = [AuxiliaryRecord(f"T{i}", 5.0, pose=p) for i, p in enumerate(poses)]
    clusters = build_pose_clusters(anns, aux, VOCAB, k=2, seed=0)
    alone = build_pose_clusters(anns[3:], aux[3:], VOCAB, k=2, seed=0)
    assert np.array_equal(clusters.reference, alone.reference)
    assert np.array_equal(clusters.centroids, alone.centroids)
    with pytest.raises(AlignmentError, match="only 2 posed training frames align"):
        build_pose_clusters(anns, aux, VOCAB, k=3, seed=0)
    with pytest.raises(AlignmentError, match="no pose"):
        build_pose_clusters(anns[:3], aux[:3], VOCAB, k=2, seed=0)


def test_build_pose_clusters_requires_enough_frames():
    with pytest.raises(ValueError):
        build_pose_clusters([ann("T0", 10.0, ("c000", 0.0, 5.0))], [], VOCAB,
                            k=5)


def test_squash_preserves_per_class_ranking():
    rng = np.random.default_rng(2)
    preds = [VideoPredictions(f"V{i}", rng.normal(size=4)) for i in range(10)]
    sq = squash_scores(preds)
    raw = np.stack([p.scores for p in preds])
    out = np.stack([p.scores for p in sq])
    assert np.all((out > 0) & (out < 1))
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
    oracle = classification_map(combine(verb_oracle(anns, VOCAB), random_preds),
                                anns, VOCAB).mean_ap
    assert oracle > chance


def test_temporal_oracle_list_wrapper():
    train = [ann("T1", 10.0, ("c000", 0.0, 3.0), ("c001", 5.0, 9.0))]
    stats = build_temporal_stats(train, VOCAB)
    outs = temporal_oracle(stats, train, VOCAB)
    assert len(outs) == 1 and outs[0].video_id == "T1"
