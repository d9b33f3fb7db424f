import re

import numpy as np
import pytest

from actdiag import attributes
from actdiag.attributes import (AlignmentError, align_pose,
                                category_attributes, complexity_counts,
                                pose_variability, poses_by_category,
                                procrustes_distance, video_attributes)
from actdiag.corpus import (ActivityInstance, AuxiliaryRecord,
                            VideoAnnotation, load_vocabulary)

VOCAB = load_vocabulary("""class_id,verb_id,object_id,description
c000,v00,o00,hold cup
c001,v01,o00,drink from cup
c002,v00,o01,hold broom
c003,v02,o02,open door
""")


def square_pose(conf=1.0):
    return np.array([[0.0, 0.0, conf], [1.0, 0.0, conf],
                     [1.0, 1.0, conf], [0.0, 1.0, conf]])


def transform(pose, angle=0.0, scale=1.0, shift=(0.0, 0.0)):
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    out = pose.copy()
    out[:, :2] = scale * (pose[:, :2] @ rot.T) + np.asarray(shift)
    return out


def test_procrustes_zero_for_similarity_transforms():
    p = square_pose()
    q = transform(p, angle=0.7, scale=3.2, shift=(5.0, -2.0))
    assert procrustes_distance(p, q) == pytest.approx(0.0, abs=1e-12)


def test_procrustes_symmetric():
    rng = np.random.default_rng(0)
    a = square_pose()
    b = square_pose()
    b[:, :2] += rng.normal(scale=0.3, size=(4, 2))
    assert procrustes_distance(a, b) == pytest.approx(procrustes_distance(b, a),
                                                      abs=1e-12)


def test_procrustes_reflection_not_free():
    p = square_pose()
    mirrored = p.copy()
    mirrored[:, 0] *= -1
    assert procrustes_distance(p, mirrored) > 0.1


def test_procrustes_ignores_low_confidence_keypoints():
    a = square_pose()
    b = square_pose()
    b[3] = [99.0, -99.0, 0.05]   # below threshold, must not matter
    assert procrustes_distance(a, b) == pytest.approx(0.0, abs=1e-12)


def test_procrustes_needs_two_shared_keypoints():
    a = square_pose()
    b = square_pose(conf=0.0)
    b[0, 2] = 1.0
    with pytest.raises(AlignmentError):
        procrustes_distance(a, b)


def test_keypoints_at_one_inexact_point_do_not_align():
    # the mean of three 0.1s rounds, so the centred norm is ~1e-17, not 0
    point = np.array([[0.1, 0.1, 1.0]] * 3)
    assert attributes._centred(point[None, :, :2], np.ones((1, 3), bool))[0].any()
    with pytest.raises(AlignmentError, match="coincide"):
        procrustes_distance(point, square_pose()[:3])
    with pytest.raises(AlignmentError, match="coincide"):
        procrustes_distance(square_pose()[:3], point)
    _, ok = align_pose(np.stack([point, square_pose()[:3]]), square_pose()[:3])
    assert ok.tolist() == [False, True]


def test_align_pose_recovers_reference_shape():
    ref = square_pose()
    moved = transform(ref, angle=-1.1, scale=0.5, shift=(3.0, 3.0))
    aligned, ok = align_pose(moved[None], ref)
    # aligned output is centered and unit-normalized like the reference fit
    ref_c = ref[:, :2] - ref[:, :2].mean(axis=0)
    ref_c /= np.linalg.norm(ref_c)
    assert ok.tolist() == [True]
    assert np.allclose(aligned[0], ref_c, atol=1e-9)


def _loop_fit(a, b):
    """Reference per-pair similarity fit (the loop form the stacked
    kernel replaced); raises AlignmentError where a pair cannot align."""
    shared = (a[:, 2] > 0.1) & (b[:, 2] > 0.1)
    m = int(shared.sum())
    if m < 2:
        raise AlignmentError(f"only {m} shared confident keypoints")
    pa = a[shared, :2] - a[shared, :2].mean(axis=0)
    pb = b[shared, :2] - b[shared, :2].mean(axis=0)
    na, nb = np.linalg.norm(pa), np.linalg.norm(pb)
    if na == 0 or nb == 0:
        raise AlignmentError("degenerate pose (all keypoints coincide)")
    pa /= na
    pb /= nb
    u, sv, vt = np.linalg.svd(pb.T @ pa)
    d = np.sign(np.linalg.det(u @ vt))
    return pa, pb, u @ np.diag([1.0, d]) @ vt, sv[0] + d * sv[1], m, shared


def _loop_procrustes(a, b):
    pa, pb, rot, c, m, _ = _loop_fit(a, b)
    return float(np.linalg.norm(pa - c * (pb @ rot)) / np.sqrt(m))


def _loop_align(pose, reference):
    _, _, rot, c, _, shared = _loop_fit(reference, pose)
    pts = pose[:, :2] - pose[shared, :2].mean(axis=0)
    n = np.linalg.norm(pose[shared, :2] - pose[shared, :2].mean(axis=0))
    return (pts / n * c) @ rot


def _random_poses(rng, n, k=13):
    """Random poses with low-confidence keypoints, some poses with at most
    one confident keypoint and some whose confident keypoints coincide."""
    poses = rng.normal(size=(n, k, 3))
    poses[..., 2] = np.where(rng.random((n, k)) < 0.25, 0.05, 0.9)
    few = rng.random(n) < 0.1
    poses[few, 1:, 2] = 0.0
    coincide = rng.random(n) < 0.1   # a quarter-integer point: the mean is exact
    poses[coincide, :, :2] = np.round(poses[coincide, :1, :2] * 4) / 4
    return poses


def test_stacked_procrustes_is_batch_invariant_and_matches_loop():
    rng = np.random.default_rng(4)
    a, b = _random_poses(rng, 400), _random_poses(rng, 400)
    b[:20] = a[:20]                  # identical pairs: distance 0
    dists, ok = attributes._procrustes(a, b)
    raised = 0
    for i in range(len(a)):
        try:
            want = _loop_procrustes(a[i], b[i])
        except AlignmentError as e:
            raised += 1
            assert not ok[i]
            with pytest.raises(AlignmentError, match=re.escape(str(e))):
                procrustes_distance(a[i], b[i])
            continue
        assert ok[i]
        assert dists[i] == procrustes_distance(a[i], b[i])   # bit for bit
        assert dists[i] == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert 40 < raised < 200
    sub, sub_ok = attributes._procrustes(a[::7], b[::7])
    assert sub.tobytes() == dists[::7].tobytes() and np.array_equal(sub_ok, ok[::7])


def test_stacked_align_pose_is_batch_invariant_and_matches_loop():
    rng = np.random.default_rng(5)
    poses = _random_poses(rng, 300)
    reference = poses[np.argmax((poses[..., 2] > 0.1).sum(axis=1) >= 8)]
    aligned, ok = align_pose(poses, reference)
    raised = 0
    for i, pose in enumerate(poses):
        one, one_ok = align_pose(pose[None], reference)
        assert one_ok[0] == ok[i] and one[0].tobytes() == aligned[i].tobytes()
        try:
            want = _loop_align(pose, reference)
        except AlignmentError:
            raised += 1
            assert not ok[i]
            continue
        assert ok[i]
        assert np.abs(aligned[i] - want).max() <= 1e-12 * np.abs(want).max()
    assert 20 < raised < 150


def test_pose_variability_zero_for_identical_set():
    poses = [square_pose(), transform(square_pose(), angle=0.4, scale=2.0)]
    assert pose_variability(poses) == pytest.approx(0.0, abs=1e-12)


def test_pose_variability_none_when_unalignable():
    assert pose_variability([square_pose()]) is None
    assert pose_variability([square_pose(conf=0.0)] * 3) is None


def test_pose_variability_increases_with_noise():
    rng = np.random.default_rng(1)
    tight = [square_pose() + np.pad(rng.normal(scale=0.01, size=(4, 2)),
                                    ((0, 0), (0, 1))) for _ in range(6)]
    loose = [square_pose() + np.pad(rng.normal(scale=0.4, size=(4, 2)),
                                    ((0, 0), (0, 1))) for _ in range(6)]
    assert pose_variability(tight) < pose_variability(loose)


def test_complexity_counts():
    obj_cx, verb_cx = complexity_counts(VOCAB)
    # c000 and c001 share o00; c000 and c002 share v00
    assert list(obj_cx) == [1, 1, 0, 0]
    assert list(verb_cx) == [1, 0, 1, 0]


def _train():
    return [
        VideoAnnotation("V1", 10.0, (ActivityInstance("c000", 0.0, 4.0),
                                     ActivityInstance("c001", 2.0, 6.0))),
        VideoAnnotation("V2", 5.0, (ActivityInstance("c000", 1.0, 3.0),)),
    ]


def test_category_attributes_counts_and_extents():
    table = category_attributes(VOCAB, _train())
    a = table["c000"]
    assert a.train_examples == 2
    assert a.avg_extent == pytest.approx(3.0)
    assert a.object_complexity == 1 and a.verb_complexity == 1
    # frames on a 0.1 s grid: 40 in V1 + 20 in V2
    assert a.train_frames == 60
    assert table["c003"].train_examples == 0
    assert table["c003"].avg_extent is None


def test_category_attributes_overlap_rate():
    table = category_attributes(VOCAB, _train())
    # c000 active on [0,4] of V1 (40 frames) overlapping c001 on [2,4]
    # (20 frames) plus 20 non-overlapping frames in V2
    assert table["c000"].overlap_rate == pytest.approx(20 / 60)
    assert table["c001"].overlap_rate == pytest.approx(20 / 40)
    assert table["c003"].overlap_rate is None


def test_category_attributes_frames_match_grid_frame_loop():
    rng = np.random.default_rng(0)
    anns = []
    for v in range(20):
        duration = float(rng.uniform(3.0, 20.0))
        insts = [ActivityInstance(f"c00{rng.integers(3)}", *sorted(rng.uniform(0.0, duration, 2)))
                 for _ in range(rng.integers(0, 5))]   # a class may repeat in a video
        anns.append(VideoAnnotation(f"V{v}", duration, tuple(insts)))
    frames, overlap = np.zeros(len(VOCAB), dtype=int), np.zeros(len(VOCAB), dtype=int)
    for a in anns:
        for t in np.arange(0.05, a.duration, 0.1):
            active = {VOCAB.index[i.category] for i in a.instances if i.start <= t <= i.end}
            for c in active:
                frames[c] += 1
                overlap[c] += len(active) > 1
    table = category_attributes(VOCAB, anns)
    for c, cat in enumerate(VOCAB.categories):
        assert table[cat.id].train_frames == frames[c]
        assert table[cat.id].overlap_rate == (overlap[c] / frames[c] if frames[c] else None)


def test_category_attributes_motion_inside_instances():
    aux = [AuxiliaryRecord("V1", 1.0, motion=2.0),
           AuxiliaryRecord("V1", 5.0, motion=8.0)]
    table = category_attributes(VOCAB, _train(), auxiliary=aux)
    # c000 spans [0,4] in V1, so only the t=1 record counts
    assert table["c000"].motion == pytest.approx(2.0)
    # c001 spans [2,6], so only the t=5 record counts
    assert table["c001"].motion == pytest.approx(8.0)


def test_overlapping_instances_of_one_class_count_a_frame_once():
    # c000 on [1, 6] and on [4, 9]: t = 5 lies in both instances but is one
    # frame of c000, as train_frames counts it (once per instance would give
    # 3 poses and motion 5/3)
    train = [VideoAnnotation("V1", 10.0, (ActivityInstance("c000", 1.0, 6.0),
                                          ActivityInstance("c000", 4.0, 9.0)))]
    pose = tuple(map(tuple, square_pose()))
    aux = [AuxiliaryRecord("V1", 5.0, motion=2.0, pose=pose),
           AuxiliaryRecord("V1", 2.0, motion=1.0, pose=pose)]
    assert len(poses_by_category(train, aux, VOCAB)["c000"]) == 2
    assert category_attributes(VOCAB, train, auxiliary=aux)["c000"].motion == 1.5


def test_poses_by_category_assigns_active_instances():
    aux = [AuxiliaryRecord("V1", 3.0, pose=tuple(map(tuple, square_pose())))]
    grouped = poses_by_category(_train(), aux, VOCAB)
    assert len(grouped["c000"]) == 1   # t=3 inside [0,4]
    assert len(grouped["c001"]) == 1   # and inside [2,6]
    assert len(grouped["c002"]) == 0


def test_video_attributes():
    aux = [AuxiliaryRecord("V1", 1.0, person_box=(0, 0, 30, 100),
                           person_count=1, motion=1.0),
           AuxiliaryRecord("V1", 2.0, person_box=(0, 0, 30, 140),
                           person_count=2, motion=3.0)]
    table = video_attributes(_train(), aux)
    v1 = table["V1"]
    assert v1.num_actions == 2
    assert v1.person_size == pytest.approx(120.0)
    assert v1.multi_person is True
    assert v1.mean_motion == pytest.approx(2.0)
    v2 = table["V2"]
    assert v2.person_size is None and v2.multi_person is None
