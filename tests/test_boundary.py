import numpy as np
import pytest

from actdiag.boundary import (agreement, boundary_excluded_eval,
                              boundary_excluded_iou, boundary_region,
                              perfect_classifier_localization)
from actdiag.corpus import (ActivityInstance, FramePredictions,
                            VideoAnnotation, load_vocabulary)

VOCAB = load_vocabulary("""class_id,verb_id,object_id,description
c000,v00,o00,hold cup
c001,v01,o00,drink from cup
c002,v00,o01,hold broom
""")


def ann(vid, duration, *insts):
    return VideoAnnotation(vid, duration,
                           tuple(ActivityInstance(c, s, e) for c, s, e in insts))


def test_boundary_region_interior():
    r = boundary_region(ActivityInstance("c000", 3.0, 6.0), 30.0)
    assert r.intervals == ((2.0, 4.0), (5.0, 7.0))


def test_boundary_region_clipped():
    r = boundary_region(ActivityInstance("c000", 0.0, 3.0), 3.5)
    assert r.intervals == ((0.0, 1.0), (2.0, 3.5))


def test_boundary_region_contains():
    r = boundary_region(ActivityInstance("c000", 3.0, 6.0), 30.0)

    def inside(t):
        return any(s <= t <= e for s, e in r.intervals)
    assert inside(2.0) and inside(7.0)
    assert not inside(4.5)
    assert not inside(8.0)


def test_boundary_region_subintervals_disjoint():
    # a = (t2-t1)/3 guarantees the two pieces never touch
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = rng.uniform(1, 100)
        t1 = rng.uniform(0, d * 0.9)
        t2 = rng.uniform(t1 + 1e-3, d)
        r = boundary_region(ActivityInstance("c000", t1, t2), d)
        if len(r.intervals) == 2:
            assert r.intervals[0][1] < r.intervals[1][0]


def test_boundary_region_invalid():
    with pytest.raises(ValueError):
        boundary_region(ActivityInstance("c000", 5.0, 4.0), 10.0)
    with pytest.raises(ValueError):
        boundary_region(ActivityInstance("c000", 0.0, 11.0), 10.0)


def test_boundary_excluded_iou_identical():
    a = ActivityInstance("c000", 3.0, 6.0)
    # identical instances keep IOU 1 on the surviving interior
    assert boundary_excluded_iou(a, a, 30.0) == pytest.approx(1.0)


def test_boundary_excluded_iou_hand():
    # ref [3,6]: excluded [2,4] u [5,7]; other [4,8]
    # intersection [4,6] minus boundary = [4,5]; union [3,8] minus = [4,5] u [7,8]
    ref = ActivityInstance("c000", 3.0, 6.0)
    other = ActivityInstance("c000", 4.0, 8.0)
    assert boundary_excluded_iou(ref, other, 30.0) == pytest.approx(0.5)


def test_boundary_excluded_iou_zero_when_overlap_is_all_boundary():
    # the overlap [2,3] sits entirely inside the reference's boundary region
    ref = ActivityInstance("c000", 0.0, 3.0)
    other = ActivityInstance("c000", 2.0, 3.0)
    assert boundary_excluded_iou(ref, other, 3.0) == pytest.approx(0.0)


def test_agreement_identical_annotations():
    anns = [ann("V1", 10.0, ("c000", 1.0, 4.0), ("c001", 5.0, 9.0))]
    records, summary = agreement(anns, anns, permutations=200)
    assert len(records) == 2
    assert all(r.matched for r in records)
    assert summary["iou"]["mean"] == pytest.approx(1.0)
    assert summary["start_error"]["mean"] == pytest.approx(0.0)
    assert summary["center_covered"]["mean"] == pytest.approx(1.0)


def test_agreement_unmatched_counted():
    ref = [ann("V1", 10.0, ("c000", 1.0, 4.0), ("c000", 6.0, 9.0))]
    other = [ann("V1", 10.0, ("c000", 1.0, 4.0))]
    records, summary = agreement(ref, other, permutations=200)
    assert len(records) == 2
    assert sum(r.matched for r in records) == 1
    assert summary["iou"]["mean"] == pytest.approx(0.5)


def test_agreement_matches_by_max_iou():
    ref = [ann("V1", 20.0, ("c000", 0.0, 5.0), ("c000", 10.0, 15.0))]
    other = [ann("V1", 20.0, ("c000", 10.5, 15.0), ("c000", 0.0, 4.0))]
    records, _ = agreement(ref, other, permutations=200)
    ious = sorted(r.iou for r in records)
    assert ious[0] == pytest.approx(4 / 5)
    assert ious[1] == pytest.approx(4.5 / 5)


def test_agreement_per_video_summary():
    ref = [ann("V1", 10.0, ("c000", 1.0, 4.0)),
           ann("V2", 10.0, ("c000", 1.0, 4.0), ("c001", 5.0, 9.0))]
    records, summary = agreement(ref, ref, permutations=200)
    assert summary["iou_per_video"]["mean"] == pytest.approx(1.0)
    assert len(records) == 3


def _uniform_preds(anns, n_frames=50, value=None, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for a in anns:
        times = np.linspace(0, a.duration, n_frames, endpoint=False)
        if value is None:
            scores = rng.random((n_frames, len(VOCAB)))
        else:
            scores = np.full((n_frames, len(VOCAB)), float(value))
        out.append(FramePredictions(a.video_id, times, scores))
    return out


def test_boundary_excluded_eval_drops_boundary_items():
    anns = [ann("V1", 10.0, ("c000", 3.0, 6.0))]
    preds = _uniform_preds(anns)
    res = boundary_excluded_eval(preds, anns, VOCAB)
    # boundary region [2,4] u [5,7] removes those sampled frames for c000
    times = (np.arange(25) + 0.5) * 10.0 / 25
    in_bnd = ((times >= 2) & (times <= 4)) | ((times >= 5) & (times <= 7))
    in_inst = (times >= 3) & (times <= 6)
    assert res.n_pos[0] == int((in_inst & ~in_bnd).sum())
    assert res.n_neg[0] == int((~in_inst & ~in_bnd).sum())
    # other classes keep all 25 items as negatives
    assert res.n_neg[1] == 25


def test_boundary_excluded_eval_improves_boundary_limited_method():
    # predictions that are perfect except inside the boundary region
    anns = [ann("V1", 10.0, ("c000", 3.0, 6.0), ("c001", 0.5, 2.0))]
    times = (np.arange(25) + 0.5) * 10.0 / 25
    scores = np.zeros((25, len(VOCAB)))
    region = boundary_region(anns[0].instances[0], 10.0)
    for i, t in enumerate(times):
        scores[i, 0] = 1.0 if 3.0 <= t <= 6.0 else 0.0
        if any(s <= t <= e for s, e in region.intervals):
            scores[i, 0] = 0.5   # confused near boundaries
        scores[i, 1] = 1.0 if 0.5 <= t <= 2.0 else 0.0
    preds = [FramePredictions("V1", times, scores)]
    from actdiag.metrics import localization_map
    plain = localization_map(preds, anns, VOCAB)
    excl = boundary_excluded_eval(preds, anns, VOCAB)
    assert excl.mean_ap >= plain.mean_ap
    assert excl.per_class_ap[0] == pytest.approx(1.0)


def test_perfect_classifier_not_perfect_at_localization():
    anns = [ann("V1", 10.0, ("c000", 3.0, 6.0)),
            ann("V2", 10.0, ("c001", 0.0, 10.0))]
    res = perfect_classifier_localization(anns, VOCAB)
    # c001 spans its whole video, so it localizes perfectly
    assert res.per_class_ap[1] == pytest.approx(1.0)
    # c000 scores 1 on frames outside its instance too
    assert res.per_class_ap[0] < 1.0
