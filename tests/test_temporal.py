import numpy as np
import pytest

from actdiag.corpus import (ActivityInstance, FramePredictions,
                            VideoAnnotation, load_vocabulary)
from actdiag import temporal
from actdiag.metrics import (build_localization_items, frame_period, labels_matrix,
                             per_class_eval, sample_grid)
from actdiag.report import SWEEP_FRACTIONS
from actdiag.temporal import (overlap_stats, score_context_benefit,
                              smooth_predictions, sweep_items, window_frames)

VOCAB = load_vocabulary("""class_id,verb_id,object_id,description
c000,v00,o00,hold cup
c001,v01,o00,drink from cup
c002,v00,o01,hold broom
""")


def ann(vid, duration, *insts):
    return VideoAnnotation(vid, duration,
                           tuple(ActivityInstance(c, s, e) for c, s, e in insts))


def _preds(n=20, duration=10.0, seed=0):
    rng = np.random.default_rng(seed)
    times = np.linspace(0, duration, n, endpoint=False)
    return FramePredictions("V1", times, rng.random((n, len(VOCAB))))


def test_smooth_zero_fraction_is_identity():
    p = _preds()
    out = smooth_predictions(p.scores, window_frames(np.array([frame_period(p.frame_times)]),
                                                      0.0, np.array([10.0]))[0])
    assert np.array_equal(out, p.scores)
    assert out is not p.scores


def test_smooth_window_one_frame_is_identity():
    p = _preds()
    out = smooth_predictions(p.scores, window_frames(np.array([frame_period(p.frame_times)]),
                                                      0.01, np.array([10.0]))[0])   # 0.1 s < one 0.5 s frame
    assert np.array_equal(out, p.scores)


def test_smooth_hand_window_three():
    times = np.arange(10, dtype=float)
    scores = np.zeros((10, 1))
    scores[5, 0] = 1.0
    out = smooth_predictions(scores, window_frames(np.array([frame_period(times)]), 0.3,
                                                    np.array([10.0]))[0])    # 3 s / 1 s period -> 3 frames
    want = np.zeros(10)
    want[4:7] = 1 / 3
    assert np.allclose(out[:, 0], want)


def test_smooth_truncates_at_the_ends():
    times = np.arange(10, dtype=float)
    scores = np.zeros((10, 1))
    scores[0, 0] = 1.0
    out = smooth_predictions(scores, window_frames(np.array([frame_period(times)]), 0.3,
                                                    np.array([10.0]))[0])
    # first frame averages only itself and its right neighbor
    assert out[0, 0] == pytest.approx(1 / 2)
    assert out[1, 0] == pytest.approx(1 / 3)
    assert out[2, 0] == pytest.approx(0.0)


def test_smooth_preserves_constant_signal():
    out = smooth_predictions(np.full((20, 2), 0.7),
                             window_frames(np.array([frame_period(np.arange(20.0))]), 0.5,
                                           np.array([20.0]))[0])
    assert np.allclose(out, 0.7)


def test_smooth_rejects_bad_fraction():
    p = _preds()
    with pytest.raises(ValueError):
        window_frames(np.array([frame_period(p.frame_times)]), 1.5, np.array([10.0]))


def test_smoothing_sweep_includes_zero_and_picks_best():
    anns = [ann("V1", 10.0, ("c000", 2.0, 8.0))]
    times = np.linspace(0, 10, 50, endpoint=False)
    rng = np.random.default_rng(1)
    clean = ((times >= 2) & (times <= 8)).astype(float)
    noisy = np.clip(clean[:, None] + rng.normal(scale=0.8, size=(50, 3)), 0, None)
    noisy[:, 1:] = rng.random((50, 2)) * 0.1
    preds = [FramePredictions("V1", times, noisy)]
    items = build_localization_items(preds, sample_grid(anns, VOCAB))
    labels = labels_matrix(anns, VOCAB)
    res = sweep_items(items, labels, (0.04, 0.16),
                      per_class_eval(items.column, items.labels),
                      per_class_eval(noisy.max(axis=0)[None], labels))
    assert res.fractions[0] == 0.0
    assert len(res.loc_map) == len(res.fractions) == 3
    assert res.best_fraction in res.fractions
    assert max(res.loc_map) == res.loc_map[res.fractions.index(res.best_fraction)]


def test_smoothing_helps_noisy_long_instances():
    # strong iid noise over a long instance: averaging must not hurt
    anns = [ann("V1", 20.0, ("c000", 2.0, 18.0))]
    rng = np.random.default_rng(2)
    times = np.linspace(0, 20, 100, endpoint=False)
    signal = ((times >= 2) & (times <= 18)).astype(float) * 0.2
    scores = np.zeros((100, 3))
    scores[:, 0] = signal + rng.random(100)
    preds = [FramePredictions("V1", times, scores)]
    items = build_localization_items(preds, sample_grid(anns, VOCAB))
    labels = labels_matrix(anns, VOCAB)
    res = sweep_items(items, labels, (0.08, 0.16, 0.32),
                      per_class_eval(items.column, items.labels),
                      per_class_eval(scores.max(axis=0)[None], labels))
    assert res.best_fraction > 0


def _sweep_inputs(anns, preds):
    items = build_localization_items(preds, sample_grid(anns, VOCAB))
    labels = labels_matrix(anns, VOCAB)
    video = np.stack([p.scores.max(axis=0) for p in preds])
    return (items, labels, per_class_eval(items.column, items.labels),
            per_class_eval(video, labels))


def _random_instances(rng, duration):
    return [(f"c00{rng.integers(3)}", *sorted(rng.uniform(0.0, duration, 2)))
            for _ in range(rng.integers(1, 4))]


def _irregular_corpus(seed):
    """Videos of 1 to 40 frames at jittered times, so frame periods and
    windows differ between videos; the first video has one frame."""
    rng = np.random.default_rng(seed)
    anns, preds = [], []
    for v in range(12):
        duration = float(rng.uniform(5.0, 60.0))
        n = 1 if v == 0 else int(rng.integers(2, 41))
        times = (np.arange(n) + 0.5 + rng.uniform(-0.2, 0.2, n)) * duration / n
        anns.append(ann(f"V{v}", duration, *_random_instances(rng, duration)))
        preds.append(FramePredictions(f"V{v}", times, rng.random((n, len(VOCAB)))))
    return anns, preds


def _corpus25(seed, n_videos=30):
    """25 frames per video at the sample times, as in the benchmark corpora."""
    rng = np.random.default_rng(seed)
    anns, preds = [], []
    for v in range(n_videos):
        duration = float(rng.uniform(10.0, 40.0))
        anns.append(ann(f"V{v}", duration, *_random_instances(rng, duration)))
        preds.append(FramePredictions(f"V{v}", (np.arange(25) + 0.5) * duration / 25,
                                      rng.random((25, len(VOCAB)))))
    return anns, preds


def _smoothed_loop(anns, preds, items, labels, fractions):
    """Smooth every video at every fraction and evaluate each fraction."""
    rows = items.rows.reshape(len(anns), -1) - items.first[:, None]
    loc, cls = [], []
    for f in fractions:
        smoothed = []
        for a, p in zip(anns, preds):
            w = 1
            if f > 0 and len(p.frame_times) >= 2:
                frames = f * a.duration / frame_period(p.frame_times)
                w = int(round(frames))
                if w % 2 == 0:
                    w += 1 if w < frames else -1
            if w <= 1:
                smoothed.append(p.scores.copy())
                continue
            half, n = w // 2, len(p.scores)
            cum = np.vstack([np.zeros((1, p.scores.shape[1])), np.cumsum(p.scores, axis=0)])
            lo = np.maximum(np.arange(n) - half, 0)
            hi = np.minimum(np.arange(n) + half + 1, n)
            smoothed.append((cum[hi] - cum[lo]) / (hi - lo)[:, None])
        loc.append(per_class_eval(np.concatenate([s[r] for s, r in zip(smoothed, rows)]),
                                  items.labels).mean_ap)
        cls.append(per_class_eval(np.stack([s.max(axis=0) for s in smoothed]),
                                  labels).mean_ap)
    return loc, cls


@pytest.mark.parametrize("seed", range(4))
def test_sweep_equals_smoothing_every_video_at_every_fraction(seed):
    anns, preds = _irregular_corpus(seed)
    items, labels, base_loc, base_cls = _sweep_inputs(anns, preds)
    fractions = (0.0, 0.01, 0.03, 0.05, 0.1, 0.2, 0.45, 1.0)
    durations = np.array([a.duration for a in anns])
    windows = [set(window_frames(items.period, f, durations)) for f in fractions]
    assert any(1 in ws and len(ws) > 2 for ws in windows)
    res = sweep_items(items, labels, fractions, base_loc, base_cls)
    loc, cls = _smoothed_loop(anns, preds, items, labels, fractions)
    assert res.fractions == list(fractions)
    assert res.loc_map == loc
    assert res.cls_map == cls
    assert res.best_fraction == fractions[loc.index(max(loc))]


@pytest.mark.parametrize("corpus", [_corpus25, _irregular_corpus])
def test_sweep_smooths_and_evaluates_each_distinct_set_of_windows_once(monkeypatch, corpus):
    anns, preds = corpus(5)
    items, labels, base_loc, base_cls = _sweep_inputs(anns, preds)
    fractions = (0.0, 0.01, 0.02, 0.04, 0.08, 0.16, 0.2, 0.32, 0.5)
    smoothed, evals = [], []

    def smooth(scores, w):
        smoothed.append(w)
        return smooth_predictions(scores, w)

    def evaluate(scores, labels):
        evals.append(labels.shape)
        return per_class_eval(scores, labels)
    monkeypatch.setattr(temporal, "smooth_predictions", smooth)
    monkeypatch.setattr(temporal, "per_class_eval", evaluate)
    sweep_items(items, labels, fractions, base_loc, base_cls)
    durations = np.array([a.duration for a in anns])
    distinct = {tuple(window_frames(items.period, f, durations)) for f in fractions} - {
        (1,) * len(anns)}
    assert sorted(smoothed) == sorted(w for ws in distinct for w in ws if w > 1)
    assert len(evals) == 2 * len(distinct)


def test_25_frame_sweep_smooths_one_set_of_windows(monkeypatch):
    anns, preds = _corpus25(6)
    items, labels, base_loc, base_cls = _sweep_inputs(anns, preds)
    calls = []
    monkeypatch.setattr(temporal, "per_class_eval",
                        lambda *a: calls.append(1) or per_class_eval(*a))
    res = sweep_items(items, labels, SWEEP_FRACTIONS, base_loc, base_cls)
    assert len(calls) == 2                                # fraction 0.16 alone smooths
    assert res.loc_map[:5] == [base_loc.mean_ap] * 5
    assert res.cls_map[:5] == [base_cls.mean_ap] * 5


def test_window_rule_settles_rounding_noise_as_a_whole_count():
    anns, preds = _corpus25(7)
    counts = [[f * a.duration / frame_period(p.frame_times) for a, p in zip(anns, preds)]
              for f in (0.08, 0.16)]
    for c, whole in zip(counts, (2, 4)):
        assert min(c) < whole < max(c)                  # the noise falls on both sides
    items, labels, base_loc, base_cls = _sweep_inputs(anns, preds)
    durations = np.array([a.duration for a in anns])
    assert set(window_frames(items.period, 0.08, durations)) == {1}
    assert set(window_frames(items.period, 0.16, durations)) == {3}
    res = sweep_items(items, labels, (0.08,), base_loc, base_cls)
    assert res.loc_map == [base_loc.mean_ap] * 2
    assert res.cls_map == [base_cls.mean_ap] * 2
    assert window_frames(np.array([1.0]), 0.2, np.array([10.0])) == [1]    # an exact tie goes down
    assert window_frames(np.array([1.0]), 0.2 * (1 + 1e-6), np.array([10.0])) == [3]


def test_context_benefit_hand():
    anns = [ann("V1", 10.0, ("c000", 0.0, 5.0), ("c001", 0.0, 5.0)),
            ann("V2", 10.0, ("c000", 0.0, 5.0)),
            ann("V3", 10.0, ("c002", 0.0, 5.0))]
    # c000's score is 0.9 when c001 present, 0.2 otherwise
    scores = np.array([[0.9, 0.5, 0.1],     # V1
                       [0.2, 0.5, 0.1],     # V2
                       [0.2, 0.5, 0.1]])    # V3
    res = score_context_benefit(scores, labels_matrix(anns, VOCAB))
    assert res[0] == 1          # only c001 raises c000
    assert res[1] == 0          # c001's score is flat everywhere


def test_context_benefit_skips_empty_splits():
    # every video contains c000, so "without c000" is empty and can never
    # count toward any class
    anns = [ann("V1", 10.0, ("c000", 0.0, 5.0)),
            ann("V2", 10.0, ("c000", 0.0, 5.0))]
    scores = np.array([[0.9, 0.8, 0.1],     # V1
                       [0.2, 0.1, 0.1]])    # V2
    res = score_context_benefit(scores, labels_matrix(anns, VOCAB))
    assert res.sum() == 0


def test_overlap_stats_disjoint_classes():
    anns = [ann("V1", 10.0, ("c000", 0.0, 4.0), ("c001", 5.0, 9.0))]
    mat = overlap_stats(anns, VOCAB)
    assert mat[0, 1] == 0.0 and mat[1, 0] == 0.0
    assert np.all(np.isnan(mat[2]))


def test_overlap_stats_nested_classes():
    # c001 [2,4] entirely inside c000 [0,8]
    anns = [ann("V1", 10.0, ("c000", 0.0, 8.0), ("c001", 2.0, 4.0))]
    mat = overlap_stats(anns, VOCAB)
    assert mat[1, 0] == pytest.approx(1.0)            # all of c001 under c000
    assert 0.2 < mat[0, 1] < 0.3                      # about a quarter of c000
    assert mat[0, 0] == 0.0                           # diagonal zeroed


def test_overlap_stats_matches_grid_frame_loop():
    rng = np.random.default_rng(0)
    anns = []
    for v in range(20):
        duration = float(rng.uniform(3.0, 20.0))
        insts = [(f"c00{rng.integers(3)}", *sorted(rng.uniform(0.0, duration, 2)))
                 for _ in range(rng.integers(0, 5))]   # a class may repeat in a video
        anns.append(ann(f"V{v}", duration, *insts))
    frames = np.zeros(len(VOCAB))
    co = np.zeros((len(VOCAB), len(VOCAB)))
    for a in anns:
        for t in np.arange(0.05, a.duration, 0.1):
            active = {VOCAB.index[i.category] for i in a.instances if i.start <= t <= i.end}
            for x in active:
                frames[x] += 1
                for y in active:
                    co[x, y] += 1
    with np.errstate(divide="ignore", invalid="ignore"):
        want = co / frames[:, None]
    np.fill_diagonal(want, 0.0)
    want[frames == 0] = np.nan
    np.testing.assert_array_equal(overlap_stats(anns, VOCAB), want)
