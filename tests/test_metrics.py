import tracemalloc

import numpy as np
import pytest

from actdiag.corpus import (FramePredictions, VideoPredictions,
                            load_annotations, load_predictions, load_vocabulary)
from actdiag import boundary, metrics
from actdiag.metrics import (NormalizationConstants, LocalizationItems,
                             classification_map, interval_iou,
                             localization_map, normalized_ap, per_class_eval,
                             sample_times)
from actdiag.report import BOOTSTRAP_BLOCK, _resample_maps
from actdiag.temporal import window_frames

VOCAB = """class_id,verb_id,object_id,description
c000,v00,o00,hold cup
c001,v01,o00,drink from cup
c002,v00,o01,hold broom
"""


def brute_force_ap(scores, positives):
    """Classical AP with tied scores sharing one rank: each positive's
    precision counts every entry whose score is >= its own."""
    scores = list(scores)
    positives = list(positives)
    precisions = []
    for s, is_pos in zip(scores, positives):
        if not is_pos:
            continue
        tp = sum(1 for t, p in zip(scores, positives) if p and t >= s)
        fp = sum(1 for t, p in zip(scores, positives) if not p and t >= s)
        precisions.append(tp / (tp + fp))
    return sum(precisions) / len(precisions)


def test_interval_iou_identity():
    assert interval_iou((0, 10), (0, 10)) == 1.0


def test_interval_iou_hand():
    assert interval_iou((0, 10), (5, 15)) == pytest.approx(5 / 15)


def test_interval_iou_disjoint():
    assert interval_iou((0, 1), (2, 3)) == 0.0


def test_interval_iou_degenerate():
    with pytest.raises(ValueError):
        interval_iou((1, 1), (0, 2))


def test_normalized_ap_positive_first():
    k = NormalizationConstants(1, 1)
    assert normalized_ap([0.9, 0.5], [True, False], k) == 1.0


def test_normalized_ap_positive_second():
    k = NormalizationConstants(1, 1)
    assert normalized_ap([0.9, 0.5], [False, True], k) == 0.5


def test_normalized_ap_all_positive():
    k = NormalizationConstants(3, 1)
    assert normalized_ap([0.1, 0.2, 0.3], [True, True, True], k) == 1.0


def test_normalized_ap_requires_positive():
    with pytest.raises(ValueError):
        normalized_ap([0.5], [False], NormalizationConstants(1, 1))


def test_normalized_ap_matches_brute_force_with_actual_counts():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 21))
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)  # force ties
        pos = rng.random(n) < 0.5
        if not pos.any() or pos.all() and n == 1:
            continue
        k = NormalizationConstants(pos.sum(), max(0, (~pos).sum()))
        got = normalized_ap(scores, pos, k)
        want = brute_force_ap(list(scores), list(pos))
        assert got == pytest.approx(want, abs=1e-12)


def test_pessimistic_ties():
    # equal scores: negatives rank above positives
    k = NormalizationConstants(1, 1)
    assert normalized_ap([0.5, 0.5], [True, False], k) == 0.5


def test_normalized_ap_rejects_lists_of_unequal_length():
    k = NormalizationConstants(1, 1)
    with pytest.raises(ValueError, match="positive flags"):
        normalized_ap([0.9, 0.5], [False, True, True], k)
    with pytest.raises(ValueError, match="positive flags"):
        normalized_ap([0.9, 0.5, 0.1], [False, True], k)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    k = NormalizationConstants(5, 20)
    for _ in range(50):
        scores = rng.random(15)
        pos = rng.random(15) < 0.4
        if not pos.any():
            continue
        a = normalized_ap(scores, pos, k)
        b = normalized_ap(np.exp(3 * scores), pos, k)
        assert a == pytest.approx(b, abs=1e-12)


def test_duplication_invariance():
    rng = np.random.default_rng(4)
    k = NormalizationConstants(5, 20)
    for _ in range(50):
        scores = rng.choice([0.2, 0.5, 0.8], size=12)
        pos = rng.random(12) < 0.4
        if not pos.any():
            continue
        a = normalized_ap(scores, pos, k)
        b = normalized_ap(np.tile(scores, 2), np.tile(pos, 2), k)
        assert a == pytest.approx(b, abs=1e-12)


def _toy_corpus():
    vocab = load_vocabulary(VOCAB)
    anns = load_annotations(
        "V1,10,c000 1 4\nV2,10,c001 2 6\nV3,10,c000 0 9;c002 3 5\n", vocab)
    return vocab, anns


def test_classification_map_perfect():
    vocab, anns = _toy_corpus()
    from actdiag.metrics import labels_matrix
    labels = labels_matrix(anns, vocab)
    preds = [VideoPredictions(a.video_id, labels[i].astype(float) * (i + 1))
             for i, a in enumerate(anns)]
    res = classification_map(preds, anns, vocab)
    assert res.mean_ap == pytest.approx(1.0)
    assert res.class_mask.all()


def test_classification_map_missing_prediction():
    vocab, anns = _toy_corpus()
    preds = [VideoPredictions("V1", np.zeros(3))]
    with pytest.raises(ValueError, match="V2"):
        classification_map(preds, anns, vocab)


def test_classification_map_mean_over_masked_only():
    vocab, anns = _toy_corpus()
    anns = [a for a in anns if a.video_id != "V3"]  # drop c002 positives
    rng = np.random.default_rng(0)
    preds = [VideoPredictions(a.video_id, rng.random(3)) for a in anns]
    res = classification_map(preds, anns, vocab)
    assert not res.class_mask[2]
    assert np.isnan(res.per_class_ap[2])
    assert res.mean_ap == pytest.approx(np.mean(res.per_class_ap[:2]))


def test_classification_random_scores_near_chance():
    # scores independent of labels -> mAP near n_pos/(n_pos+n_neg)
    vocab = load_vocabulary(VOCAB)
    rng = np.random.default_rng(11)
    lines = []
    for i in range(400):
        cats = [c for c in ("c000", "c001", "c002") if rng.random() < 0.3]
        actions = ";".join(f"{c} 1 5" for c in cats)
        lines.append(f"V{i},10,{actions}")
    anns = load_annotations("\n".join(lines) + "\n", vocab)
    preds = [VideoPredictions(a.video_id, rng.random(3)) for a in anns]
    res = classification_map(preds, anns, vocab)
    consts = metrics.subset_constants(metrics.labels_matrix(anns, vocab))
    chance = consts.n_pos / (consts.n_pos + consts.n_neg)
    assert res.mean_ap == pytest.approx(chance, abs=0.05)


def test_classification_brute_force_toy():
    vocab, anns = _toy_corpus()
    scores = np.array([[0.9, 0.2, 0.1],
                       [0.3, 0.8, 0.4],
                       [0.5, 0.5, 0.2]])
    preds = [VideoPredictions(a.video_id, scores[i]) for i, a in enumerate(anns)]
    res = classification_map(preds, anns, vocab)
    from actdiag.metrics import labels_matrix
    labels = labels_matrix(anns, vocab)
    n_pos = labels.sum(axis=0).mean()
    n_neg = 3 - n_pos
    for c in range(3):
        entries = sorted(zip(scores[:, c], labels[:, c]),
                         key=lambda e: (-e[0], e[1]))
        tp = fp = 0
        precs = []
        for _, is_pos in entries:
            if is_pos:
                tp += 1
                r = tp / labels[:, c].sum()
                f = fp / (3 - labels[:, c].sum())
                precs.append(r * n_pos / (r * n_pos + f * n_neg))
            else:
                fp += 1
        assert res.per_class_ap[c] == pytest.approx(np.mean(precs), abs=1e-12)


def _frame_preds_from(anns, vocab, fps=5, noise=None, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for a in anns:
        times = np.arange(0, a.duration, 1 / fps)
        scores = np.zeros((len(times), len(vocab)))
        for inst in a.instances:
            c = vocab.index[inst.category]
            scores[(times >= inst.start) & (times <= inst.end), c] = 1.0
        if noise:
            scores += noise * rng.random(scores.shape)
        out.append(FramePredictions(a.video_id, times, scores))
    return out


def test_localization_map_oracle_scores():
    vocab, anns = _toy_corpus()
    preds = _frame_preds_from(anns, vocab, noise=0.5)
    # noise < 1 keeps positives strictly above negatives at each frame?
    # no: noise is additive everywhere, so use noise-free oracle instead
    preds = _frame_preds_from(anns, vocab)
    res = localization_map(preds, anns, vocab, samples_per_video=25)
    # ties between 0-score positives cannot occur, positives all score 1
    assert res.mean_ap == pytest.approx(1.0)


def test_localization_coverage_error():
    vocab, anns = _toy_corpus()
    preds = _frame_preds_from(anns, vocab)
    # truncate one video's frames to the first second
    p = preds[0]
    preds[0] = FramePredictions(p.video_id, p.frame_times[:3], p.scores[:3])
    with pytest.raises(ValueError, match="frame period"):
        localization_map(preds, anns, vocab)


def _scale_frame_corpus(n_videos=200, n_classes=157, frames=25):
    """A vocabulary, annotations and a loaded frame predictions file whose
    frames sit at the 25 sample times of each video."""
    rng = np.random.default_rng(5)
    vocab = load_vocabulary("".join(f"c{c},v{c % 9},o{c % 7}\n" for c in range(n_classes)))
    durations = rng.uniform(10, 40, n_videos)
    anns = load_annotations("".join(f"V{v},{d:.2f},c{v % n_classes} 1 5\n"
                                    for v, d in enumerate(durations)), vocab)
    lines = ["#fps=1.0"]
    for a in anns:
        for t, row in zip(sample_times(a.duration, frames),
                          rng.random((frames, n_classes)).round(4)):
            lines.append(f"{a.video_id} {float(t)!r} " + " ".join(map(str, row)))
    return vocab, anns, load_predictions("\n".join(lines), vocab, "frame")


def test_localization_items_index_the_loaded_matrix_without_copying_it():
    vocab, anns, preds = _scale_frame_corpus()
    grid = metrics.sample_grid(anns, vocab)
    metrics.build_localization_items(preds, grid)   # first-call allocations stay unmeasured
    tracemalloc.start()
    try:
        items = metrics.build_localization_items(preds, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = grid.labels.size * 8   # one (N, C) float64 copy: 6.3 MB
    assert peak < full / 10, f"items peaked at {peak / 1e6:.2f} MB"
    assert np.shares_memory(items.frame_scores, preds[0].scores)
    # each item reads its nearest frame's row, loaded or stacked by hand
    copies = [FramePredictions(p.video_id, p.frame_times, p.scores.copy()) for p in preds]
    for built in (items, metrics.build_localization_items(copies, grid)):
        gathered = np.stack([built.column(c) for c in range(len(vocab))], axis=1)
        want = np.concatenate([p.scores[r] for p, r in
                               zip(preds, built.rows.reshape(len(anns), -1)
                                   - built.first[:, None])])
        assert gathered.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 25, 26])
def test_frame_period_is_the_median_spacing_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for fps in (24, 25, 29.97, 30):
        for t in (np.arange(n) / fps,
                  np.sort(rng.choice(10 * n, n, replace=False)) / fps,
                  np.cumsum(rng.exponential(1 / fps, n)) + 100 * rng.random()):
            period = metrics.frame_period(t)
            assert type(period) is float
            assert period == float(np.median(np.diff(t)))


def _window_reference(times, fraction, duration):
    """The window rule one video at a time, with np.median for the period."""
    if fraction == 0 or len(times) < 2:
        return 1
    frames = fraction * duration / float(np.median(np.diff(times)))
    if abs(frames - round(frames)) <= 1e-9 * frames:
        frames = round(frames)
    return 2 * int(np.ceil(frames / 2)) - 1


def test_window_rule_over_item_periods_is_the_scalar_rule():
    vocab, anns, preds = _scale_frame_corpus()
    anns += load_annotations("T,10,\nO,10,\n", vocab)   # a 1 s period and one frame
    preds += [FramePredictions("T", np.arange(10.0), np.zeros((10, len(vocab)))),
              FramePredictions("O", np.array([5.0]), np.zeros((1, len(vocab))))]
    items = metrics.build_localization_items(preds, metrics.sample_grid(anns, vocab))
    assert items.period[-1] == 0
    durations = np.array([a.duration for a in anns])
    for f in (0.0, 0.01, 0.04, 0.08, 0.16, 0.2, 0.2 * (1 + 1e-6), 0.5, 1.0):
        assert window_frames(items.period, f, durations).tolist() == [
            _window_reference(p.frame_times, f, a.duration) for a, p in zip(anns, preds)]
    assert window_frames(items.period[-2:], 0.2, durations[-2:]).tolist() == [1, 1]
    assert window_frames(items.period[-2:], 0.2 * (1 + 1e-6), durations[-2:]).tolist() == [3, 1]
    with pytest.raises(ValueError, match="outside"):
        window_frames(items.period, 1.5, durations)


def test_localization_of_a_video_without_frames_names_it():
    vocab, anns = _toy_corpus()
    preds = _frame_preds_from(anns, vocab)
    preds[1] = FramePredictions(preds[1].video_id, np.zeros(0), np.zeros((0, len(vocab))))
    with pytest.raises(ValueError, match=f"{preds[1].video_id}: no predicted frames"):
        localization_map(preds, anns, vocab)


def test_localization_constant_score_matches_brute_force():
    vocab = load_vocabulary(VOCAB)
    anns = load_annotations("V1,10,c000 0 5\n", vocab)
    n = 20
    preds = [FramePredictions("V1", np.linspace(0, 10, 50),
                              np.full((50, 3), 0.5))]
    res = localization_map(preds, anns, vocab, samples_per_video=n)
    times = sample_times(10, n)
    pos = (times >= 0) & (times <= 5)
    # every score tied: each positive sees the full list, so precision is
    # R*n_pos / (R*n_pos + F*n_neg) with R = F = 1
    n_pos = pos.sum() / 3
    n_neg = n - n_pos
    want = n_pos / (n_pos + n_neg)
    assert res.per_class_ap[0] == pytest.approx(want, abs=1e-12)


def test_mean_ap_invariant_to_class_permutation():
    vocab, anns = _toy_corpus()
    rng = np.random.default_rng(5)
    scores = rng.random((3, 3))
    preds = [VideoPredictions(a.video_id, scores[i]) for i, a in enumerate(anns)]
    res = classification_map(preds, anns, vocab)

    perm = [2, 0, 1]
    vocab2 = load_vocabulary(
        "class_id,verb_id,object_id,description\n"
        + "\n".join(f"{vocab.categories[i].id},{vocab.categories[i].verb_id},"
                    f"{vocab.categories[i].object_id},x" for i in perm))
    preds2 = [VideoPredictions(a.video_id, scores[i][perm])
              for i, a in enumerate(anns)]
    res2 = classification_map(preds2, anns, vocab2)
    assert res.mean_ap == pytest.approx(res2.mean_ap, abs=1e-12)


def test_weighted_map_kernel_matches_expansion():
    # report._resample_maps is the one weighted-mAP kernel (bootstrap and
    # video curves): a row's mAP is the classification mAP of the list in
    # which video v appears weights[v] times
    rng = np.random.default_rng(9)
    for _ in range(40):
        n, c = int(rng.integers(3, 15)), int(rng.integers(1, 5))
        scores = rng.choice([0.1, 0.4, 0.8], size=(n, c))    # tie blocks
        labels = rng.random((n, c)) < 0.4
        labels[0, 0] = True
        weights = rng.integers(0, 4, (20, n))
        weights[0] = 0
        weights[0, np.flatnonzero(~labels.any(axis=1))] = 1   # no positive weight
        maps = _resample_maps(scores, labels, weights.astype(np.float32))
        for w, got in zip(weights, maps):
            exp_labels = np.repeat(labels, w, axis=0)
            if not exp_labels.any():
                assert np.isnan(got)
                continue
            want = per_class_eval(np.repeat(scores, w, axis=0), exp_labels).mean_ap
            assert got == pytest.approx(want, abs=1e-9)


# --- the rank-order path that the sort-only _positive_steps replaced ---

def _rank_order(scores, positives):
    """Indices sorting by score descending, equal scores negatives-first."""
    return np.lexsort((positives.astype(np.int8), -scores))


def _ranked_steps(pos, sorted_scores):
    """Ranks of a ranked list's positives, each one's block end (its last
    tied rank) and the index of the last positive in its block."""
    ranks = np.flatnonzero(pos)
    bounds = np.flatnonzero(sorted_scores[:-1] != sorted_scores[1:])
    ends = np.append(bounds, len(sorted_scores) - 1)[np.searchsorted(bounds, ranks)]
    return ranks, ends, np.searchsorted(ranks, ends, side="right") - 1


def _ref_normalized_ap(scores, positives, consts):
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    if not positives.any():
        raise ValueError("ranked list has no positive entries")
    order = _rank_order(scores, positives)
    ranks, ends, last = _ranked_steps(positives[order], scores[order])
    ap, _ = metrics._ranked_ap(ends + 1, np.ones(len(ranks)), last, len(order),
                               consts.n_pos, consts.n_neg)
    return float(ap)


def _ref_resample_maps(scores, labels, weights):
    n = weights.shape[1]
    total = weights.sum(axis=1, dtype=np.float64)
    npos = (weights @ labels.astype(np.float32)).astype(np.int64).mean(axis=1)
    nneg = total - npos
    classes = np.flatnonzero(labels.any(axis=0))
    counts = labels[:, classes].sum(axis=0)
    width, n_live = counts.max(), len(classes)
    step = np.empty((counts.sum(), n), dtype=np.float32)
    rows, items, last = (np.empty((width, n_live), dtype=np.intp) for _ in range(3))
    rank_of = np.empty(n, dtype=np.intp)
    start = 0
    for k, c in enumerate(classes):
        o = _rank_order(scores[:, c], labels[:, c])
        ranks, ends, lst = _ranked_steps(labels[o, c], scores[o, c])
        rank_of[o] = np.arange(n)
        step[start:start + len(ranks)] = rank_of <= ends[:, None]
        pad = np.minimum(np.arange(width), len(ranks) - 1)
        rows[:, k], items[:, k], last[:, k] = start + pad, o[ranks][pad], lst[pad] * n_live + k
        start += len(ranks)
    real = (np.arange(width)[:, None] < counts)[..., None]
    maps = np.full(len(weights), np.nan)
    for s in range(0, len(weights), BOOTSTRAP_BLOCK):
        block = slice(s, s + BOOTSTRAP_BLOCK)
        w = weights[block].T.copy()
        ap, live = metrics._ranked_ap((step @ w)[rows], w[items] * real, last,
                                      total[block], npos[block], nneg[block])
        n_live = live.sum(axis=0)
        np.divide(np.cumsum(np.where(live, ap, 0.0), axis=0)[-1], n_live,
                  out=maps[block], where=n_live > 0)
    return maps


def test_sum_rows_has_the_bits_of_the_last_prefix_sum():
    # numpy's a.sum(axis=0) adds pairwise when the other axes hold one
    # entry, which differs from the prefix sum for most of these draws
    rng = np.random.default_rng(15)
    for p in (9, 54):
        for shape in ((p, 1, 1), (p, 157, 1), (p, 157, 32), (p, 1)):
            for _ in range(30):
                a = rng.random(shape)
                got = metrics._sum_rows(a)
                assert got.tobytes() == np.cumsum(a, axis=0)[-1].tobytes(), shape


def _tie_heavy_lists(seed, n=60, n_classes=10):
    """Scores with one-decimal ties across positives and negatives, plus an
    all-positive class, a single positive, all-equal scores, mixed -0.0 and
    0.0, and a class without positives."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(-3, 8, (n, n_classes)) / 10
    labels = rng.random((n, n_classes)) < 0.3
    labels[:, 1] = True                              # all positive
    labels[:, 2] = False
    labels[rng.integers(n), 2] = True                # a single positive
    scores[:, 3] = 0.5                               # all scores equal
    scores[:, 4] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    scores[rng.random(n) < 0.2, 4] = 0.1
    labels[:, 5] = False                             # no positive
    return scores, labels


def test_positive_steps_match_the_rank_order_path():
    for seed in range(20):
        scores, labels = _tie_heavy_lists(seed)
        for c in np.flatnonzero(labels.any(axis=0)):
            s, p = scores[:, c], labels[:, c]
            o = _rank_order(s, p)
            ranks, ends, last = _ranked_steps(p[o], s[o])
            idx, got_ends, got_last = metrics._positive_steps(s, p)
            assert np.array_equal(idx, o[ranks])
            assert np.array_equal(got_ends, ends + 1)
            assert np.array_equal(got_last, last)


def test_evaluation_bits_match_the_rank_order_path(monkeypatch):
    rng = np.random.default_rng(0)
    runs = []
    for seed in range(12):
        scores, labels = _tie_heavy_lists(seed)
        keep = rng.random(labels.shape) < 0.8
        keep[:, 1] = True
        keep[labels[:, 2], 2] = True                 # keep the single positive
        items = LocalizationItems(np.zeros(len(scores), dtype=int), np.zeros(len(scores)),
                                  labels, [], scores, np.arange(len(scores)),
                                  np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        weights = np.stack([np.bincount(rng.integers(0, len(scores), len(scores)),
                                        minlength=len(scores)) for _ in range(40)]
                           + [rng.random(len(scores)) < 0.5 for _ in range(40)]
                           + [np.zeros(len(scores))]).astype(np.float32)
        consts = metrics.subset_constants(labels)
        runs.append((scores, labels, keep, items, weights, consts))

    def evaluate(resample_maps):
        out = []
        for scores, labels, keep, items, weights, consts in runs:
            aps = [metrics.normalized_ap(scores[:, c], labels[:, c], consts)
                   for c in np.flatnonzero(labels.any(axis=0))]
            full = metrics.per_class_eval(scores, labels)
            excl = boundary.excluded_eval(items, keep)
            out.append((np.array(aps), full.per_class_ap, full.mean_ap,
                        excl.per_class_ap, excl.mean_ap,
                        resample_maps(scores, labels, weights)))
        return out

    got = evaluate(_resample_maps)
    monkeypatch.setattr(metrics, "normalized_ap", _ref_normalized_ap)
    monkeypatch.setattr(boundary, "normalized_ap", _ref_normalized_ap)
    want = evaluate(_ref_resample_maps)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert np.array_equal(a, b, equal_nan=True)
    assert np.isnan(got[0][-1][-1])                  # the row without weight


def test_sample_grid_of_no_annotations_is_empty():
    # the parent died with numpy's bare "need at least one array to
    # concatenate"
    vocab = load_vocabulary(VOCAB)
    grid = metrics.sample_grid([], vocab, 25)
    assert grid.video_index.shape == grid.times.shape == (0,)
    assert grid.times.dtype == float
    assert grid.labels.shape == (0, len(vocab)) and grid.labels.dtype == bool
    anns = load_annotations("V0,10.0,c001 2 4\n", vocab)
    one = metrics.sample_grid(anns, vocab, 5)
    assert np.array_equal(one.times, sample_times(10.0, 5))
    assert one.labels.dtype == bool and one.labels[:, 1].tolist() == [
        False, True, False, False, False]
