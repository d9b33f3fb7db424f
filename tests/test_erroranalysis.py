import numpy as np
import pytest

from actdiag.corpus import (ActivityInstance, FramePredictions,
                            VideoAnnotation, load_vocabulary)
from actdiag.erroranalysis import (LABELS, classify_top_items,
                                   classify_top_predictions, score_confusion)
from actdiag.metrics import LocalizationItems, labels_matrix

VOCAB = load_vocabulary("""class_id,verb_id,object_id,description
c000,v00,o00,hold cup
c001,v01,o00,drink from cup
c002,v00,o01,hold broom
c003,v02,o02,open door
""")


def ann(vid, duration, *insts):
    return VideoAnnotation(vid, duration,
                           tuple(ActivityInstance(c, s, e) for c, s, e in insts))


def test_labels_order():
    assert LABELS == ("tp", "bnd", "obj", "vrb", "oth", "fp")


def _typed_corpus():
    # one 25-sample video engineered so each error type appears for c000:
    # c000 active [4,6]; boundary [3.33,4.67] u [5.33,6.67];
    # c001 (same object) [10,12]; c002 (same verb) [14,16];
    # c003 (unrelated) [18,20]; nothing at all near t=22.
    anns = [ann("V1", 25.0,
                ("c000", 4.0, 6.0), ("c001", 10.0, 12.0),
                ("c002", 14.0, 16.0), ("c003", 18.0, 20.0))]
    times = (np.arange(25) + 0.5)
    scores = np.zeros((25, len(VOCAB)))
    # let c000's ranking walk through the types: a tp, a bnd, an obj,
    # a vrb, an oth, and a plain fp frame
    scores[4, 0] = 1.0    # t=4.5 inside instance -> tp
    scores[3, 0] = 0.9    # t=3.5 in boundary region -> bnd
    scores[10, 0] = 0.8   # t=10.5 inside c001 (shares o00) -> obj
    scores[14, 0] = 0.7   # t=14.5 inside c002 (shares v00) -> vrb
    scores[18, 0] = 0.6   # t=18.5 inside c003 -> oth
    scores[22, 0] = 0.5   # t=22.5 inside nothing -> fp
    return anns, [FramePredictions("V1", times, scores)]


def test_classify_top_predictions_each_type():
    anns, preds = _typed_corpus()
    res = classify_top_predictions(preds, anns, VOCAB, top_n=6)
    assert res.mask[0]
    assert res.top_n[0] == 6
    assert np.allclose(res.fractions[0], [1 / 6] * 6)


def test_classify_top_predictions_default_top_n_is_positive_count():
    anns, preds = _typed_corpus()
    res = classify_top_predictions(preds, anns, VOCAB)
    # c000 has 2 positive sampled frames (t=4.5, 5.5)
    assert res.top_n[0] == 2
    assert res.fractions[0][0] == pytest.approx(0.5)   # tp at rank 1
    assert res.fractions[0][1] == pytest.approx(0.5)   # bnd at rank 2


def test_classify_fractions_sum_to_one():
    anns, preds = _typed_corpus()
    res = classify_top_predictions(preds, anns, VOCAB, top_n=10)
    for c in np.flatnonzero(res.mask):
        assert res.fractions[c].sum() == pytest.approx(1.0, abs=1e-9)


def test_classify_precedence_tp_over_boundary():
    # a frame inside the instance is tp even though instances of the same
    # class elsewhere put it inside their boundary region
    anns = [ann("V1", 10.0, ("c000", 2.0, 8.0))]
    times = (np.arange(25) + 0.5) * 10.0 / 25
    scores = np.zeros((25, len(VOCAB)))
    scores[:, 0] = np.linspace(1, 0.5, 25)
    preds = [FramePredictions("V1", times, scores)]
    res = classify_top_predictions(preds, anns, VOCAB, top_n=25)
    f = res.fractions[0]
    in_inst = ((times >= 2.0) & (times <= 8.0)).sum()
    assert f[0] == pytest.approx(in_inst / 25)
    assert f[0] + f[1] + f[5] == pytest.approx(1.0)


def test_classify_rejects_negative_top_n():
    anns, preds = _typed_corpus()
    with pytest.raises(ValueError, match="top_n"):
        classify_top_predictions(preds, anns, VOCAB, top_n=-1)
    items, keep = _random_items(0)
    with pytest.raises(ValueError, match="top_n"):
        classify_top_items(items, keep, VOCAB, top_n=-1)
    res = classify_top_predictions(preds, anns, VOCAB, top_n=0)
    assert not res.mask.any() and not res.top_n.any()
    assert np.isnan(res.fractions).all()


def _ref_classify_top_items(items, keep, vocab, top_n=None):
    """The per-item typing loop that classify_top_items replaced."""
    active = items.labels
    any_active = active.any(axis=1)
    n_classes = len(vocab)
    same_obj = vocab.object_of[None, :] == vocab.object_of[:, None]
    same_verb = vocab.verb_of[None, :] == vocab.verb_of[:, None]
    np.fill_diagonal(same_obj, False)
    np.fill_diagonal(same_verb, False)
    fractions = np.full((n_classes, len(LABELS)), np.nan)
    used_n = np.zeros(n_classes, dtype=int)
    mask = np.zeros(n_classes, dtype=bool)
    for c in range(n_classes):
        n = int(active[:, c].sum()) if top_n is None else int(top_n)
        n = min(n, len(items.rows))
        if n == 0:
            continue
        top = np.argsort(-items.column(c), kind="stable")[:n]
        counts = dict.fromkeys(LABELS, 0)
        obj_cols = np.flatnonzero(same_obj[c])
        verb_cols = np.flatnonzero(same_verb[c])
        for i in top:
            if active[i, c]:
                counts["tp"] += 1
            elif not keep[i, c]:
                counts["bnd"] += 1
            elif active[i, obj_cols].any():
                counts["obj"] += 1
            elif active[i, verb_cols].any():
                counts["vrb"] += 1
            elif any_active[i]:
                counts["oth"] += 1
            else:
                counts["fp"] += 1
        fractions[c] = [counts[k] / n for k in LABELS]
        used_n[c] = n
        mask[c] = True
    return fractions, used_n, mask


def _random_items(seed, n=80):
    """Items with one-decimal score ties (so ties straddle every top-n cut)
    over VOCAB, whose c003 shares neither object nor verb with a class."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(-2, 6, (n, len(VOCAB))) / 10
    scores[rng.random(scores.shape) < 0.1] = -0.0
    labels = rng.random(scores.shape) < rng.uniform(0.05, 0.4, len(VOCAB))
    labels[:, 2] &= seed % 3 != 0                    # sometimes no positive
    items = LocalizationItems(np.zeros(n, dtype=int), np.zeros(n), labels, [],
                              scores, np.arange(n), np.zeros(0), np.zeros(0, dtype=int),
                              np.zeros(0, dtype=int))
    return items, rng.random(scores.shape) < 0.85


def test_classify_top_items_matches_the_per_item_loop():
    for seed in range(30):
        items, keep = _random_items(seed)
        for top_n in (None, 0, 1, 7, 13, 80, 200):
            got = classify_top_items(items, keep, VOCAB, top_n)
            want = _ref_classify_top_items(items, keep, VOCAB, top_n)
            assert np.array_equal(got.fractions, want[0], equal_nan=True)
            assert np.array_equal(got.top_n, want[1])
            assert np.array_equal(got.mask, want[2])


def test_cross_confusion_hand():
    anns = [ann("V1", 10.0, ("c001", 0.0, 5.0)),
            ann("V2", 10.0, ("c000", 0.0, 5.0)),
            ann("V3", 10.0, ("c001", 0.0, 5.0), ("c000", 6.0, 8.0))]
    scores = np.array([[0.4, 0.9, 0.1, 0.0],     # V1
                       [0.8, 0.2, 0.1, 0.0],     # V2
                       [0.7, 0.8, 0.1, 0.0]])    # V3
    mat = score_confusion(scores, labels_matrix(anns, VOCAB))
    # score of c000 on videos with c001 but not c000: just V1 -> 0.4
    assert mat[0, 1] == pytest.approx(0.4)
    # score of c001 on videos with c000 but not c001: just V2 -> 0.2
    assert mat[1, 0] == pytest.approx(0.2)
    assert np.isnan(mat[0, 0])
    # no video contains c003, so column 3 is undefined
    assert np.all(np.isnan(mat[:, 3]))

