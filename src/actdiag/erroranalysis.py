"""Typing of each class's top-ranked per-frame predictions and
cross-category confusion structure.

Top predictions are labeled by the first matching rule, in precedence
order: TP (inside an instance of the class), BND (inside a boundary region
of an instance of the class), OBJ (inside an instance of another class
sharing the object), VRB (sharing the verb), OTH (inside any other
instance), FP (inside no instance at all).
"""

from dataclasses import dataclass

import numpy as np

from .boundary import boundary_keep_mask
from .metrics import build_localization_items, sample_grid

LABELS = ("tp", "bnd", "obj", "vrb", "oth", "fp")


@dataclass
class ErrorBreakdown:
    """Per-category fractions over its top-ranked items; rows sum to 1."""
    fractions: np.ndarray   # (C, 6) in LABELS order, nan rows where masked
    top_n: np.ndarray       # (C,) item count actually inspected
    mask: np.ndarray        # (C,) bool


def classify_top_predictions(preds, annotations, vocab, samples_per_video=25,
                             top_n=None):
    """Fraction of each class's top-ranked localization items per error type.

    top_n defaults per class to its positive item count; classes with zero
    positives (or zero requested items) are masked.
    """
    grid = sample_grid(annotations, vocab, samples_per_video)
    return classify_top_items(build_localization_items(preds, grid),
                              boundary_keep_mask(grid, vocab), vocab, top_n)


def classify_top_items(items, keep, vocab, top_n=None):
    """classify_top_predictions on localization items, given their boundary
    keep mask (boundary.boundary_keep_mask)."""
    if top_n is not None and int(top_n) < 0:
        raise ValueError(f"top_n must be at least 0, got {top_n}")
    active = items.labels          # (N, C) item inside an instance of c
    any_active = active.any(axis=1)
    n_items, n_classes = active.shape
    same_obj = vocab.object_of[None, :] == vocab.object_of[:, None]   # (C, C)
    same_verb = vocab.verb_of[None, :] == vocab.verb_of[:, None]
    np.fill_diagonal(same_obj, False)
    np.fill_diagonal(same_verb, False)

    fractions = np.full((n_classes, len(LABELS)), np.nan)
    wanted = active.sum(axis=0) if top_n is None else np.full(n_classes, int(top_n))
    used_n = np.minimum(wanted, n_items)
    mask = used_n > 0
    for c in np.flatnonzero(mask):
        n, s = used_n[c], items.column(c)
        cut = np.partition(s, n_items - n)[n_items - n]   # the n-th highest score
        above = np.flatnonzero(s > cut)
        tied = np.flatnonzero(s == cut)[:n - len(above)]     # ties in item order
        top = np.concatenate((above, tied))
        hit = active[top]
        rules = (hit[:, c], ~keep[top, c], hit[:, same_obj[c]].any(axis=1),
                 hit[:, same_verb[c]].any(axis=1), any_active[top], True)
        rest, counts = np.ones(n, dtype=bool), []
        for rule in rules:             # each rule claims what earlier ones left
            claimed = rest & rule
            counts.append(np.count_nonzero(claimed))
            rest &= ~claimed
        fractions[c] = np.array(counts) / n
    return ErrorBreakdown(fractions, used_n, mask)


def score_confusion(scores, labels):
    """(C, C) matrix over a (V, C) score matrix and its (V, C) labels:
    entry (A, B) is the mean score assigned to class A over videos
    containing B but not A; nan where no video qualifies and on the
    diagonal."""
    absent = ~labels                              # (V, C) for the A side
    num = (scores * absent).T @ labels            # (A, B) sums
    den = absent.astype(float).T @ labels         # qualifying video counts
    mat = np.divide(num, den, out=np.full_like(num, np.nan), where=den > 0)
    np.fill_diagonal(mat, np.nan)
    return mat
