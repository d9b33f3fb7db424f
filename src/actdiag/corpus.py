"""Data model and file I/O for vocabularies, annotations, predictions and
auxiliary per-frame records.

File formats:
  vocabulary.csv   ``class_id,verb_id,object_id,description`` (header required)
  annotations.csv  ``video_id,duration_seconds,actions[,dataset]`` where
                   actions is a ``;``-joined list of ``class_id start end``
  predictions      video mode: ``video_id s_1 ... s_C`` (whitespace separated)
                   frame mode: ``video_id frame_index s_1 ... s_C`` preceded by
                   exactly one ``#fps=R`` header line; times are
                   ``frame_index / R``
  auxiliary.jsonl  one JSON object per line (any other JSON value is an
                   error), see AuxiliaryRecord

All loaders raise CorpusError with a line number on malformed input; nothing
is silently dropped. Loaded structures are immutable-by-convention and safe
to share across threads.
"""

import csv
import io
import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np


class CorpusError(ValueError):
    """Parse or validation failure; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ActivityCategory:
    id: str
    verb_id: str
    object_id: str
    description: str = ""


class Vocabulary:
    """Ordered category list; the order is the canonical column order of
    every score matrix in the toolkit."""

    def __init__(self, categories):
        self.categories = list(categories)
        self.index = {c.id: i for i, c in enumerate(self.categories)}
        if len(self.index) != len(self.categories):
            raise CorpusError("duplicate category ids")
        self.verb_ids = sorted({c.verb_id for c in self.categories})
        self.object_ids = sorted({c.object_id for c in self.categories})
        # column index -> component index, used by error typing and oracles
        vidx = {v: i for i, v in enumerate(self.verb_ids)}
        oidx = {o: i for i, o in enumerate(self.object_ids)}
        self.verb_of = np.array([vidx[c.verb_id] for c in self.categories])
        self.object_of = np.array([oidx[c.object_id] for c in self.categories])

    def __len__(self):
        return len(self.categories)

    @property
    def verb_count(self):
        return len(self.verb_ids)

    @property
    def object_count(self):
        return len(self.object_ids)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.categories == other.categories


@dataclass(frozen=True)
class ActivityInstance:
    category: str
    start: float
    end: float


@dataclass(frozen=True)
class VideoAnnotation:
    video_id: str
    duration: float
    instances: tuple
    dataset: str | None = None


@dataclass
class FramePredictions:
    video_id: str
    frame_times: np.ndarray  # (F,), monotone increasing
    scores: np.ndarray       # (F, C)

    def __eq__(self, other):
        return (isinstance(other, FramePredictions)
                and self.video_id == other.video_id
                and np.array_equal(self.frame_times, other.frame_times)
                and np.array_equal(self.scores, other.scores))


@dataclass
class VideoPredictions:
    video_id: str
    scores: np.ndarray  # (C,)

    def __eq__(self, other):
        return (isinstance(other, VideoPredictions)
                and self.video_id == other.video_id
                and np.array_equal(self.scores, other.scores))


@dataclass(frozen=True)
class AuxiliaryRecord:
    video_id: str
    frame_time: float
    person_box: tuple | None = None    # (x, y, w, h) pixels
    person_count: int | None = None
    motion: float | None = None
    pose: tuple | None = None          # ((x, y, confidence), ...)


@dataclass
class ValidationReport:
    missing_predictions: dict = field(default_factory=dict)   # method -> [video_id]
    unannotated_predictions: dict = field(default_factory=dict)
    auxiliary_coverage: float | None = None

    @property
    def findings(self):
        out = []
        for method, vids in sorted(self.missing_predictions.items()):
            for v in vids:
                out.append(f"{v}: no prediction from {method}")
        for method, vids in sorted(self.unannotated_predictions.items()):
            for v in vids:
                out.append(f"{v}: predicted by {method} but not annotated")
        return out


def _open(text):
    if isinstance(text, str):
        return io.StringIO(text)
    return text


def load_vocabulary(text):
    """Parse vocabulary.csv into a Vocabulary."""
    reader = csv.reader(_open(text))
    rows = list(reader)
    if not rows:
        raise CorpusError("empty vocabulary")
    start = 0
    if rows[0] and rows[0][0].strip().lower() == "class_id":
        start = 1
    categories = []
    seen = {}
    for ln, row in enumerate(rows[start:], start=start + 1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 3:
            raise CorpusError(f"expected class_id,verb_id,object_id[,description], got {row!r}", ln)
        cid, vid, oid = (x.strip() for x in row[:3])
        desc = row[3].strip() if len(row) > 3 else ""
        if not cid or not vid or not oid:
            raise CorpusError("empty id field", ln)
        if cid in seen:
            raise CorpusError(f"duplicate category id {cid!r} (first seen line {seen[cid]})", ln)
        seen[cid] = ln
        categories.append(ActivityCategory(cid, vid, oid, desc))
    if not categories:
        raise CorpusError("empty vocabulary")
    return Vocabulary(categories)


def _parse_float(s, what, ln):
    try:
        v = float(s)
    except ValueError:
        raise CorpusError(f"non-numeric {what}: {s!r}", ln) from None
    if not math.isfinite(v):
        raise CorpusError(f"non-finite {what}: {s!r}", ln)
    return v


def _check_new_video(seen, video_id, ln):
    """Record video_id's line in seen; a repeated id names both lines."""
    if video_id in seen:
        raise CorpusError(f"duplicate video_id {video_id!r} (first seen line "
                          f"{seen[video_id]})", ln)
    seen[video_id] = ln


def load_annotations(text, vocab):
    """Parse annotations.csv into a list of VideoAnnotation."""
    reader = csv.reader(_open(text))
    out = []
    seen = {}
    for ln, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if ln == 1 and row[0].strip().lower() == "video_id":
            continue
        if len(row) < 2:
            raise CorpusError(f"expected video_id,duration,actions, got {row!r}", ln)
        video_id = row[0].strip()
        _check_new_video(seen, video_id, ln)
        duration = _parse_float(row[1], "duration", ln)
        if duration <= 0:
            raise CorpusError(f"non-positive duration {duration}", ln)
        actions = row[2].strip() if len(row) > 2 else ""
        dataset = row[3].strip() if len(row) > 3 and row[3].strip() else None
        instances = []
        if actions:
            for part in actions.split(";"):
                part = part.strip()
                if not part:
                    continue
                bits = part.split()
                if len(bits) != 3:
                    raise CorpusError(f"expected 'class_id start end', got {part!r}", ln)
                cid = bits[0]
                if cid not in vocab.index:
                    raise CorpusError(f"unknown category id {cid!r}", ln)
                start = _parse_float(bits[1], "start", ln)
                end = _parse_float(bits[2], "end", ln)
                if start >= end:
                    raise CorpusError(f"start >= end for {cid} ({start} >= {end})", ln)
                if start < 0 or end > duration:
                    raise CorpusError(f"instance [{start}, {end}] outside [0, {duration}]", ln)
                instances.append(ActivityInstance(cid, start, end))
        out.append(VideoAnnotation(video_id, duration, tuple(instances), dataset))
    return out


def load_predictions(text, vocab, mode):
    """Parse a predictions file.

    mode='video' -> list of VideoPredictions;
    mode='frame' -> list of FramePredictions (rows grouped by video id,
    frame order preserved; requires exactly one ``#fps=R`` header line,
    before the first row).
    """
    if mode not in ("video", "frame"):
        raise ValueError(f"mode must be 'video' or 'frame', got {mode!r}")
    c, first = len(vocab), 1 if mode == "video" else 2   # first score column
    fps = None
    seen, out = {}, []
    groups = {}   # frame mode: video_id -> (times, rows); insertion order preserved
    for ln, line in enumerate(_open(text), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if mode == "frame" and line.startswith("#fps="):
                if fps is not None:
                    raise CorpusError("second '#fps=' header line", ln)
                fps = _parse_float(line[5:], "fps", ln)
                if fps <= 0:
                    raise CorpusError(f"non-positive fps {fps}", ln)
            continue
        if mode == "frame" and fps is None:
            raise CorpusError("frame predictions require a '#fps=R' header line", ln)
        bits = line.split()
        if len(bits) != first + c:
            raise CorpusError(f"expected {c} scores, got {len(bits) - first}", ln)
        if mode == "video":
            _check_new_video(seen, bits[0], ln)
            scores = np.array([_parse_float(b, "score", ln) for b in bits[1:]])
            out.append(VideoPredictions(bits[0], scores))
            continue
        idx = _parse_float(bits[1], "frame index", ln)
        scores = [_parse_float(b, "score", ln) for b in bits[2:]]
        times, rows = groups.setdefault(bits[0], ([], array("d")))
        if times and idx / fps <= times[-1]:
            raise CorpusError(f"frame index not increasing for {bits[0]}", ln)
        times.append(idx / fps)
        rows.extend(scores)
    return out if mode == "video" else [
        FramePredictions(vid, np.array(times), np.frombuffer(rows).reshape(len(times), c))
        for vid, (times, rows) in groups.items()]


def _aux_number(v, what, ln):
    """A finite JSON number as float; anything else is a CorpusError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise CorpusError(f"{what} must be a finite number, got {v!r}", ln)
    return float(v)


def _aux_numbers(v, size, what, ln):
    """A JSON list of `size` finite numbers as a tuple of floats."""
    if not isinstance(v, list) or len(v) != size:
        raise CorpusError(f"bad {what} {v!r}", ln)
    return tuple(_aux_number(x, what, ln) for x in v)


def load_auxiliary(text):
    """Parse auxiliary.jsonl into a list of AuxiliaryRecord."""
    out = []
    n_kp = None
    for ln, line in enumerate(_open(text), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusError(f"bad JSON: {e}", ln) from None
        if not isinstance(obj, dict):
            raise CorpusError(f"record must be a JSON object, got {obj!r}", ln)
        if "video_id" not in obj or "frame_time" not in obj:
            raise CorpusError("record needs video_id and frame_time", ln)
        box = obj.get("person_box")
        if box is not None:
            box = _aux_numbers(box, 4, "person_box", ln)
        pose = obj.get("pose")
        if pose is not None:
            if not isinstance(pose, list):
                raise CorpusError(f"bad pose {pose!r}", ln)
            if n_kp is None:
                n_kp = len(pose)
            elif len(pose) != n_kp:
                raise CorpusError(f"pose keypoint count {len(pose)} != {n_kp}", ln)
            pose = tuple(_aux_numbers(kp, 3, "keypoint", ln) for kp in pose)
        motion = obj.get("motion")
        if motion is not None:
            motion = _aux_number(motion, "motion", ln)
        count = obj.get("person_count")
        if count is not None and (isinstance(count, bool) or not isinstance(count, int)
                                  or count < 0):
            raise CorpusError(f"person_count must be a non-negative integer, "
                              f"got {count!r}", ln)
        out.append(AuxiliaryRecord(
            video_id=str(obj["video_id"]),
            frame_time=_aux_number(obj["frame_time"], "frame_time", ln),
            person_box=box,
            person_count=count,
            motion=motion,
            pose=pose,
        ))
    return out


def validate_corpus(annotations, predictions, auxiliary=None):
    """Cross-check coverage of predictions and auxiliary data.

    predictions: dict method name -> list of VideoPredictions or
    FramePredictions. Findings are reported, never raised; inputs are not
    mutated.
    """
    ann_ids = {a.video_id for a in annotations}
    report = ValidationReport()
    for method, preds in predictions.items():
        pred_ids = {p.video_id for p in preds}
        missing = sorted(ann_ids - pred_ids)
        extra = sorted(pred_ids - ann_ids)
        if missing:
            report.missing_predictions[method] = missing
        if extra:
            report.unannotated_predictions[method] = extra
    if auxiliary is not None and ann_ids:
        aux_ids = {r.video_id for r in auxiliary}
        report.auxiliary_coverage = len(ann_ids & aux_ids) / len(ann_ids)
    return report


# --- serialization (round-trip partner of the video-mode loader) ---

def dump_video_predictions(preds):
    lines = []
    for p in preds:
        lines.append(p.video_id + " " + " ".join(repr(float(s)) for s in p.scores))
    return "\n".join(lines) + "\n"
