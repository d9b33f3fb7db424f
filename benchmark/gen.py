"""Seeded synthetic corpora for the benchmark workloads.

Every number the program parses is generated as an integer and written
with a fixed number of decimals: times in centiseconds ("12.34"), frame
scores in ten-thousandths ("0.1234"). float() of such a string is the
correctly rounded quotient, so the arrays kept here (integer / 100 or
integer / 10000) equal, bit for bit, what the program reads back. The
checks in check.py run on these arrays, never on actdiag objects.

The class layout is that of the acceptance suite's scale corpus: 157
classes over 33 verbs and 38 objects, class c having verb c % 33 and
object 7c % 38; durations of 10-40 s; 1-6 instances per video.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

N_CLASSES = 157
N_VERBS = 33
N_OBJECTS = 38
FRAMES_PER_VIDEO = 25
KEYPOINTS = 13
JITTER_CS = 100          # re-annotation boundaries move by at most 1 s
CLASS_VERB = np.arange(N_CLASSES) % N_VERBS
CLASS_OBJECT = (np.arange(N_CLASSES) * 7) % N_OBJECTS


@dataclass
class Video:
    video_id: str
    duration_cs: int
    instances: list          # [(class index, start_cs, end_cs)]

    @property
    def duration(self):
        return self.duration_cs / 100


@dataclass
class Corpus:
    """Paths of the generated files plus the arrays behind them."""
    root: str
    files: dict = field(default_factory=dict)      # role -> path
    test: list = field(default_factory=list)       # [Video]
    video_scores: dict = field(default_factory=dict)   # method -> (V, C)
    frame_scores: dict = field(default_factory=dict)   # method -> [(F, C)]
    frame_times: dict = field(default_factory=dict)    # method -> [(F,)]

    def __post_init__(self):
        os.makedirs(self.root, exist_ok=True)


def _cs(x):
    return f"{x // 100}.{x % 100:02d}"


def _videos(rng, n, prefix, distinct_classes=False):
    """Videos whose first N_CLASSES each hold one class of a permutation,
    so that every class has a positive video: the report's bootstrap
    fails on a class without one (see README.md)."""
    out = []
    cover = rng.permutation(N_CLASSES)
    for v in range(n):
        dur = int(rng.integers(1000, 4001))
        k = int(rng.integers(1, 7))
        classes = (rng.choice(N_CLASSES, k, replace=False) if distinct_classes
                   else rng.integers(0, N_CLASSES, k))
        if v < N_CLASSES and cover[v] not in classes:
            classes[0] = cover[v]
        insts = []
        for c in classes:
            s = int(rng.integers(0, int(dur * 0.8) + 1))
            e = min(dur, s + int(rng.integers(100, dur // 2 + 1)))
            insts.append((int(c), s, e))
        out.append(Video(f"{prefix}{v:05d}", dur, insts))
    return out


def _write_vocab(path):
    lines = ["class_id,verb_id,object_id,description"]
    for c in range(N_CLASSES):
        lines.append(f"c{c:03d},v{CLASS_VERB[c]:03d},o{CLASS_OBJECT[c]:03d},"
                     f"synthetic {c}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _write_annotations(path, videos):
    rows = ["video_id,duration,actions"]
    for v in videos:
        acts = ";".join(f"c{c:03d} {_cs(s)} {_cs(e)}" for c, s, e in v.instances)
        rows.append(f"{v.video_id},{_cs(v.duration_cs)},{acts}")
    with open(path, "w") as f:
        f.write("\n".join(rows) + "\n")


def _score_text(q):
    """(R, C) integers in [0, 9999] -> (R,) byte strings "0.dddd 0.dddd ...\\n"
    built by digit arithmetic; formatting 15 M floats one by one would take
    longer than the program takes to parse them."""
    r, c = q.shape
    buf = np.empty((r, c, 7), dtype=np.uint8)
    buf[:, :, 0] = ord("0")
    buf[:, :, 1] = ord(".")
    for i, div in enumerate((1000, 100, 10, 1)):
        buf[:, :, 2 + i] = ord("0") + (q // div) % 10
    buf[:, :, 6] = ord(" ")
    buf[:, -1, 6] = ord("\n")
    return buf.reshape(r, c * 7)


def _write_frame_predictions(path, fps_text, prefixes, q):
    body = _score_text(q)
    with open(path, "wb") as f:
        f.write(f"#fps={fps_text}\n".encode())
        f.write(b"".join(p.encode() + row.tobytes() for p, row in zip(prefixes, body)))


def _write_video_predictions(path, videos, q):
    body = _score_text(q)
    with open(path, "wb") as f:
        f.write(b"".join(f"{v.video_id} ".encode() + row.tobytes()
                         for v, row in zip(videos, body)))


def sample_times(duration, n=FRAMES_PER_VIDEO):
    return (np.arange(n) + 0.5) * duration / n


def video_labels(videos):
    lab = np.zeros((len(videos), N_CLASSES), dtype=bool)
    for i, v in enumerate(videos):
        for c, _, _ in v.instances:
            lab[i, c] = True
    return lab


def frame_corpus(root, seed, n_videos):
    """Test and train splits plus one frame-mode method sampled at the 25
    evaluation times of each video (fps 1, the time as the frame index)."""
    rng = np.random.default_rng([seed, 1])
    c = Corpus(root)
    c.test = _videos(rng, n_videos, "V")
    train = _videos(rng, n_videos, "T")
    c.files = {"vocab": os.path.join(root, "vocab.csv"),
               "test": os.path.join(root, "test.csv"),
               "train": os.path.join(root, "train.csv"),
               "cnn": os.path.join(root, "cnn.txt")}
    _write_vocab(c.files["vocab"])
    _write_annotations(c.files["test"], c.test)
    _write_annotations(c.files["train"], train)
    q = rng.integers(0, 10000, (n_videos * FRAMES_PER_VIDEO, N_CLASSES))
    times = [sample_times(v.duration) for v in c.test]
    prefixes = [f"{v.video_id} {float(t)!r} " for v, ts in zip(c.test, times) for t in ts]
    _write_frame_predictions(c.files["cnn"], "1.0", prefixes, q)
    scores = q / 10000
    c.frame_times["cnn"] = times
    c.frame_scores["cnn"] = np.split(scores, n_videos)
    return c


def dense_corpus(root, seed, n_videos):
    """One frame-mode method at 2 fps with integer frame indices covering
    the whole of every test video."""
    rng = np.random.default_rng([seed, 2])
    c = Corpus(root)
    c.test = _videos(rng, n_videos, "V")
    c.files = {"vocab": os.path.join(root, "vocab.csv"),
               "test": os.path.join(root, "test.csv"),
               "dense": os.path.join(root, "dense.txt")}
    _write_vocab(c.files["vocab"])
    _write_annotations(c.files["test"], c.test)
    counts = [v.duration_cs * 2 // 100 + 1 for v in c.test]
    q = rng.integers(0, 10000, (sum(counts), N_CLASSES))
    prefixes = [f"{v.video_id} {i} " for v, n in zip(c.test, counts) for i in range(n)]
    _write_frame_predictions(c.files["dense"], "2", prefixes, q)
    bounds = np.cumsum(counts)[:-1]
    c.frame_times["dense"] = [np.arange(n) / 2.0 for n in counts]
    c.frame_scores["dense"] = np.split(q / 10000, bounds)
    return c


def _posed(rng, template):
    """Template under a random similarity transform, with small noise and
    an occasional unconfident keypoint."""
    a = rng.uniform(-np.pi / 4, np.pi / 4)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    xy = template @ rot.T * rng.uniform(40, 120) + rng.uniform(100, 500, 2)
    xy += rng.normal(0.0, 2.0, xy.shape)
    conf = rng.uniform(0.5, 1.0, KEYPOINTS)
    conf[rng.random(KEYPOINTS) < 0.05] = 0.05
    return [[round(float(x), 2), round(float(y), 2), round(float(p), 3)]
            for (x, y), p in zip(xy, conf)]


def _aux_lines(rng, videos, templates):
    """Two posed frames per video, each inside one of its instances, plus
    two unposed frames; every record has a box, a count and a motion."""
    lines = []
    for v in videos:
        for k in range(4):
            rec = {"video_id": v.video_id}
            if k < 2:
                c, s, e = v.instances[int(rng.integers(len(v.instances)))]
                rec["frame_time"] = int(rng.integers(s, e + 1)) / 100
                rec["pose"] = _posed(rng, templates[c])
            else:
                rec["frame_time"] = int(rng.integers(0, v.duration_cs)) / 100
            h = round(float(rng.uniform(40, 400)), 1)
            rec["person_box"] = [round(float(rng.uniform(0, 300)), 1),
                                 round(float(rng.uniform(0, 200)), 1),
                                 round(h * 0.4, 1), h]
            rec["person_count"] = int(rng.integers(1, 4))
            rec["motion"] = round(float(rng.gamma(2.0, 1.5)), 3)
            lines.append(json.dumps(rec))
    return lines


def _jittered(rng, videos):
    out = []
    for v in videos:
        insts = []
        for c, s, e in v.instances:
            s2 = min(max(s + int(rng.integers(-JITTER_CS, JITTER_CS + 1)), 0), v.duration_cs)
            e2 = min(max(e + int(rng.integers(-JITTER_CS, JITTER_CS + 1)), 0), v.duration_cs)
            insts.append((c, s2, e2) if s2 < e2 else (c, s, e))
        out.append(Video(v.video_id, v.duration_cs, insts))
    return out


def pose_corpus(root, seed, n_videos):
    """Video-mode scores for two methods, auxiliary records with poses
    drawn from per-class templates, and re-annotations with boundaries
    jittered by at most JITTER_CS. Each video holds a class at most once,
    so re-annotated instances match their own reference instance."""
    rng = np.random.default_rng([seed, 3])
    c = Corpus(root)
    c.test = _videos(rng, n_videos, "V", distinct_classes=True)
    train = _videos(rng, n_videos, "T", distinct_classes=True)
    reannotated = _jittered(rng, c.test)
    c.files = {"vocab": os.path.join(root, "vocab.csv"),
               "test": os.path.join(root, "test.csv"),
               "train": os.path.join(root, "train.csv"),
               "reann": os.path.join(root, "reann.csv"),
               "aux": os.path.join(root, "aux.jsonl")}
    _write_vocab(c.files["vocab"])
    _write_annotations(c.files["test"], c.test)
    _write_annotations(c.files["train"], train)
    _write_annotations(c.files["reann"], reannotated)
    templates = rng.uniform(-1.0, 1.0, (N_CLASSES, KEYPOINTS, 2))
    lines = _aux_lines(rng, train + c.test, templates)
    with open(c.files["aux"], "w") as f:
        f.write("\n".join(lines) + "\n")
    labels = video_labels(c.test)
    for name, signal in (("rgb", 2500), ("flow", 1500)):
        q = rng.integers(0, 10000 - signal, (n_videos, N_CLASSES)) + signal * labels
        path = os.path.join(root, f"{name}.txt")
        _write_video_predictions(path, c.test, q)
        c.files[name] = path
        c.video_scores[name] = q / 10000
    return c
