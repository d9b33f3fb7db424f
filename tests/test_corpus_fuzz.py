"""Loader robustness: seeded single-span mutations of small valid inputs
raise nothing but CorpusError, and the chunked prediction parse gives what
its per-line loop gives on the whole file: equal arrays, or the same
CorpusError message."""

import numpy as np
import pytest

from actdiag import corpus
from actdiag.corpus import (CorpusError, load_annotations, load_auxiliary,
                            load_predictions, load_vocabulary)

VOCAB_TEXT = "class_id,verb_id,object_id,description\nc0,v0,o0,a\nc1,v1,o0,b\nc2,v0,o1,c\n"
VOCAB = load_vocabulary(VOCAB_TEXT)
ANNOTATIONS = "video_id,duration,actions\nA,10,c0 1 4;c1 2 3\nB,5.5,\nC,8,c2 0 8,x\n"
AUXILIARY = (
    '{"video_id": "A", "frame_time": 1.0, "person_box": [0, 0, 10, 20], '
    '"person_count": 2, "motion": 0.5, "pose": [[1, 2, 0.9], [3, 4, 0.8]]}\n'
    '{"video_id": "B", "frame_time": 0, "pose": [[1, 2, 1], [3, 4, 0.1]]}\n')
VIDEO_PREDS = ("# scores\nA 0.1 0.2 0.3\nB 1e-3 -2 5\nC 0 0 1\n"
               "D .5 5. +7\nE 1 2 3\n")
FRAME_PREDS = ("#fps=2\nA 0 0.1 0.2 0.3\nA 1 0.4 0.5 0.6\nB 0 1 2 3\n"
               "A 3 7 8 9\nB 2 -1 -2 -3\n# note\nB 4 0 0 0\nC 1 1 1 1\n")

# what a mutation writes over a span: separators python's split() takes,
# numbers only float() takes, non-finite and malformed values, structure
SPANS = ["", " ", "  ", "\t", "\x0c", "\x0b", "\xa0", "\u2003", "\n", "\r",
         "\x00", "#", "#fps=", "#fps=0", "-", "-3", "0", "1_0", "nan", "1e400",
         "-inf", "0.10.2", "1e", "x", ",", ";", '"', "{", "}", "[", "]",
         ":", "A", "c0", "\u0661", "9" * 30]


def _mutate(text, rng):
    i = int(rng.integers(len(text) + 1))
    j = min(len(text), i + int(rng.integers(4)))
    return text[:i] + SPANS[int(rng.integers(len(SPANS)))] + text[j:]


def _outcome(text, mode):
    """The parsed arrays, bit for bit, or the CorpusError message."""
    try:
        preds = load_predictions(text, VOCAB, mode)
    except CorpusError as e:
        return str(e)
    if mode == "video":
        return [(p.video_id, p.scores.shape, p.scores.tobytes()) for p in preds]
    return [(p.video_id, p.scores.shape, p.frame_times.tobytes(), p.scores.tobytes())
            for p in preds]


@pytest.fixture
def agree(monkeypatch):
    """agree(text, mode): load_predictions at a chunk of 2 lines equals the
    per-line loop over the whole file; returns that outcome."""
    monkeypatch.setattr(corpus, "CHUNK", 2)
    chunked = corpus._PredictionRows._parse_chunk

    def check(text, mode):
        got = _outcome(text, mode)
        monkeypatch.setattr(corpus._PredictionRows, "_parse_chunk", lambda self: False)
        try:
            assert got == _outcome(text, mode), text
        finally:
            monkeypatch.setattr(corpus._PredictionRows, "_parse_chunk", chunked)
        return got
    return check


def test_mutated_inputs_raise_only_corpus_errors(agree):
    rng = np.random.default_rng(0)
    loaders = [(VOCAB_TEXT, load_vocabulary),
               (ANNOTATIONS, lambda t: load_annotations(t, VOCAB)),
               (AUXILIARY, load_auxiliary),
               (VIDEO_PREDS, lambda t: agree(t, "video")),
               (FRAME_PREDS, lambda t: agree(t, "frame"))]
    for text, load in loaders:
        load(text)
        for _ in range(2000):
            mutated = _mutate(text, rng)
            try:
                load(mutated)
            except CorpusError:
                pass


def _frame(*rows, fps="#fps=2"):
    return "\n".join([fps, *rows]) + "\n"


@pytest.mark.parametrize("sep", ["\t", "\x0c", "\xa0", "\u2003", " \t "])
def test_chunked_parse_splits_on_every_separator_python_does(agree, sep):
    text = _frame(*(sep.join(["A", str(i), "0.5", "1e-3", str(-i)]) for i in range(5)))
    out = agree(text, "frame")
    assert out[0][1] == (5, 3)
    assert agree(VIDEO_PREDS.replace(" ", sep), "video")[4][0] == "E"


@pytest.mark.parametrize("bad", ["nan", "1e400", "-inf", "0.10.2", "1 2", "", "0x1"])
@pytest.mark.parametrize("at", [0, 1, 2, 3, 4])   # chunk of 2: lines 0-1, 2-3, 4
def test_chunked_parse_reports_the_line_loops_error(agree, bad, at):
    rows = [f"A {i} 0.1 0.2 0.3" for i in range(5)]
    rows[at] = f"A {at} 0.1 {bad} 0.3"
    message = agree(_frame(*rows), "frame")
    assert isinstance(message, str) and message.startswith(f"line {at + 2}:")
    vrows = [f"V{i} 0.1 0.2 0.3" for i in range(5)]
    vrows[at] = f"V{at} 0.1 {bad} 0.3"
    message = agree("\n".join(vrows), "video")
    assert isinstance(message, str) and message.startswith(f"line {at + 1}:")


@pytest.mark.parametrize("rows", [
    ["A 0 1 1 1", "A 1 1 1 1", "A 2 1 1 1", "A 2 1 1 1"],        # repeat across chunks
    ["A 0 1 1 1", "B 0 1 1 1", "A 1 1 1 1", "B 0.5 1 1 1"],       # interleaved in a chunk
    ["A 0 1 1 1", "A 1 1 1 1", "B 0 1 1 1", "A 0.5 1 1 1"],       # earlier chunk's time
    ["A 0 1 1 1", "A -3 1 1 1"],                                  # negative index
    ["A 0 1 1 1", "A 1_0 1_0 1 1", "A 11 1 1 1"],                 # float() grammar
    ["A 0 1 1 1", "A 1 1 1", "A 2 1 1 1 1", "A"],                 # ragged
    ["A 0 1 1 1", "A\r1 1 1 1", "A 2 1 1\r1"],                    # a carriage return
])
def test_chunked_parse_keeps_each_videos_times_rising(agree, rows):
    agree(_frame(*rows), "frame")


def test_chunked_parse_splits_and_interleaves_videos_across_chunks(agree):
    rows = ["A 0 1 1 1", "B 0 2 2 2", "A 1 3 3 3", "A 2 4 4 4", "B 1 5 5 5",
            "# between chunks", "C 0 6 6 6", "A 5 7 7 7"]
    out = agree(_frame(*rows), "frame")
    assert [(vid, shape) for vid, shape, _, _ in out] == [
        ("A", (4, 3)), ("B", (2, 3)), ("C", (1, 3))]
    assert np.frombuffer(out[0][2]).tolist() == [0.0, 0.5, 1.0, 2.5]


def test_chunked_parse_reports_errors_before_a_later_header(agree):
    # the header between chunks flushes the pending chunk, whose error is first
    assert agree(_frame("A 0 1 1 1", "A x 1 1 1", "#fps=3", "A 2 1 1 1"),
                 "frame").startswith("line 3: non-numeric frame index")
    assert agree(_frame("A 0 1 1 1", "A 1 1 1 1", "#fps=3", "A 2 1 1 1"),
                 "frame").startswith("line 4: second '#fps=' header")
    assert agree("A 0 1 1\n#fps=3\nB 1 1 1\nA 2 2 2\n",
                 "video").startswith("line 4: duplicate video_id 'A'")


def test_valid_chunks_take_the_loadtxt_path(monkeypatch):
    # at the real CHUNK a valid file never falls back to the line loop
    accepted = []
    chunked = corpus._PredictionRows._parse_chunk
    monkeypatch.setattr(corpus._PredictionRows, "_parse_chunk",
                        lambda self: accepted.append(chunked(self)) or accepted[-1])
    rows = [f"V{i // 7} {i % 7} 0.{i} 1e-{i % 9} -{i}" for i in range(2 * corpus.CHUNK + 5)]
    preds = load_predictions(_frame(*rows), VOCAB, "frame")
    assert accepted == [True, True, True]
    assert len(preds) == len(rows) // 7 + 1
    assert preds[3].scores[2].tolist() == [float("0.23"), 1e-5, -23.0]
