import io

import numpy as np
import pytest

from actdiag import corpus
from actdiag.corpus import (CorpusError, dump_video_predictions,
                            load_annotations, load_auxiliary, load_predictions,
                            load_vocabulary, validate_corpus, VideoPredictions)

VOCAB = """class_id,verb_id,object_id,description
c000,v00,o00,hold cup
c001,v01,o00,drink from cup
c002,v00,o01,hold broom
"""


def test_load_vocabulary_basic():
    v = load_vocabulary(VOCAB)
    assert len(v) == 3
    assert v.verb_count == 2
    assert v.object_count == 2
    assert v.categories[1].description == "drink from cup"
    assert v.index["c002"] == 2


def test_vocabulary_empty_stream():
    with pytest.raises(CorpusError, match="empty vocabulary"):
        load_vocabulary("")


def test_vocabulary_duplicate_id_cites_line():
    bad = VOCAB + "c000,v01,o01,dup\n"
    with pytest.raises(CorpusError, match="line 5.*duplicate"):
        load_vocabulary(bad)


def test_vocabulary_errors_cite_physical_lines_after_a_multiline_field():
    bad = 'class_id,verb_id,object_id,description\nc000,v00,o00,"two\nlines"\n' \
          "c001,v01,o01,\nc000,v02,o02,dup\n"
    with pytest.raises(CorpusError, match=r"line 5: duplicate .*first seen line 2\)"):
        load_vocabulary(bad)


def test_annotation_errors_cite_physical_lines_after_a_multiline_field():
    v = load_vocabulary(VOCAB)
    text = 'video_id,duration,actions\nV0,30.0,"c000 1 2;\nc001 3 4"\n\nV1,30.0,\nV0,30.0,\n'
    assert [a.video_id for a in load_annotations(text.rsplit("V0", 1)[0], v)] == ["V0", "V1"]
    with pytest.raises(CorpusError, match=r"line 6: duplicate .*first seen line 2\)"):
        load_annotations(text, v)


def test_vocabulary_header_after_a_blank_line_is_a_header():
    # the parent read the header as a category "class_id", so every score
    # matrix gained a column
    text = "\nclass_id,verb_id,object_id,description\nc000,v0,o0,x\n"
    assert [c.id for c in load_vocabulary(text).categories] == ["c000"]
    with pytest.raises(CorpusError, match=r"line 5: duplicate .*first seen line 3\)"):
        load_vocabulary(text + "\nc000,v1,o1,dup\n")


def test_annotations_header_after_a_blank_line_is_a_header():
    # the parent read the header as data: "line 3: non-numeric duration: 'duration'"
    v = load_vocabulary(VOCAB)
    text = "\n \nvideo_id,duration,actions\nV0,30.0,c000 1 2\n"
    assert [a.video_id for a in load_annotations(text, v)] == ["V0"]
    with pytest.raises(CorpusError, match="line 5: non-numeric duration: 'x'"):
        load_annotations(text + "V1,x,\n", v)


def test_vocabulary_row_with_a_fifth_field_is_rejected():
    # the parent loaded the description "hold" and dropped " cup"
    with pytest.raises(CorpusError, match=r"line 5: expected class_id,verb_id,object_id"):
        load_vocabulary(VOCAB + "c003,v00,o00,hold, cup\n")


def test_annotations_row_with_a_fifth_field_is_rejected():
    # the parent loaded dataset "ds" and dropped "extra"
    v = load_vocabulary(VOCAB)
    assert load_annotations("V0,10,c000 1 2,ds\n", v)[0].dataset == "ds"
    with pytest.raises(CorpusError, match=r"line 2: expected video_id,duration"):
        load_annotations("V0,10,\nV1,10,c000 1 2,ds,extra\n", v)


@pytest.mark.parametrize("cid", ['"c,0"', '"c""0"', '"c 0"', '"c\t0"'])
def test_vocabulary_rejects_an_id_no_table_can_carry(cid):
    with pytest.raises(CorpusError, match="line 3: class_id .* comma"):
        load_vocabulary(VOCAB.replace("c001,", f"{cid},"))


@pytest.mark.parametrize("vid", ['"V,1"', '"V""1"', '"V 1"', '"V\n1"'])
def test_annotations_reject_an_id_no_table_can_carry(vid):
    v = load_vocabulary(VOCAB)
    with pytest.raises(CorpusError, match="line 2: video_id .* comma"):
        load_annotations(f"V0,30.0,\n{vid},30.0,c000 1 2\n", v)


def test_load_annotations_basic():
    v = load_vocabulary(VOCAB)
    anns = load_annotations("VID01,30.0,c000 2.0 5.5;c001 4.0 9.0\n", v)
    assert len(anns) == 1
    a = anns[0]
    assert a.video_id == "VID01"
    assert a.duration == 30.0
    assert len(a.instances) == 2
    assert a.instances[1].category == "c001"


def test_load_annotations_empty_label_set():
    v = load_vocabulary(VOCAB)
    anns = load_annotations("VID02,30.0,\n", v)
    assert anns[0].instances == ()


def test_load_annotations_start_after_end():
    v = load_vocabulary(VOCAB)
    with pytest.raises(CorpusError, match="start >= end"):
        load_annotations("VID03,30.0,c000 9.0 2.0\n", v)


def test_load_annotations_unknown_category():
    v = load_vocabulary(VOCAB)
    with pytest.raises(CorpusError, match="unknown category"):
        load_annotations("VID03,30.0,c999 1.0 2.0\n", v)


def test_load_annotations_bad_timestamp_has_line_number():
    v = load_vocabulary(VOCAB)
    with pytest.raises(CorpusError, match="line 2"):
        load_annotations("VID01,30.0,\nVID02,30.0,c000 x 2.0\n", v)


def test_load_video_predictions():
    v = load_vocabulary(VOCAB)
    preds = load_predictions("VID01 0.1 0.9 0.3\n", v, "video")
    assert preds[0].video_id == "VID01"
    assert np.allclose(preds[0].scores, [0.1, 0.9, 0.3])


def test_load_video_predictions_width_mismatch():
    v = load_vocabulary(VOCAB)
    with pytest.raises(CorpusError, match="expected 3 scores"):
        load_predictions("VID01 0.1 0.9\n", v, "video")


def test_load_frame_predictions():
    v = load_vocabulary(VOCAB)
    text = "#fps=2\nVID01 0 0.1 0.2 0.3\nVID01 1 0.4 0.5 0.6\n"
    preds = load_predictions(text, v, "frame")
    assert len(preds) == 1
    assert preds[0].scores.shape == (2, 3)
    assert np.allclose(preds[0].frame_times, [0.0, 0.5])


def _frame_lines(videos=3, frames=4):
    return [f"V{v} {t} {v} {t} 0.5" for v in range(videos) for t in range(frames)]


def test_frame_scores_are_row_ranges_of_one_matrix():
    # the rows of a file whose videos are grouped are parsed into one buffer
    # that every video's scores is a view of, in file order
    preds = load_predictions("#fps=1\n" + "\n".join(_frame_lines()), load_vocabulary(VOCAB),
                             "frame")
    matrix = preds[0].scores.base
    assert matrix.nbytes == 12 * 3 * 8
    assert all(np.shares_memory(p.scores, matrix) for p in preds)
    assert np.concatenate([p.scores for p in preds]).tobytes() == matrix.tobytes()


@pytest.mark.parametrize("chunk", [1024, 2])
def test_interleaved_frame_file_loads_as_its_grouped_twin(monkeypatch, chunk):
    monkeypatch.setattr(corpus, "CHUNK", chunk)
    v = load_vocabulary(VOCAB)
    lines = _frame_lines()
    grouped = load_predictions("#fps=1\n" + "\n".join(lines), v, "frame")
    mixed = load_predictions("#fps=1\n" + "\n".join(lines[i * 4 + t] for t in range(4)
                                                     for i in range(3)), v, "frame")
    assert mixed == grouped
    assert all(np.shares_memory(p.scores, mixed[0].scores.base) for p in mixed)


def test_frame_predictions_require_fps_header():
    v = load_vocabulary(VOCAB)
    with pytest.raises(CorpusError, match="fps"):
        load_predictions("VID01 0 0.1 0.2 0.3\n", v, "frame")


def test_frame_predictions_reject_second_fps_header():
    # a second header would silently retime every later row: index 20 at 2.0 s
    v = load_vocabulary(VOCAB)
    text = "#fps=1\nVID01 0 0.1 0.2 0.3\n#fps=10\nVID01 20 0.4 0.5 0.6\n"
    with pytest.raises(CorpusError, match="line 3: second '#fps=' header"):
        load_predictions(text, v, "frame")


def test_frame_predictions_decreasing_index():
    v = load_vocabulary(VOCAB)
    text = "#fps=1\nVID01 1 0.1 0.2 0.3\nVID01 0 0.4 0.5 0.6\n"
    with pytest.raises(CorpusError, match="not increasing"):
        load_predictions(text, v, "frame")


def test_frame_predictions_reject_negative_frame_index():
    # the parent loaded this row at -1.5 s
    v = load_vocabulary(VOCAB)
    text = "#fps=2\nVID01 0 0.1 0.2 0.3\nVID02 -3 0.4 0.5 0.6\n"
    with pytest.raises(CorpusError, match="line 3: negative frame index '-3'"):
        load_predictions(text, v, "frame")


def test_prediction_numbers_follow_python_float_grammar():
    # np.loadtxt rejects 1_0; the line loop's float() reads it as ten
    v = load_vocabulary(VOCAB)
    preds = load_predictions("#fps=2\nVID01 1_0 1_0 0.5 2\n", v, "frame")
    assert preds[0].frame_times.tolist() == [5.0]
    assert preds[0].scores.tolist() == [[10.0, 0.5, 2.0]]
    assert load_predictions("VID01 1_0 0 0\n", v, "video")[0].scores[0] == 10.0


def test_non_finite_score_rejected():
    v = load_vocabulary(VOCAB)
    with pytest.raises(CorpusError, match="non-finite"):
        load_predictions("VID01 0.1 inf 0.3\n", v, "video")


def test_load_auxiliary():
    text = ('{"video_id": "VID01", "frame_time": 1.0, "person_box": [0, 0, 10, 20], '
            '"person_count": 2, "motion": 0.5, "pose": [[1, 2, 0.9], [3, 4, 0.8]]}\n')
    recs = load_auxiliary(text)
    assert recs[0].person_box == (0, 0, 10, 20)
    assert recs[0].pose[1] == (3, 4, 0.8)


def test_auxiliary_inconsistent_pose_schema():
    text = ('{"video_id": "a", "frame_time": 0, "pose": [[1, 2, 1], [3, 4, 1]]}\n'
            '{"video_id": "b", "frame_time": 0, "pose": [[1, 2, 1]]}\n')
    with pytest.raises(CorpusError, match="keypoint count"):
        load_auxiliary(text)


def test_validate_corpus():
    v = load_vocabulary(VOCAB)
    anns = load_annotations("VID01,30.0,c000 1 2\nVID02,30.0,\n", v)
    preds = {"m": [VideoPredictions("VID01", np.zeros(3)),
                   VideoPredictions("VID03", np.zeros(3))],
             "a": [VideoPredictions("VID09", np.zeros(3))]}
    findings, coverage = validate_corpus(anns, preds)
    assert findings == ["VID01: no prediction from a", "VID02: no prediction from a",
                        "VID02: no prediction from m",
                        "VID09: predicted by a but not annotated",
                        "VID03: predicted by m but not annotated"]
    assert coverage is None


def test_validate_corpus_clean_and_coverage():
    v = load_vocabulary(VOCAB)
    anns = load_annotations("VID01,30.0,\nVID02,30.0,\n", v)
    preds = {"m": [VideoPredictions("VID01", np.zeros(3)),
                   VideoPredictions("VID02", np.zeros(3))]}
    aux = load_auxiliary('{"video_id": "VID01", "frame_time": 0}\n')
    assert validate_corpus(anns, preds, aux) == ([], 0.5)


def test_round_trip():
    v = load_vocabulary(VOCAB)
    vp = load_predictions("VID01 0.125 -0.5 3e-7\n", v, "video")
    assert load_predictions(dump_video_predictions(
        [p.video_id for p in vp], [p.scores for p in vp]), v, "video") == vp


def test_canonical_ordering_stable():
    v1 = load_vocabulary(VOCAB)
    v2 = load_vocabulary(VOCAB)
    assert [c.id for c in v1.categories] == [c.id for c in v2.categories]


@pytest.mark.parametrize("record", [
    '{"video_id": "a", "frame_time": "x"}',
    '{"video_id": "a", "frame_time": NaN}',
    '{"video_id": "a", "frame_time": 1, "motion": "x"}',
    '{"video_id": "a", "frame_time": 1, "motion": Infinity}',
    '{"video_id": "a", "frame_time": 1, "person_box": [0, 0, "w", 20]}',
    '{"video_id": "a", "frame_time": 1, "person_box": 7}',
    '{"video_id": "a", "frame_time": 1, "pose": [[1, 2, 1], [3, "y", 1]]}',
    '{"video_id": "a", "frame_time": 1, "pose": [[1, 2, 1], [3, NaN, 1]]}',
    '5',
    'null',
    '{"video_id": null, "frame_time": 1}',
    '{"video_id": true, "frame_time": 1}',
    '{"video_id": ["a"], "frame_time": 1}',
    '{"video_id": 7, "frame_time": 1}',
])
def test_auxiliary_rejects_non_numeric_or_non_finite_values(record):
    text = '{"video_id": "a", "frame_time": 0}\n' + record + "\n"
    with pytest.raises(CorpusError, match="line 2"):
        load_auxiliary(text)


@pytest.mark.parametrize("count", ["1.5", "-1", '"2"', "true"])
def test_auxiliary_person_count_must_be_non_negative_integer(count):
    text = f'{{"video_id": "a", "frame_time": 0, "person_count": {count}}}\n'
    with pytest.raises(CorpusError, match="line 1.*person_count"):
        load_auxiliary(text)


def test_duplicate_video_id_rejected_naming_both_lines():
    v = load_vocabulary(VOCAB)
    with pytest.raises(CorpusError, match="line 3.*'VID01'.*line 1"):
        load_annotations("VID01,30.0,\nVID02,30.0,\nVID01,12.0,\n", v)
    with pytest.raises(CorpusError, match="line 3.*'VID01'.*line 2"):
        load_predictions("# scores\nVID01 0 0 0\nVID01 1 1 1\n", v, "video")
