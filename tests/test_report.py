import csv
import json
import os
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from actdiag import report as report_mod
from actdiag.attributes import video_attributes
from actdiag.corpus import (ActivityInstance, AuxiliaryRecord, VideoAnnotation,
                            VideoPredictions, load_annotations, load_auxiliary,
                            load_predictions, load_vocabulary)
from actdiag.metrics import (aligned_predictions, classification_map, frame_period,
                             labels_matrix, per_class_eval, sample_grid)
from actdiag import oracles
from actdiag.report import (BUNDLE_NAME, RunConfig, bootstrap_map_ci, main,
                            run_report, suggest)
from actdiag.stats import bootstrap_ci, equal_population_bins

VOCAB_TEXT = """class_id,verb_id,object_id,description
c000,v00,o00,hold cup
c001,v01,o00,drink from cup
c002,v00,o01,hold broom
c003,v02,o02,open door
"""

TEST_ANN = """video_id,duration,actions
V0,10.0,c000 1 4;c001 5 9
V1,10.0,c001 0 6
V2,10.0,c002 2 8
V3,10.0,c003 1 9
V4,10.0,c000 0 5;c002 6 9
V5,10.0,c001 2 7;c003 0 3
"""

TRAIN_ANN = """video_id,duration,actions
T0,10.0,c000 1 4;c001 5 9
T1,10.0,c001 0 6
T2,10.0,c002 2 8
T3,10.0,c003 1 9
T4,10.0,c000 0 5
T5,10.0,c002 1 4;c003 5 9
"""

REANN = """video_id,duration,actions
V0,10.0,c000 1.2 4.1;c001 4.8 9
V1,10.0,c001 0 5.5
V2,10.0,c002 2.4 8.2
V3,10.0,c003 1 8.6
V4,10.0,c000 0 5.2;c002 6.1 9
V5,10.0,c001 2 7;c003 0 3.3
"""


def _write_corpus(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    paths = {}
    for name, text in [("vocab.csv", VOCAB_TEXT), ("test.csv", TEST_ANN),
                       ("train.csv", TRAIN_ANN), ("reann.csv", REANN)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)

    vids = [f"V{i}" for i in range(6)]
    lines = ["#fps=1.0"]
    for vid in vids:
        for t in range(10):
            scores = " ".join(repr(float(s)) for s in rng.random(4))
            lines.append(f"{vid} {t} {scores}")
    p = tmp_path / "cnn.txt"
    p.write_text("\n".join(lines) + "\n")
    paths["cnn"] = str(p)

    lines = [f"{vid} " + " ".join(repr(float(s)) for s in rng.random(4))
             for vid in vids]
    p = tmp_path / "svm.txt"
    p.write_text("\n".join(lines) + "\n")
    paths["svm"] = str(p)

    aux = []
    pose = [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
    for vid in vids + [f"T{i}" for i in range(6)]:
        for t in (2.0, 7.0):
            aux.append(json.dumps({
                "video_id": vid, "frame_time": t,
                "person_box": [0, 0, 40, 100 + 10 * (t == 7.0)],
                "person_count": 1, "motion": float(rng.random()),
                "pose": pose}))
    p = tmp_path / "aux.jsonl"
    p.write_text("\n".join(aux) + "\n")
    paths["aux"] = str(p)
    return paths


def _config(tmp_path, paths, out="diag", **kw):
    base = dict(vocab=paths["vocab.csv"], test=paths["test.csv"],
                train=paths["train.csv"],
                predictions={"cnn": paths["cnn"], "svm": paths["svm"]},
                aux=paths["aux"], reannotations=paths["reann.csv"],
                bootstrap_resamples=200, permutations=200,
                out=str(tmp_path / out))
    base.update(kw)
    return RunConfig(**base)


def test_run_report_writes_bundle(tmp_path):
    paths = _write_corpus(tmp_path)
    config = _config(tmp_path, paths)
    report = run_report(config)
    out = config.out
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "summary.md"))
    with open(os.path.join(out, "report.json")) as f:
        loaded = json.load(f)
    assert set(loaded["evaluation"]) == {"cnn", "svm"}
    ev = loaded["evaluation"]["cnn"]
    assert 0 <= ev["classification_map"] <= 1
    assert ev["classification_map_ci"][0] <= ev["classification_map_ci"][1]
    assert "localization_map" in ev
    assert loaded["evaluation"]["svm"]["localization"].startswith("skipped")
    assert "object" in loaded["oracles"]["single"]
    assert "temporal" in loaded["oracles"]["single"]
    assert loaded["oracles"]["single"]["object"] > ev["classification_map"]
    assert any(k.startswith("temporal+") for k in loaded["oracles"]["combined"])
    # every table named in the report exists on disk
    for fname in ("classification_cnn.csv", "localization_cnn.csv",
                  "boundary_excluded_cnn.csv", "errors_cnn.csv",
                  "confusion_svm.csv", "category_attributes.csv",
                  "video_attributes.csv", "agreement.csv", "overlap.csv",
                  "sweep_cnn.csv", "context_svm.csv", "oracle_eval.csv",
                  "suggestions.csv", "perfect_classifier_localization.csv"):
        assert os.path.exists(os.path.join(out, fname)), fname
    assert report["agreement"]["iou"]["mean"] > 0.5


def test_run_report_deterministic(tmp_path):
    paths = _write_corpus(tmp_path)
    run_report(_config(tmp_path, paths, out="a"))
    run_report(_config(tmp_path, paths, out="b"))
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    files = sorted(os.listdir(a_dir))
    assert files == sorted(os.listdir(b_dir))
    for f in files:
        with open(os.path.join(a_dir, f), "rb") as fa, \
             open(os.path.join(b_dir, f), "rb") as fb:
            assert fa.read() == fb.read(), f


def test_report_bundle_does_not_depend_on_the_hash_seed(tmp_path):
    # the in-process determinism tests share one hash seed, so an output
    # that follows set order would pass them
    paths = _write_corpus(tmp_path)
    src = pathlib.Path(report_mod.__file__).resolve().parent.parent
    bundles = []
    for seed in ("1", "2"):
        out = tmp_path / f"hash{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, "-m", "actdiag.report", "report",
             "--vocab", paths["vocab.csv"], "--test", paths["test.csv"],
             "--train", paths["train.csv"], "--pred", f"cnn={paths['cnn']}",
             "--pred", f"svm={paths['svm']}", "--aux", paths["aux"],
             "--reannotations", paths["reann.csv"], "--bootstrap", "200",
             "--out", str(out)], env=env, check=True, capture_output=True)
        bundles.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert bundles[0].keys() == bundles[1].keys()
    for name in bundles[0]:
        assert bundles[0][name] == bundles[1][name], name


@pytest.mark.parametrize("value, cell", [
    (None, ""), (True, "True"), (np.bool_(False), "False"), (7, "7"),
    (np.int64(-3), "-3"), (0.1, "0.1"), (np.float64(1 / 3), repr(1 / 3)),
    (np.float32(0.5), "0.5"), (float("nan"), "nan"), (np.float64("-inf"), "-inf"),
    ("c000", "c000")])
def test_table_formats_each_cell_by_one_rule(value, cell):
    assert report_mod._table(("id", "value"), [("x", value)]) == f"id,value\nx,{cell}\n"


def test_table_of_no_rows_is_its_header():
    assert report_mod._table(("a", "b"), []) == "a,b\n"
    with pytest.raises(TypeError, match="list"):
        report_mod._table(("a",), [([1],)])


def test_bundle_tables_parse_with_every_row_as_wide_as_its_header(tmp_path):
    paths = _write_corpus(tmp_path)
    config = _config(tmp_path, paths, bins=2)
    run_report(config)
    ids = "c000,c001,c002,c003"
    headers = {
        "classification_cnn.csv": "class_id,ap,n_pos,n_neg",
        "perfect_classifier_localization.csv": "class_id,ap,n_pos,n_neg",
        "agreement.csv": "video_id,class_id,iou,iou_noboundary,start_err,end_err,center_cov",
        "errors_cnn.csv": "class_id,tp,bnd,obj,vrb,oth,fp",
        "confusion_svm.csv": f"class_id,{ids}",
        "overlap.csv": f"class_id,{ids}",
        "category_attributes.csv": "class_id," + ",".join(report_mod.CATEGORY_ATTRS),
        "video_attributes.csv": "video_id," + ",".join(report_mod.VIDEO_ATTRS),
        "curve_cnn_train_examples.csv": "x_center,y_mean,y_std,n",
        "sweep_cnn.csv": "fraction,loc_map,cls_map",
        "context_svm.csv": "class_id,count",
        "oracle_eval.csv": "oracle,map",
        "suggestions.csv": "rule,method,triggered,text"}
    tables = {}
    for name in sorted(os.listdir(config.out)):
        if name.endswith(".csv"):
            with open(os.path.join(config.out, name), newline="") as f:
                rows = list(csv.reader(f))
            assert all(len(row) == len(rows[0]) for row in rows), name
            tables[name] = rows
    for name, header in headers.items():
        assert ",".join(tables[name][0]) == header, name
    for name in ("classification_cnn.csv", "errors_cnn.csv", "confusion_svm.csv",
                 "category_attributes.csv", "context_svm.csv"):
        assert [row[0] for row in tables[name][1:]] == ids.split(","), name
    assert len(tables["video_attributes.csv"]) == 7
    assert {row[3] for row in tables["video_attributes.csv"][1:]} == {"False"}
    assert ["combination", "map"] in tables["oracle_eval.csv"]
    with open(os.path.join(config.out, "suggestions.csv")) as f:
        assert all(line.endswith('"\n') for line in list(f)[1:])


def test_run_report_worker_count_does_not_change_output(tmp_path):
    paths = _write_corpus(tmp_path)
    run_report(_config(tmp_path, paths, out="w1", workers=1))
    run_report(_config(tmp_path, paths, out="w4", workers=4))
    for f in sorted(os.listdir(tmp_path / "w1")):
        with open(tmp_path / "w1" / f, "rb") as fa, \
             open(tmp_path / "w4" / f, "rb") as fb:
            assert fa.read() == fb.read(), f


def test_run_report_graceful_without_optional_inputs(tmp_path):
    paths = _write_corpus(tmp_path)
    config = _config(tmp_path, paths, train=None, aux=None,
                     reannotations=None, out="min")
    report = run_report(config)
    assert report["agreement"] == "skipped: no re-annotations"
    assert report["overlap"] == "skipped: no training annotations"
    assert report["oracles"]["single"]["temporal"].startswith("skipped")
    assert "object" in report["oracles"]["single"]


def test_run_report_skips_undersized_clustering(tmp_path):
    # six training videos cannot support k=30/50 intent clusters or 500
    # pose clusters; those oracles must degrade to markers, not errors
    paths = _write_corpus(tmp_path)
    report = run_report(_config(tmp_path, paths, out="sk"))
    single = report["oracles"]["single"]
    assert single["intent30"].startswith("skipped")
    assert single["intent50"].startswith("skipped")
    assert single["pose"].startswith("skipped")


def test_run_report_skips_pose_oracle_on_few_posed_training_frames(tmp_path):
    # 12 posed test frames but one posed training frame: only training
    # frames can be clustered, so k=5 must skip rather than abort the run
    paths = _write_corpus(tmp_path)
    pose = [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    aux = [{"video_id": f"V{i}", "frame_time": 3.0, "pose": pose} for i in range(6)]
    aux += [{"video_id": f"V{i}", "frame_time": 6.0, "pose": pose} for i in range(6)]
    aux.append({"video_id": "T0", "frame_time": 2.0, "pose": pose})
    p = tmp_path / "posed.jsonl"
    p.write_text("".join(json.dumps(r) + "\n" for r in aux))
    report = run_report(_config(tmp_path, paths, out="pk", aux=str(p), pose_k=5))
    assert report["oracles"]["single"]["pose"] == "skipped: not enough posed frames"


def test_run_report_skips_pose_oracle_when_no_pose_aligns(tmp_path):
    # every training pose has its confident keypoints at one point, so no
    # pose can be the alignment reference: skip, do not abort
    paths = _write_corpus(tmp_path)
    point = [[0.5, 0.5, 1.0]] * 3
    aux = [{"video_id": f"T{i}", "frame_time": 2.0, "pose": point} for i in range(3)]
    p = tmp_path / "points.jsonl"
    p.write_text("".join(json.dumps(r) + "\n" for r in aux))
    report = run_report(_config(tmp_path, paths, out="pa", aux=str(p), pose_k=2))
    assert report["oracles"]["single"]["pose"] == ("skipped: no pose that the "
                                                   "others can align to")


def test_run_report_small_intent_k_runs(tmp_path):
    paths = _write_corpus(tmp_path)
    report = run_report(_config(tmp_path, paths, out="ik", intent_ks=(2,)))
    assert isinstance(report["oracles"]["single"]["intent2"], float)


def test_oracle_section_equals_the_list_path(tmp_path):
    # the section scores (videos, classes) arrays; the public list API
    # (classification_map, combine) must give the same numbers exactly, on
    # prediction files in another order than the test annotations and
    # holding a video that no annotation names
    paths = _write_corpus(tmp_path)
    rng = np.random.default_rng(3)
    lines = open(paths["svm"]).read().splitlines() + ["X9 0.1 0.2 0.3 0.4"]
    svm = tmp_path / "svm_shuffled.txt"
    svm.write_text("\n".join(rng.permutation(lines)) + "\n")
    header, *rows = open(paths["cnn"]).read().splitlines()
    frames = {}   # video -> its lines, frames in time order
    for row in rows + [f"X9 {t} 0.5 0.5 0.5 0.5" for t in range(10)]:
        frames.setdefault(row.split()[0], []).append(row)
    cnn = tmp_path / "cnn_shuffled.txt"
    cnn.write_text("\n".join([header] + [row for vid in rng.permutation(list(frames))
                                         for row in frames[vid]]) + "\n")
    config = _config(tmp_path, paths, out="ref", intent_ks=(2,), pose_k=2,
                     predictions={"cnn": str(cnn), "svm": str(svm)})
    report = run_report(config)

    vocab = load_vocabulary(VOCAB_TEXT)
    test, train = load_annotations(TEST_ANN, vocab), load_annotations(TRAIN_ANN, vocab)
    aux = load_auxiliary(open(paths["aux"]).read())
    labels, train_labels = labels_matrix(test, vocab), labels_matrix(train, vocab)
    rows = {"object": oracles.component_oracle(labels, vocab.object_of),
            "verb": oracles.component_oracle(labels, vocab.verb_of),
            "temporal": oracles.temporal_oracle(
                oracles.build_temporal_stats(train, vocab), sample_grid(test, vocab),
                vocab),
            "intent2": oracles.intent_oracle(
                oracles.build_intent_clusters(train_labels, 2), labels),
            "pose": oracles.pose_oracle(
                oracles.build_pose_clusters(oracles.posed_frames(train, aux), vocab, 2),
                test, aux, vocab)}
    methods = {"cnn": [VideoPredictions(p.video_id, p.scores.max(axis=0))
                       for p in load_predictions(cnn.read_text(), vocab, "frame")],
               "svm": load_predictions(svm.read_text(), vocab, "video")}
    single, combined = {}, {}
    for oname, scores in rows.items():
        preds = [VideoPredictions(a.video_id, row) for a, row in zip(test, scores)]
        single[oname] = classification_map(preds, test, vocab).mean_ap
        for mname, mpreds in methods.items():
            combined[f"{oname}+{mname}"] = classification_map(
                oracles.combine(preds, aligned_predictions(mpreds, test)), test,
                vocab).mean_ap
        with open(os.path.join(config.out, f"oracle_{oname}.preds")) as f:
            assert load_predictions(f, vocab, "video") == preds
    assert report["oracles"] == {"single": single, "combined": combined}


def test_run_report_names_method_and_missing_video(tmp_path):
    paths = _write_corpus(tmp_path)
    lines = open(paths["svm"]).read().splitlines()
    short = tmp_path / "svm_short.txt"
    short.write_text("\n".join(x for x in lines if not x.startswith("V3 ")) + "\n")
    config = _config(tmp_path, paths, out="missing",
                     predictions={"cnn": paths["cnn"], "svm": str(short)})
    with pytest.raises(ValueError, match="svm.*V3"):
        run_report(config)
    assert not os.path.exists(config.out)


def test_run_report_rerun_leaves_no_stale_files(tmp_path):
    paths = _write_corpus(tmp_path)
    inputs = set(os.listdir(tmp_path))
    run_report(_config(tmp_path, paths, out="re"))
    assert (tmp_path / "re" / "classification_svm.csv").exists()
    run_report(_config(tmp_path, paths, out="re", predictions={"cnn": paths["cnn"]}))
    assert not list((tmp_path / "re").glob("*_svm.csv"))
    assert (tmp_path / "re" / "classification_cnn.csv").exists()
    assert set(os.listdir(tmp_path)) == inputs | {"re"}   # no temporary directory left


def test_bundle_names_are_all_recognised(tmp_path):
    paths = _write_corpus(tmp_path)
    run_report(_config(tmp_path, paths))
    assert all(BUNDLE_NAME.fullmatch(n) for n in os.listdir(tmp_path / "diag"))


def test_run_report_refuses_an_input_directory_holding_a_report(tmp_path):
    paths = _write_corpus(tmp_path)
    run_report(_config(tmp_path, paths))
    (tmp_path / "report.json").write_bytes((tmp_path / "diag" / "report.json").read_bytes())
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(FileExistsError):
        run_report(_config(tmp_path, paths, out="."))
    assert sorted(os.listdir(tmp_path)) == before


def test_run_report_refuses_a_bundle_with_a_foreign_file(tmp_path):
    paths = _write_corpus(tmp_path)
    run_report(_config(tmp_path, paths))
    (tmp_path / "diag" / "notes.txt").write_text("x")
    with pytest.raises(FileExistsError):
        run_report(_config(tmp_path, paths))
    assert (tmp_path / "diag" / "notes.txt").read_text() == "x"


def test_run_report_failed_swap_restores_the_earlier_bundle(tmp_path, monkeypatch):
    paths = _write_corpus(tmp_path)
    run_report(_config(tmp_path, paths))
    bundle = {n: (tmp_path / "diag" / n).read_bytes() for n in os.listdir(tmp_path / "diag")}
    inputs = set(os.listdir(tmp_path))
    rename = os.rename

    def failing_rename(src, dst):
        if ".tmp-" in str(src):
            raise OSError("simulated failure")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", failing_rename)
    with pytest.raises(OSError, match="simulated"):
        run_report(_config(tmp_path, paths, predictions={"cnn": paths["cnn"]}))
    assert set(os.listdir(tmp_path)) == inputs
    assert {n: (tmp_path / "diag" / n).read_bytes()
            for n in os.listdir(tmp_path / "diag")} == bundle


def test_run_report_refuses_a_directory_that_is_not_a_bundle(tmp_path):
    paths = _write_corpus(tmp_path)
    keep = tmp_path / "mine"
    keep.mkdir()
    (keep / "notes.txt").write_text("x")
    with pytest.raises(FileExistsError):
        run_report(_config(tmp_path, paths, out="mine"))
    assert os.listdir(keep) == ["notes.txt"]


def test_config_rejects_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        RunConfig(vocab=str(tmp_path / "nope.csv"), test=str(tmp_path / "nope2"))


@pytest.mark.parametrize("field, value, name", [
    ("bootstrap_resamples", 0, "bootstrap_resamples"),
    ("permutations", 0, "permutations"),
    ("samples_per_video", 0, "samples_per_video"),
    ("bins", 0, "bins"),
    ("pose_k", 0, "pose_k"),
    ("intent_ks", (30, 0), r"intent_ks\[1\]"),
    ("bootstrap_resamples", -5, "bootstrap_resamples"),
])
def test_config_rejects_non_positive_counts(tmp_path, field, value, name):
    paths = _write_corpus(tmp_path)
    with pytest.raises(ValueError, match=name):
        _config(tmp_path, paths, **{field: value})
    # the count is checked before any input path is looked at
    with pytest.raises(ValueError, match=name):
        RunConfig(vocab=str(tmp_path / "nope.csv"), test=str(tmp_path / "nope2"),
                  **{field: value})


@pytest.mark.parametrize("name", ["", "r,gb", 'a"b', "a b", "a\tb", "x/y", "x\\y"])
def test_config_rejects_method_names_that_break_a_cell_or_a_file_name(tmp_path, name):
    # the parent wrote "object+r,gb" as 3 cells under oracle_eval.csv's
    # 2-cell header, and failed on "x/y" only when it wrote classification_x/y.csv
    paths = _write_corpus(tmp_path)
    with pytest.raises(ValueError, match="method name"):
        _config(tmp_path, paths, predictions={name: paths["svm"]})
    out = tmp_path / "named"
    with pytest.raises(ValueError, match="method name"):
        main(["report", "--vocab", paths["vocab.csv"], "--test", paths["test.csv"],
              "--pred", f"{name}={paths['svm']}", "--out", str(out)])
    assert not out.exists()


def test_config_rejects_a_negative_seed(tmp_path):
    # the parent read and evaluated every input, then failed inside the
    # bootstrap with numpy's "expected non-negative integer"
    paths = _write_corpus(tmp_path)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        RunConfig(vocab=str(tmp_path / "nope.csv"), test=str(tmp_path / "nope2"), seed=-1)
    out = tmp_path / "negative"
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        main(["report", "--vocab", paths["vocab.csv"], "--test", paths["test.csv"],
              "--pred", f"cnn={paths['cnn']}", "--seed", "-1", "--bootstrap", "20",
              "--out", str(out)])
    assert not out.exists()


def test_eval_and_smooth_on_frames_do_not_import_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma; the frame period needs none
    paths = _write_corpus(tmp_path)
    code = ("import sys; from actdiag.report import main; main(sys.argv[1:]); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(report_mod.__file__)))
    for command in ("eval", "smooth"):
        out = subprocess.run([sys.executable, "-c", code, command,
                              "--vocab", paths["vocab.csv"], "--test", paths["test.csv"],
                              "--pred", f"cnn={paths['cnn']}"],
                             env=env, check=True, capture_output=True, text=True).stdout
        assert "cnn" in out and out.splitlines()[-1] == "False", (command, out)


def test_config_accepts_method_names_with_dots_dashes_and_underscores(tmp_path):
    paths = _write_corpus(tmp_path)
    config = _config(tmp_path, paths, predictions={"rgb-2.v_1": paths["svm"]})
    assert list(config.predictions) == ["rgb-2.v_1"]


def test_report_on_an_empty_test_split_names_it(tmp_path):
    # the parent computed sections until metrics.sample_grid died with
    # numpy's bare "need at least one array to concatenate"
    paths = _write_corpus(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("video_id,duration,actions\n")
    with pytest.raises(ValueError, match=f"test split {re.escape(str(empty))} "
                                         "holds no videos"):
        run_report(_config(tmp_path, paths, out="empty", test=str(empty),
                           predictions={}))
    assert not (tmp_path / "empty").exists()


def test_report_builds_each_label_matrix_and_the_posed_frames_once(tmp_path,
                                                                   monkeypatch):
    # the parent built the label matrices again in each oracle and in the
    # intent check, sampled the test videos' times again in the temporal
    # oracle, and listed the posed training frames for the pose check and
    # again for the clustering
    paths = _write_corpus(tmp_path)
    calls = {"labels_matrix": [], "sample_times": [], "posed_frames": []}
    modules = [m for name, m in sys.modules.items() if name.startswith("actdiag.")]
    for mod in modules:
        for fname, log in calls.items():
            if (fn := getattr(mod, fname, None)) is not None:
                def counted(first, *args, _fn=fn, _log=log):
                    _log.append(first)
                    return _fn(first, *args)
                monkeypatch.setattr(mod, fname, counted)
    report = run_report(_config(tmp_path, paths, out="once", intent_ks=(2,), pose_k=2))
    assert isinstance(report["oracles"]["single"]["intent2"], float)
    assert isinstance(report["oracles"]["single"]["pose"], float)
    test_ids, train_ids = [f"V{i}" for i in range(6)], [f"T{i}" for i in range(6)]
    assert sorted([a.video_id for a in anns] for anns in calls["labels_matrix"]) == [
        train_ids, test_ids]
    assert [[a.video_id for a in anns] for anns in calls["posed_frames"]] == [train_ids]
    assert len(calls["sample_times"]) == len(test_ids) + len(train_ids)


def test_report_takes_each_test_videos_frame_period_once(tmp_path, monkeypatch):
    # the parent took it for the localization items and again for each of
    # the five smoothed fractions of the sweep: six times a video
    paths = _write_corpus(tmp_path)
    calls = []
    for mod in [m for name, m in sys.modules.items() if name.startswith("actdiag.")]:
        if getattr(mod, "frame_period", None) is frame_period:
            monkeypatch.setattr(mod, "frame_period",
                                lambda times: calls.append(times) or frame_period(times))
    report = run_report(_config(tmp_path, paths, out="period"))
    assert report["smoothing_sweep"]["cnn"]["fractions"] == list(report_mod.SWEEP_FRACTIONS)
    assert len(calls) == 6                              # the six test videos of cnn


def test_cli_report_rejects_zero_bootstrap_before_reading(tmp_path):
    # the parent read and validated every input, then died in the
    # bootstrap with a bare IndexError from np.quantile over no resamples
    paths = _write_corpus(tmp_path)
    out = tmp_path / "cli_zero"
    with pytest.raises(ValueError, match="bootstrap_resamples must be at least 1"):
        main(["report", "--vocab", paths["vocab.csv"], "--test", paths["test.csv"],
              "--train", paths["train.csv"], "--pred", f"svm={paths['svm']}",
              "--bootstrap", "0", "--out", str(out)])
    assert not out.exists()


def test_bootstrap_map_ci_matches_generic_bootstrap():
    rng = np.random.default_rng(0)
    n = 30
    scores = rng.random((n, 4))
    labels = rng.random((n, 4)) < 0.4
    labels[0] = True
    no_positive = labels.copy()
    no_positive[:, 2] = False       # a class no test video has
    tied = np.round(scores, 1)      # tie blocks mixing positives and negatives
    one_video = np.zeros_like(labels)
    one_video[7, [0, 3]] = True     # a third of the resamples miss it and are redrawn
    for sc, lab in ((scores, labels), (scores, no_positive), (tied, labels),
                    (scores, one_video)):
        lo_ref, hi_ref, _ = bootstrap_ci(np.arange(n), _one_row_map(sc, lab),
                                         b=200, seed=5)
        lo, hi = bootstrap_map_ci(sc, lab, b=200, seed=5)
        assert lo == lo_ref and hi == hi_ref


def _one_row_map(scores, labels):
    """The statistic of stats.bootstrap_ci: the weighted-mAP kernel on one
    resample's video counts, raising ValueError where it has no positive."""
    def stat(idx):
        w = np.bincount(np.asarray(idx, int), minlength=len(scores))
        m = report_mod._resample_maps(scores, labels, w[None].astype(np.float32))[0]
        if np.isnan(m):
            raise ValueError("resample has no positive labels")
        return m
    return stat


def test_bootstrap_map_ci_block_size_invariant(monkeypatch):
    rng = np.random.default_rng(1)
    scores = np.round(rng.random((40, 12)), 1)      # tie blocks
    labels = rng.random((40, 12)) < 0.3
    labels[:, 0] = True             # ftot == 0 in every resample: AP 1
    labels[:, 5] = False            # never live
    assert labels.any(axis=0).sum() >= 8
    b = 449                         # a last block of one row
    assert b % 7 == b % report_mod.BOOTSTRAP_BLOCK == 1
    weights = np.stack([np.bincount(np.random.default_rng((2, i)).integers(0, 40, 40),
                                    minlength=40) for i in range(b)]).astype(np.float32)
    results = []
    for block in (1, 7, report_mod.BOOTSTRAP_BLOCK):
        monkeypatch.setattr(report_mod, "BOOTSTRAP_BLOCK", block)
        results.append((report_mod._resample_maps(scores, labels, weights).tobytes(),
                        bootstrap_map_ci(scores, labels, b=b, seed=2)))
    assert results[0] == results[1] == results[2]


def test_bootstrap_map_ci_blas_threads_do_not_change_output():
    code = ("import numpy as np; from actdiag.report import bootstrap_map_ci; "
            "rng = np.random.default_rng(3); s = np.round(rng.random((300, 20)), 2); "
            "l = rng.random((300, 20)) < 0.2; "
            "print(repr(bootstrap_map_ci(s, l, b=300, level=0.5, seed=4)))")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(os.path.dirname(report_mod.__file__)))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1] and outs[0].startswith("(")


def test_bootstrap_map_ci_raises_when_every_redraw_misses():
    n = 30
    scores = np.random.default_rng(0).random((n, 4))
    labels = np.zeros((n, 4), dtype=bool)
    labels[7, [0, 3]] = True

    with pytest.raises(ValueError, match="no positive labels"):
        bootstrap_ci(np.arange(n), _one_row_map(scores, labels), b=200, seed=1)
    with pytest.raises(ValueError, match="no positive labels"):
        bootstrap_map_ci(scores, labels, b=200, seed=1)


def test_video_curves_match_each_bins_subset_map():
    # a bin's mAP is the classification mAP of its member videos, what the
    # per-bin weighted_classification_map computed on 0/1 weights; the 15
    # videos without actions fill the first num_actions bin, which has no
    # positive label and reads nan
    rng = np.random.default_rng(6)
    vocab = load_vocabulary(VOCAB_TEXT)
    test, aux = [], []
    for v in range(60):
        insts = tuple(ActivityInstance(f"c00{rng.integers(4)}", 1.0, 5.0)
                      for _ in range(0 if v < 15 else int(rng.integers(1, 4))))
        test.append(VideoAnnotation(f"V{v}", 10.0, insts))
        if v % 10 != 3:     # no auxiliary record: left out of those curves
            aux.append(AuxiliaryRecord(f"V{v}", 1.0, motion=float(rng.random()),
                                       person_box=(0, 0, 10, int(rng.integers(50, 55))),
                                       person_count=int(rng.integers(1, 3))))
    labels = labels_matrix(test, vocab)
    methods = {m: SimpleNamespace(scores=np.round(rng.random((60, 4)), 1))
               for m in ("a", "b")}
    ctx = SimpleNamespace(config=SimpleNamespace(bins=4), test=test, labels=labels,
                          methods=methods, video_table=video_attributes(test, aux))
    curves = report_mod._video_curves(ctx)[0]["video_curves"]
    assert list(curves) == [f"{m}:{a}" for m in methods for a in report_mod.VIDEO_ATTRS]
    nans = 0
    for key, rows in curves.items():
        name, attr = key.split(":")
        vids = np.array([v for v, a in enumerate(test)
                         if getattr(ctx.video_table[a.video_id], attr) is not None])
        xs = np.array([float(getattr(ctx.video_table[test[v].video_id], attr))
                       for v in vids])
        bins = equal_population_bins(xs, 4)
        assert len(rows) == len(bins)
        for row, members in zip(rows, bins):
            assert row["n"] == len(members) and row["x_center"] == float(xs[members].mean())
            sub = labels[vids[members]]
            if not sub.any():
                assert np.isnan(row["map"])
                nans += 1
                continue
            want = per_class_eval(methods[name].scores[vids[members]], sub).mean_ap
            assert row["map"] == pytest.approx(want, rel=1e-12)
    assert nans == 2


def test_suggest_rules_trigger():
    report = {
        "evaluation": {"m": {"classification_map": 0.3,
                             "localization_map": 0.2,
                             "boundary_excluded_map": 0.25}},
        "correlations": {"m": [{"attribute": "object_complexity",
                                "rho": -0.5, "p": 0.01, "n": 20}]},
        "smoothing_sweep": {"m": {"best_fraction": 0.04}},
        "video_curves": {"m:person_size": [{"map": 0.1}, {"map": 0.5},
                                           {"map": 0.2}]},
        "oracles": {"combined": {"temporal+m": 0.5}},
    }
    out = suggest(report)
    rules = {r["rule"]: r["triggered"] for r in out}
    assert rules == {"boundary_sensitivity": True, "object_confusion": True,
                     "temporal_aggregation": True, "person_crop": True,
                     "sequence_modeling": True}
    # each rule reports exactly the thresholds it compares against
    assert {r["rule"]: r["thresholds"] for r in out} == {
        "boundary_sensitivity": {"boundary_gain": 0.01},
        "object_confusion": {"object_rho": -0.2, "object_p": 0.05},
        "temporal_aggregation": {}, "person_crop": {},
        "sequence_modeling": {"temporal_gain": 0.05}}


def test_suggest_rules_not_triggered():
    report = {
        "evaluation": {"m": {"classification_map": 0.3,
                             "localization_map": 0.2,
                             "boundary_excluded_map": 0.205}},
        "correlations": {"m": [{"attribute": "object_complexity",
                                "rho": 0.1, "p": 0.5, "n": 20}]},
        "smoothing_sweep": {"m": {"best_fraction": 0.0}},
        "video_curves": {"m:person_size": [{"map": 0.5}, {"map": 0.2},
                                           {"map": 0.1}]},
        "oracles": {"combined": {"temporal+m": 0.31}},
    }
    assert not any(r["triggered"] for r in suggest(report))


def test_cli_eval_and_report(tmp_path, capsys):
    paths = _write_corpus(tmp_path)
    rc = main(["eval", "--vocab", paths["vocab.csv"], "--test",
               paths["test.csv"], "--pred", f"cnn={paths['cnn']}"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "classification mAP" in out and "localization mAP" in out

    rc = main(["report", "--vocab", paths["vocab.csv"], "--test",
               paths["test.csv"], "--train", paths["train.csv"],
               "--pred", f"svm={paths['svm']}", "--bootstrap", "200",
               "--out", str(tmp_path / "cli_out")])
    assert rc == 0
    assert os.path.exists(tmp_path / "cli_out" / "report.json")


def test_cli_validate_and_context(tmp_path, capsys):
    paths = _write_corpus(tmp_path)
    rc = main(["validate", "--vocab", paths["vocab.csv"], "--test",
               paths["test.csv"], "--pred", f"svm={paths['svm']}",
               "--aux", paths["aux"]])
    assert rc == 0
    assert "auxiliary coverage" in capsys.readouterr().out
    rc = main(["context", "--vocab", paths["vocab.csv"], "--test",
               paths["test.csv"], "--pred", f"svm={paths['svm']}"])
    assert rc == 0
    assert "context benefit" in capsys.readouterr().out


def test_cli_rejects_bad_pred_argument(tmp_path):
    paths = _write_corpus(tmp_path)
    with pytest.raises(SystemExit):
        main(["eval", "--vocab", paths["vocab.csv"], "--test",
              paths["test.csv"], "--pred", "no-equals-sign"])


def test_cli_rejects_a_repeated_pred_name(tmp_path):
    # the later path used to replace the earlier one without a word
    paths = _write_corpus(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="'cnn'"):
        main(["report", "--vocab", paths["vocab.csv"], "--test", paths["test.csv"],
              "--pred", f"cnn={paths['cnn']}", "--pred", f"cnn={paths['svm']}",
              "--out", str(out)])
    assert not out.exists()


def test_frame_file_with_a_leading_comment_is_read_as_frames(tmp_path, capsys):
    paths = _write_corpus(tmp_path)
    commented = tmp_path / "commented.txt"
    commented.write_text("# exported by x\n\n" + pathlib.Path(paths["cnn"]).read_text())
    printed = []
    for pred in (paths["cnn"], commented):
        assert main(["eval", "--vocab", paths["vocab.csv"], "--test", paths["test.csv"],
                     "--pred", f"cnn={pred}"]) == 0
        printed.append(capsys.readouterr().out)
    assert "localization mAP" in printed[0] and printed[1] == printed[0]


def test_interleaved_frame_file_writes_the_grouped_bundle(tmp_path):
    paths = _write_corpus(tmp_path)
    header, *lines = pathlib.Path(paths["cnn"]).read_text().splitlines()
    mixed = tmp_path / "mixed.txt"   # 6 videos of 10 lines, one line of each in turn
    mixed.write_text("\n".join([header] + [lines[v * 10 + t] for t in range(10)
                                            for v in range(6)]) + "\n")
    bundles = []
    for out, pred in (("grouped", paths["cnn"]), ("mixed", str(mixed))):
        run_report(_config(tmp_path, paths, out, predictions={"cnn": pred, "svm": paths["svm"]}))
        bundles.append({f.name: f.read_bytes() for f in (tmp_path / out).iterdir()})
    assert bundles[0] == bundles[1]


def test_cli_subcommands_print_report_values(tmp_path, capsys):
    # every subcommand prints what the report computes, formatted alike
    paths = _write_corpus(tmp_path)
    common = ["--vocab", paths["vocab.csv"], "--test", paths["test.csv"],
              "--pred", f"cnn={paths['cnn']}", "--pred", f"svm={paths['svm']}",
              "--aux", paths["aux"]]
    train = ["--train", paths["train.csv"]]
    out = str(tmp_path / "cli_report")
    assert main(["report", *common, *train, "--bootstrap", "200", "--out", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "report.json")) as f:
        rep = json.load(f)

    def printed(cmd, *extra):
        assert main([cmd, *common, *extra]) == 0
        return capsys.readouterr().out.splitlines()

    ev = rep["evaluation"]
    assert printed("eval") == [
        f"cnn: classification mAP {ev['cnn']['classification_map']:.4f}",
        f"cnn: localization mAP {ev['cnn']['localization_map']:.4f}",
        f"svm: classification mAP {ev['svm']['classification_map']:.4f}"]
    sweep = rep["smoothing_sweep"]["cnn"]
    assert printed("smooth") == [
        f"cnn fraction={f}: loc {lm:.4f} cls {cm:.4f}"
        for f, lm, cm in zip(sweep["fractions"], sweep["loc_map"], sweep["cls_map"])
    ] + [f"cnn best fraction: {sweep['best_fraction']}",
         "svm: skipped (no frame predictions)"]
    errors = rep["error_breakdown"]["cnn"]
    assert printed("errors") == [
        "cnn: " + " ".join(f"{k}={v:.3f}" for k, v in errors.items()),
        "svm: skipped (no frame predictions)"]
    correlations = [f"{name} {r['attribute']}: rho={r['rho']:.3f} p={r['p']:.4f} n={r['n']}"
                    for name, rows in rep["correlations"].items() for r in rows]
    assert correlations and printed("correlate", *train) == correlations
    assert printed("context", *train) == [
        f"{name}: mean context benefit {cb['mean_count']:.3f}"
        for name, cb in rep["context_benefit"].items()]
