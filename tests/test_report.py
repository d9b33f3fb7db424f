import json
import os
import subprocess
import sys

import numpy as np
import pytest

from actdiag import report as report_mod
from actdiag.corpus import load_vocabulary
from actdiag.metrics import weighted_classification_map
from actdiag.report import (BUNDLE_NAME, RunConfig, bootstrap_map_ci, main,
                            run_report, suggest)
from actdiag.stats import bootstrap_ci

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
        def stat(idx):
            w = np.bincount(np.asarray(idx, int), minlength=n)
            return weighted_classification_map(sc, lab, w)

        lo_ref, hi_ref, _ = bootstrap_ci(np.arange(n), stat, b=200, seed=5)
        lo, hi = bootstrap_map_ci(sc, lab, b=200, seed=5)
        if sc is tied:
            # a resample sums its positives left to right, one list alone
            # pairwise (metrics._ranked_ap); here lo differs by 1 ulp
            assert lo == pytest.approx(lo_ref, rel=1e-14)
            assert hi == pytest.approx(hi_ref, rel=1e-14)
        else:
            assert lo == lo_ref and hi == hi_ref


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

    def stat(idx):
        return weighted_classification_map(scores, labels,
                                           np.bincount(np.asarray(idx, int), minlength=n))

    with pytest.raises(ValueError, match="no positive labels"):
        bootstrap_ci(np.arange(n), stat, b=200, seed=1)
    with pytest.raises(ValueError, match="no positive labels"):
        bootstrap_map_ci(scores, labels, b=200, seed=1)


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
