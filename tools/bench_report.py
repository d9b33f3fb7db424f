"""Time the north-star `actdiag report` run and record it in
BENCH_report.json at the root of the checkout.

    python tools/bench_report.py [--src DIR] [--label NAME]

The corpus is the acceptance suite's _write_scale_corpus (1863 test and
1863 training videos, 157 classes, 25 frames per video), written to a
temporary directory by a child process; the report takes its default
10 000 bootstrap resamples. Each run is `python -m actdiag.report report`
from the sources under --src (default: this checkout's src/) in a fresh
process with OPENBLAS_NUM_THREADS=1, at --workers 1 and --workers 8 in
turn, REPEATS times. The report has no thread pool, so both worker counts
run the same code. A run's wall time, CPU time (user + system) and
peak RSS (ru_maxrss) come from os.wait4. This process imports no numpy, so
the children's peak RSS holds nothing of it. After each run the sha256 of
the bundle it wrote (file names and bytes, in name order) is taken; the
script fails when two runs of one label wrote different bundles.

The runs are stored under --label beside os.cpu_count(); the other labels
already in the file are kept, so one file can compare two source trees,
such as a `git archive` of a parent commit ("before") and this checkout
("after"), measured in one session. Equal `bundle_sha256` values under two
labels show that the two trees wrote the same bytes.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_report.json")
WORKERS = (1, 8)
REPEATS = 3
WRITE_CORPUS = ("import pathlib, sys; sys.path[:0] = sys.argv[2:]; "
                "from test_acceptance import _write_scale_corpus; "
                "_write_scale_corpus(pathlib.Path(sys.argv[1]))")


def run(cmd, env):
    """Wall seconds, CPU seconds and peak RSS MB of cmd, which must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed")
    return {"wall_s": round(wall, 2), "cpu_s": round(usage.ru_utime + usage.ru_stime, 2),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def bundle_sha256(out):
    """sha256 of a bundle directory: each file's name, size and bytes, in
    name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            data = f.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--label", default="after")
    args = p.parse_args()
    src = os.path.abspath(args.src)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    runs = {f"workers_{w}": [] for w in WORKERS}
    hashes = set()
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-c", WRITE_CORPUS, tmp,
                        os.path.join(ROOT, "tests"), src], check=True)
        for _ in range(REPEATS):
            for w in WORKERS:
                cmd = [sys.executable, "-m", "actdiag.report", "report",
                       "--vocab", f"{tmp}/vocab.csv", "--test", f"{tmp}/test.csv",
                       "--train", f"{tmp}/train.csv", "--pred", f"cnn={tmp}/pred.txt",
                       "--out", f"{tmp}/out", "--workers", str(w)]
                runs[f"workers_{w}"].append(run(cmd, env))
                hashes.add(bundle_sha256(f"{tmp}/out"))
                print(args.label, w, runs[f"workers_{w}"][-1], flush=True)
    if len(hashes) != 1:
        raise SystemExit(f"{args.label}: the runs wrote {len(hashes)} different bundles")
    bench = {}
    if os.path.exists(OUT):
        with open(OUT) as f:
            bench = json.load(f)
    bench["cpu_count"] = os.cpu_count()
    bench["python"] = platform.python_version()
    bench.setdefault("runs", {})[args.label] = {
        "bundle_sha256": hashes.pop(),
        **{key: {"median": {m: statistics.median(r[m] for r in rs) for m in rs[0]}, "runs": rs}
           for key, rs in runs.items()}}
    with open(OUT, "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
