"""Time the north-star `actdiag report` run and record it in
BENCH_report.json at the root of the checkout.

    python tools/bench_report.py [--tree LABEL=SRC ...]

The corpus is the acceptance suite's _write_scale_corpus (1863 test and
1863 training videos, 157 classes, 25 frames per video), written once to a
temporary directory by a child process; the report takes its default
10 000 bootstrap resamples. Each run is `python -m actdiag.report report`
from the sources of one --tree (default: after=<this checkout>/src) in a
fresh process with OPENBLAS_NUM_THREADS=1, at --workers 1 and --workers 8
in turn. The report has no thread pool, so both worker counts run the same
code. A run's wall time, CPU time (user + system) and peak RSS (ru_maxrss)
come from os.wait4. This process imports no numpy, so the children's peak
RSS holds nothing of it. After each run the sha256 of the bundle it wrote
(file names and bytes, in name order) is taken; the script fails when two
runs of one tree wrote different bundles.

The trees run alternately, REPEATS rounds, and each round starts with the
next tree in turn, so host drift falls on every tree alike. Pass a
`git archive` of a parent commit as `--tree before=DIR/src` beside the
default to compare it with this checkout. Each tree's runs are stored
under its label beside os.cpu_count(); other labels already in the file
are kept. Equal `bundle_sha256` values under two labels show that the two
trees wrote the same bytes.
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


def tree(arg):
    label, sep, src = arg.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {arg!r}")
    return label, os.path.abspath(src)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tree", action="append", type=tree, metavar="LABEL=SRC")
    trees = p.parse_args().tree or [("after", os.path.join(ROOT, "src"))]
    if len(dict(trees)) != len(trees):
        p.error("each --tree needs its own label")
    runs = {label: {f"workers_{w}": [] for w in WORKERS} for label, _ in trees}
    hashes = {label: set() for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-c", WRITE_CORPUS, tmp,
                        os.path.join(ROOT, "tests"), trees[0][1]], check=True)
        for i in range(REPEATS):
            for label, src in trees[i % len(trees):] + trees[:i % len(trees)]:
                env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                           PYTHONHASHSEED="0")
                for w in WORKERS:
                    cmd = [sys.executable, "-m", "actdiag.report", "report",
                           "--vocab", f"{tmp}/vocab.csv", "--test", f"{tmp}/test.csv",
                           "--train", f"{tmp}/train.csv", "--pred", f"cnn={tmp}/pred.txt",
                           "--out", f"{tmp}/out", "--workers", str(w)]
                    runs[label][f"workers_{w}"].append(run(cmd, env))
                    hashes[label].add(bundle_sha256(f"{tmp}/out"))
                    print(label, w, runs[label][f"workers_{w}"][-1], flush=True)
    for label, h in hashes.items():
        if len(h) != 1:
            raise SystemExit(f"{label}: the runs wrote {len(h)} different bundles")
    bench = {}
    if os.path.exists(OUT):
        with open(OUT) as f:
            bench = json.load(f)
    bench["cpu_count"] = os.cpu_count()
    bench["python"] = platform.python_version()
    for label, by_workers in runs.items():
        bench.setdefault("runs", {})[label] = {
            "bundle_sha256": hashes[label].pop(),
            **{key: {"median": {m: statistics.median(r[m] for r in rs) for m in rs[0]},
                     "runs": rs}
               for key, rs in by_workers.items()}}
    with open(OUT, "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
