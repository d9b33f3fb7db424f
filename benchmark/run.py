"""Benchmark of the actdiag CLI on seeded synthetic corpora.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is run from its `src` with
nothing installed. Inputs are generated from the seed under `.bench_work`
before any timing. With --trace 0 the workload's command runs in a fresh
process, again and again, for about S seconds, and the medians of its
wall time, CPU time and peak memory are reported, along with one cold
interpreter start plus `import actdiag.report`. With --trace 1 the command
runs once plainly and once under tracer.py, and the per-layer figures are
reported. Either way the outputs are checked against check.py. Metric
names and units are those of BENCHMARK.json. The last line of standard
output is one JSON object; the exit code is non-zero when an operation
fails or a check does not hold.
"""

import argparse
import functools
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
KILL_AFTER_S = 150

sys.path.insert(0, HERE)
import check  # noqa: E402
import gen  # noqa: E402

# Test videos per corpus and resamples per report. The frame corpora are a
# scaled north-star run (157 classes, 25 frames, train split of the same
# size); dense_eval keeps the north-star's 1863 videos. See README.md.
FRAME_VIDEOS = 360
FRAME_BOOTSTRAP = 5000
POSE_VIDEOS = 400
POSE_BOOTSTRAP = 1000
DENSE_VIDEOS = 1863


def _report_args(c, out, seed, workers, bootstrap, preds):
    args = ["report", "--vocab", c.files["vocab"], "--test", c.files["test"],
            "--train", c.files["train"], "--out", out, "--seed", str(seed),
            "--workers", str(workers), "--bootstrap", str(bootstrap)]
    for name in preds:
        args += ["--pred", f"{name}={c.files[name]}"]
    return args


def frame_report(root, seed, workers):
    c = gen.frame_corpus(root, seed, FRAME_VIDEOS)

    def args(out):
        return _report_args(c, out, seed, workers, FRAME_BOOTSTRAP, ["cnn"])
    return c, args, {"frame"}


def pose_video(root, seed):
    c = gen.pose_corpus(root, seed, POSE_VIDEOS)

    def args(out):
        return _report_args(c, out, seed, 1, POSE_BOOTSTRAP, ["rgb", "flow"]) + [
            "--aux", c.files["aux"], "--reannotations", c.files["reann"]]
    return c, args, {"agreement", "pose"}


def dense_eval(root, seed):
    c = gen.dense_corpus(root, seed, DENSE_VIDEOS)
    return c, lambda out: ["eval", "--vocab", c.files["vocab"], "--test", c.files["test"],
                           "--pred", f"dense={c.files['dense']}"], None


CLI = [sys.executable, "-m", "actdiag.report"]
WORKLOADS = {"frame_serial": functools.partial(frame_report, workers=1),
             "frame_parallel": functools.partial(frame_report, workers=2),
             "pose_video": pose_video, "dense_eval": dense_eval}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"      # the only threads at work are the program's own
    return env


def timed(cmd, stdout_path):
    """Run cmd to completion; (exit code, wall s, CPU s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(KILL_AFTER_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(stdout_path + ".err", "rb") as f:
            sys.stderr.write(f.read()[-2000:].decode(errors="replace"))
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def digest(path):
    """Hash of a bundle directory or of one file."""
    h = hashlib.sha256()
    names = sorted(os.listdir(path)) if os.path.isdir(path) else [""]
    for name in names:
        h.update(name.encode())
        with open(os.path.join(path, name) if name else path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def bundle_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def outputs_ok(corpus, expect, out, stdout_path):
    ref = check.reference_values(corpus)
    if expect is None:
        with open(stdout_path) as f:
            return check.check_eval_stdout(f.read(), corpus, ref)
    return check.check_report(out, corpus, ref, expect)


def prepare(args, work):
    """Generate the inputs and byte-compile the program; nothing is timed."""
    corpus, argv, expect = WORKLOADS[args.workload](os.path.join(work, "in"), args.seed)
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True,
                   env=child_env(), stdout=subprocess.DEVNULL)
    return corpus, argv, expect


def measure(args, work):
    corpus, argv, expect = prepare(args, work)
    rc, setup, _, _ = timed([sys.executable, "-c", "import actdiag.report"],
                            os.path.join(work, "setup.out"))
    if rc != 0:
        raise SystemExit("cannot import actdiag.report")
    walls, cpus, rss, digests = [], [], [], []
    failed = 0
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start
                        + statistics.median(walls) <= args.seconds):
        i = len(walls)
        out, log = os.path.join(work, f"out{i}"), os.path.join(work, f"stdout{i}")
        rc, wall, cpu, peak = timed(CLI + argv(out), log)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        if rc != 0:
            failed += 1
            continue
        digests.append(digest(out if expect is not None else log))
        if i > 0 and expect is not None:
            shutil.rmtree(out)
    problems = [] if failed else outputs_ok(corpus, expect, os.path.join(work, "out0"),
                                            os.path.join(work, "stdout0"))
    if len(set(digests)) > 1:
        problems.append("outputs differ between repeated runs of the same command")
    metrics = {"setup_s": setup, "run_s": statistics.median(walls),
               "cpu_s": statistics.median(cpus), "peak_rss_mb": statistics.median(rss)}
    return len(walls), failed, problems, metrics


def trace(args, work):
    corpus, argv, expect = prepare(args, work)
    out, log = os.path.join(work, "out0"), os.path.join(work, "stdout0")
    rc0, plain, _, _ = timed(CLI + argv(os.path.join(work, "plain")),
                             os.path.join(work, "plain.out"))
    layers_path = os.path.join(work, "layers.json")
    rc1, traced, _, _ = timed([sys.executable, os.path.join(HERE, "tracer.py"),
                               layers_path, "--"] + argv(out), log)
    failed = (rc0 != 0) + (rc1 != 0)
    if rc1 != 0:
        return 2, failed, [], {}
    with open(layers_path) as f:
        metrics = json.load(f)
    metrics["report.bundle_bytes"] = bundle_bytes(out) if expect is not None else 0
    metrics["trace.run_s"] = traced
    metrics["trace.untraced_run_s"] = plain
    metrics["trace.overhead_s"] = traced - plain
    return 2, failed, outputs_ok(corpus, expect, out, log), metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # a terminated run still stops its child and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "actdiag", "report.py")):
        print(f"no actdiag sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        attempted, failed, problems, metrics = (trace if args.trace else measure)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics and set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                        "BENCHMARK.json")
    for name in problems:
        print(f"CHECK FAILED: {name}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name)}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in metrics.items()}}))
    return 0 if not problems and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
