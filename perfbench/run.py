#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the mkc binary.

Run from the root of a checkout:

    python3 perfbench/run.py --workload uniform-text --seed 1 --seconds 30 --trace 0

It builds mkc and the benchmark's own tools with dune, writes the
workload's input for --seed into _perfbench/, and then

  --trace 0  runs mkc the way a user would: one untimed warm-up pass,
             then rounds of one timed pass and one one-edge run
             (--stop-after 1, the set-up time) until --seconds are used
             (at least five rounds).
             Every pass is checked against the generator's own greedy
             and against the method's properties.  Metrics are medians
             over the passes.
  --trace 1  runs perfbench/trace.ml, which calls each layer's public
             entry points on the same input and reports per-layer
             figures; its spans go to _perfbench/<workload>.spans.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs every workload both
ways, one after the other, and prints one such line per run.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from array import array

WORKLOADS = ("uniform-text", "planted-report", "churn-window")
WORK = "_perfbench"
MKC = "_build/default/bin/mkc.exe"
GEN = "_build/default/perfbench/gen.exe"
TRACE = "_build/default/perfbench/trace.exe"
POOL_DOMAINS = 2  # the pooled reference pass of planted-report
MIN_ROUNDS = 5
CHILD_TIMEOUT_S = 90
BAND_SLACK = 1.25  # the upper band of test_quality_stats: 1.25 * G / (1 - 1/e)


class Failure(Exception):
    """The benchmark could not run at all: no result is printed."""


def build():
    targets = ["./bin/mkc.exe", "./perfbench/gen.exe", "./perfbench/trace.exe"]
    try:
        r = subprocess.run(
            # No shared cache: the build reads and writes only the checkout.
            ["dune", "build", "--root", ".", "--cache=disabled", *targets],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"build did not run: {e}")
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stderr[-4000:])


def run_child(cmd):
    """Run one child to its end; returns (exit code, output, wall s, cpu s, peak RSS MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        p.stdout.close()
    wall = time.perf_counter() - t0
    return p.returncode, out.decode(errors="replace"), wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def generate(workload, seed):
    os.makedirs(WORK, exist_ok=True)
    code, out, _, _, _ = run_child([GEN, workload, str(seed), WORK])
    if code != 0:
        raise Failure(f"input generation failed:\n{out}")
    with open(os.path.join(WORK, workload + ".key.json")) as f:
        return json.load(f)


# ---------- mkc command lines and their answers ----------


def flags(key):
    return ["-k", str(key["k"]), "--alpha", repr(float(key["alpha"]))]


def commands(key):
    """(timed pass, reference pass, set-up pass) for the workload."""
    base = ["-s", key["input"], *flags(key)]
    if key["workload"] == "planted-report":
        timed = [MKC, "report", *base]
        # The reference is a pooled run, so every pass checks pool = sequential.
        ref = [MKC, "report", *base, "--domains", str(POOL_DOMAINS)]
        # report has no --stop-after; estimate builds the same engine.
        setup = [MKC, "estimate", *base, "--stop-after", "1"]
        return timed, ref, setup
    window = ["--window", str(key["window"]), "--epoch-edges", str(key["epoch_edges"])] if key["windowed"] else []
    timed = [MKC, "estimate", *base, *window]
    return timed, timed, timed + ["--stop-after", "1"]


ANSWER = re.compile(r"^(estimated .*coverage|windowed .*coverage estimate.*): (\S+)$")


def parse(out):
    """The answer mkc printed: estimate, space words and reported sets."""
    est = words = None
    sets = []
    for line in out.splitlines():
        m = ANSWER.match(line)
        if m:
            est = float(m.group(2))
        elif line.startswith("space: "):
            words = int(line.split()[1])
        elif re.match(r"^  S\d+$", line):
            sets.append(int(line.strip()[1:]))
    if est is None or words is None:
        return None
    return {"estimate": est, "words": words, "sets": sets}


def coverage(path, ids):
    """Exact coverage of the given sets, read straight from an MKCEDG file."""
    with open(path, "rb") as f:
        data = f.read()
    count = int.from_bytes(data[32:40], "little")
    sets, elts = array("q"), array("q")
    sets.frombytes(data[48 : 48 + 8 * count])
    elts.frombytes(data[48 + 8 * count : 48 + 16 * count])
    if sys.byteorder != "little":
        sets.byteswap()
        elts.byteswap()
    chosen = set(ids)
    return len({e for s, e in zip(sets, elts) if s in chosen})


def band_problems(key, ans, cover_cache):
    """What is wrong with one answer against the generator's greedy G."""
    g, alpha, k = key["greedy"], float(key["alpha"]), key["k"]
    lo, hi = g / (8 * alpha), BAND_SLACK * g / (1 - 1 / math.e)
    est = ans["estimate"]
    bad = []
    if key["workload"] == "planted-report":
        sets = ans["sets"]
        if not sets or len(sets) > k or len(set(sets)) != len(sets) or not all(0 <= s < key["m"] for s in sets):
            bad.append(f"reported sets {sets} are not at most {k} distinct ids in [0, {key['m']})")
        else:
            ids = tuple(sorted(sets))
            if ids not in cover_cache:
                cover_cache[ids] = coverage(key["input"], ids)
            if cover_cache[ids] < lo:
                bad.append(f"coverage {cover_cache[ids]} of the reported sets is below G/(8a) = {lo:.1f}")
        if est > hi:
            bad.append(f"estimate {est} above 1.25 G/(1-1/e) = {hi:.1f}")
    elif not lo <= est <= hi:
        bad.append(f"estimate {est} outside [G/(8a), 1.25 G/(1-1/e)] = [{lo:.1f}, {hi:.1f}]")
    return bad


# ---------- the two kinds of run ----------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}")


def end_to_end(key, seconds):
    tally = Tally()
    timed, ref_cmd, setup_cmd = commands(key)
    cover_cache = {}

    def checked(what, cmd, ref=None):
        code, out, wall, cpu, rss = run_child(cmd)
        ans = parse(out) if code == 0 else None
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {out.strip()[-300:]}")
        elif ans is None:
            problems.append("no answer in the output")
        else:
            problems += band_problems(key, ans, cover_cache)
            if ref is not None and (ans["estimate"], ans["words"], ans["sets"]) != (ref["estimate"], ref["words"], ref["sets"]):
                problems.append(f"answer {ans} differs from the reference pass {ref}")
        tally.record(what, problems)
        return ans, wall, cpu, rss

    # Untimed warm-up, which is also the reference every pass must repeat.
    ref, _, _, _ = checked("warm-up pass", ref_cmd)
    # A round is one timed pass and one set-up pass.  Set-up runs last
    # 0.1-0.3 s; spread over the whole run they see the same slow and
    # fast phases of the host as the passes do.
    walls, cpus, rsss, words, setups = [], [], [], [], []
    t0 = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - t0 + statistics.median(walls) + statistics.median(setups) <= seconds:
        ans, wall, cpu, rss = checked("timed pass", timed, ref)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        words.append(ans["words"] if ans else 0)
        code, out, wall, _, _ = run_child(setup_cmd)
        tally.record("set-up pass", [] if code == 0 and "stream: 1 pairs" in out else [f"exit code {code}: {out.strip()[-300:]}"])
        setups.append(wall)
    if key["windowed"] and ref is not None:
        # The window's answer is a fresh run over the live suffix.
        fresh = [MKC, "estimate", "-s", key["suffix"], *flags(key), "--force-m", str(key["m"]), "--force-n", str(key["n"])]
        code, out, _, _, _ = run_child(fresh)
        ans = parse(out) if code == 0 else None
        problems = [] if ans and ans["estimate"] == ref["estimate"] else [f"fresh run over the live suffix answered {ans}, the window {ref['estimate']}"]
        tally.record("window = fresh run over the live suffix", problems)
    print(f"rounds: {len(walls)}; {key['edges']} edges, {key['deletions']} deletions")
    print("pass wall s: " + " ".join(f"{w:.3f}" for w in walls))
    print("pass peak RSS MB: " + " ".join(f"{r:.1f}" for r in rsss))
    print("set-up s: " + " ".join(f"{w:.3f}" for w in setups))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "sketch_words": (statistics.median(words), "words"),
    }
    return tally.attempted, tally.failed, metrics


def traced(key, seconds):
    cmd = [
        TRACE,
        "--input", key["input"],
        "--k", str(key["k"]),
        "--alpha", repr(float(key["alpha"])),
        "--window", str(key["window"]),
        "--epoch-edges", str(key["epoch_edges"]),
        "--seconds", str(seconds),
        "--spans", os.path.join(WORK, key["workload"] + ".spans.json"),
    ]
    code, out, _, _, _ = run_child(cmd)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        raise Failure(f"traced run failed with exit code {code}:\n{out[-2000:]}")
    res = json.loads(lines[-1])
    metrics = {name: (m["value"], m["unit"]) for name, m in res["metrics"].items()}
    return res["attempted"], res["failed"], metrics


def bench(workload, seed, seconds, trace):
    key = generate(workload, seed)
    attempted, failed, metrics = (traced if trace else end_to_end)(key, seconds)
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'end to end'})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        if args.workload == "all":
            for w in WORKLOADS:
                for trace in (0, 1):
                    print(json.dumps(bench(w, args.seed, args.seconds, trace)))
        else:
            print(json.dumps(bench(args.workload, args.seed, args.seconds, args.trace)))
    except Failure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
