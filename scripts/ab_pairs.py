#!/usr/bin/env python3
"""Interleaved A/B pairs of the repository benchmark between two commits.

Run from anywhere inside the repository:

    python3 scripts/ab_pairs.py PARENT_REF WORKLOAD N [--change REF]
        [--seconds S] [--pinned]

Each side (PARENT_REF and the change, HEAD by default) is extracted with
`git archive <ref> | tar -x` into its own directory under a temporary
work directory and builds perfbench into its own CARGO_TARGET_DIR before
the first pair. N pairs of
`python3 perfbench/run.py --workload WORKLOAD --seed 1 --seconds S
--trace 0` run, alternating which side goes first. For every end-to-end
metric named in BENCHMARK.json the script prints each side's median and
q1-q3, how many pairs the change won (by the metric's "better"
direction), and every run's "correct"/"failed" state.

With `--pinned`, the two sides of a pair run at the same time instead,
each pinned (`os.sched_setaffinity`) to its own CPU, and the CPUs swap
every pair. Both sides then see the same host load at the same moment,
which makes the ratio far steadier on a noisy host — but a workload's
worker threads share their side's one CPU, so this compares CPU
efficiency (work per CPU-second), not throughput. Sequential pairs stay
the throughput gate. `--pinned` needs two CPUs.

It uses python3, git and cargo only, works offline, and never edits
perfbench/ or BENCHMARK.json. Running a ref against itself measures the
noise floor.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(*args, cwd):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(repo, ref, dest):
    """Writes the committed tree of `ref` into `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", ref], cwd=repo, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"ab_pairs: git archive {ref} failed")


def side_env(target):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target
    return env


def build(tree, target):
    """Builds a side's perfbench, so that no timed run compiles."""
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml")],
        env=side_env(target), check=True,
    )


def start(tree, target, args, cpu=None):
    """Starts one perfbench run, pinned to `cpu` when one is given."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.Popen(
        ["python3", "perfbench/run.py", "--workload", args.workload,
         "--seed", "1", "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, env=side_env(target), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, preexec_fn=pin,
    )


def result(proc):
    """A finished run's JSON result (the last stdout line)."""
    stdout, stderr = proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        return {"correct": False, "failed": None, "metrics": {}, "exit": proc.returncode}
    return json.loads(lines[-1])


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent ref")
    ap.add_argument("workload", help="a perfbench workload (see BENCHMARK.json)")
    ap.add_argument("n", type=int, help="number of interleaved pairs")
    ap.add_argument("--change", default="HEAD", help="the change ref (default HEAD)")
    ap.add_argument("--seconds", type=float, default=25, help="perfbench --seconds per run")
    ap.add_argument("--pinned", action="store_true",
                    help="run each pair's sides at once, one CPU each (CPU efficiency)")
    args = ap.parse_args()
    cpus = sorted(os.sched_getaffinity(0))
    if args.pinned and len(cpus) < 2:
        sys.exit("ab_pairs: --pinned needs two CPUs")

    repo = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    work = tempfile.mkdtemp(prefix="ab_pairs-")
    sides = {}
    for name, ref in (("parent", args.parent), ("change", args.change)):
        sha = git("rev-parse", "--short", ref, cwd=repo)
        tree = os.path.join(work, f"{name}-{sha}")
        target = os.path.join(work, f"target-{name}")
        extract(repo, ref, tree)
        build(tree, target)
        sides[name] = (sha, tree, target)

    runs = {"parent": [], "change": []}
    for i in range(args.n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        if args.pinned:
            procs = {name: start(*sides[name][1:], args, cpu) for name, cpu in zip(order, cpus)}
            done = {name: result(p) for name, p in procs.items()}
        else:
            done = {name: result(start(*sides[name][1:], args)) for name in order}
        for name in order:
            res = done[name]
            runs[name].append(res)
            print(f"pair {i + 1}/{args.n} {name}: correct={res.get('correct')} "
                  f"failed={res.get('failed')}", file=sys.stderr)

    mode = "pinned simultaneous" if args.pinned else "interleaved"
    print(f"workload {args.workload}, {args.n} {mode} pairs, --seconds {args.seconds} "
          f"--seed 1; parent {sides['parent'][0]}, change {sides['change'][0]}")
    for m in metrics:
        name, better = m["name"], m["better"]
        vals = {s: [r["metrics"].get(name, {}).get("value") for r in runs[s]] for s in runs}
        pairs = [(p, c) for p, c in zip(vals["parent"], vals["change"])
                 if p is not None and c is not None]
        if not pairs:
            print(f"{name}: no values")
            continue
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
        cols = []
        for s in ("parent", "change"):
            q1, med, q3 = quartiles([v for v in vals[s] if v is not None])
            cols.append(f"{s} median {med:.6g} (q1-q3 {q1:.6g}-{q3:.6g})")
        ratio = statistics.median(c for _, c in pairs) / statistics.median(p for p, _ in pairs)
        print(f"{name} [{m['unit']}, {better} is better]: {'; '.join(cols)}; "
              f"change/parent {ratio:.3f}; change wins {wins}/{len(pairs)}")
    for s in ("parent", "change"):
        states = " ".join(f"{r.get('correct')}/{r.get('failed')}" for r in runs[s])
        print(f"{s} runs correct/failed: {states}")
    shutil.rmtree(work, ignore_errors=True)
    ok = all(r.get("correct") and r.get("failed") == 0 for s in runs for r in runs[s])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
