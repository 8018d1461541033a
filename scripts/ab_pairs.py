#!/usr/bin/env python3
"""Interleaved A/B pairs of the repository benchmark between two commits.

Run from anywhere inside the repository:

    python3 scripts/ab_pairs.py PARENT_REF WORKLOAD N [--change REF]
        [--seconds S]

Each side (PARENT_REF and the change, HEAD by default) is extracted with
`git archive <ref> | tar -x` into its own directory under a temporary
work directory and builds perfbench into its own CARGO_TARGET_DIR (each
perfbench run builds before it starts its timed executable, so only a
side's first run compiles). N pairs of
`python3 perfbench/run.py --workload WORKLOAD --seed 1 --seconds S
--trace 0` run, alternating which side goes first. For every end-to-end
metric named in BENCHMARK.json the script prints each side's median and
q1-q3, how many pairs the change won (by the metric's "better"
direction), and every run's "correct"/"failed" state.

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


def run_once(tree, target, args):
    """One perfbench run; returns its JSON result (the last stdout line)."""
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", args.workload,
         "--seed", "1", "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, env=side_env(target), capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return {"correct": False, "failed": None, "metrics": {}, "exit": out.returncode}
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
    args = ap.parse_args()

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
        sides[name] = (sha, tree, target)

    runs = {"parent": [], "change": []}
    for i in range(args.n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            _, tree, target = sides[name]
            res = run_once(tree, target, args)
            runs[name].append(res)
            print(f"pair {i + 1}/{args.n} {name}: correct={res.get('correct')} "
                  f"failed={res.get('failed')}", file=sys.stderr)

    print(f"workload {args.workload}, {args.n} interleaved pairs, --seconds {args.seconds} "
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
