#!/usr/bin/env python3
"""A/B benchmark gate: this checkout against a base revision, on one host.

Usage, from anywhere inside a checkout:

    python3 scripts/bench_ab.py <base-rev>

Extracts <base-rev> with `git archive` into target/bench-ab/base and copies
this checkout's perfbench/ and BENCHMARK.json over it, so both sides run the
same benchmark code. Builds each side once, then runs alternating pairs of
`perfbench/run.py` for every workload in BENCHMARK.json. For each end-to-end
metric the gate takes each pair's worse-by ratio (change against base,
oriented by the metric's `better`) and fails when the median ratio exceeds
1 + bound. Beside each median ratio it prints the lowest and highest pair
ratio, so a claimed gain's margin over the pair spread shows, and how many
pairs the change won (was strictly better in), e.g. `4/5`; neither enters
the verdict. It also fails when a change-side run exits non-zero, prints no
result document, reports `correct: false` or failed units, or lacks a
positive value of an end-to-end metric. Base-side failures are printed but
do not fail the gate. Exits 0 on PASS, 1 on FAIL.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Five pairs: the median of five ignores two outlier pairs, and 3 workloads
# x 10 runs x 30 s stays near a quarter of an hour. Pair i (from 1) runs
# seed i on both sides, so each ratio compares the same data variant, and
# odd pairs run the base first, so slow drifts of host load hit both sides.
PAIRS = 5


def parse_run(exit_status, stdout):
    """A run as {"exit", "doc"}: doc is the last stdout line if that is a
    result document, else None."""
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        doc = None
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        doc = None
    return {"exit": exit_status, "doc": doc}


def run_problem(run, end_to_end):
    """Why a run's result cannot be trusted, or None."""
    doc = run["doc"]
    if run["exit"] != 0:
        return f"exit status {run['exit']}"
    if doc is None:
        return "no result document"
    if doc.get("correct") is not True:
        return "correct: false"
    if doc.get("failed", 0) > 0:
        return f"{doc['failed']} failed units"
    for m in end_to_end:
        v = value(run, m["name"])
        if not isinstance(v, (int, float)) or not v > 0:
            return f"{m['name']} is {v}, not a positive value"
    return None


def value(run, metric):
    entry = run["doc"]["metrics"].get(metric) if run["doc"] else None
    return entry.get("value") if isinstance(entry, dict) else None


def median(xs):
    return statistics.median(xs) if xs else None


def decide(end_to_end, results):
    """The verdict over `results`, {workload: [(base_run, change_run)]}.

    Returns (rows, failures): one row per (workload, metric) as (workload,
    metric, base median, change median, median pair ratio, bound), None
    where no value is known, and the reasons the gate fails (empty on PASS).
    A pair ratio is above 1 when the change is worse than the base.
    """
    rows, failures = [], []
    for workload, pairs in results.items():
        for i, (_, change) in enumerate(pairs, start=1):
            problem = run_problem(change, end_to_end)
            if problem:
                failures.append(f"{workload}: change run of pair {i}: {problem}")
        for m in end_to_end:
            name, bound = m["name"], m["bound"]
            values = [(value(b, name), value(c, name)) for b, c in pairs]
            ratio = median(pair_ratios(m, pairs))
            bases = median([b for b, _ in values if b is not None])
            changes = median([c for _, c in values if c is not None])
            rows.append((workload, name, bases, changes, ratio, bound))
            if ratio is not None and ratio > 1 + bound:
                failures.append(
                    f"{workload}: {name} worse by median pair ratio {ratio:.3f} > {1 + bound:.3f}"
                )
    return rows, failures


def pair_ratios(metric, pairs):
    """Each pair's worse-by ratio of `metric`, change against base, above 1
    when the change is worse; pairs missing a value on either side (or
    holding a zero) are left out."""
    values = [(value(b, metric["name"]), value(c, metric["name"])) for b, c in pairs]
    higher = metric["better"] == "higher"
    return [b / c if higher else c / b for b, c in values if b and c]


def ratio_range(metric, pairs):
    """(lowest, highest) pair ratio of `metric`, or (None, None) when no
    pair has both values. Printed beside the median; the verdict does not
    use it."""
    ratios = pair_ratios(metric, pairs)
    return (min(ratios), max(ratios)) if ratios else (None, None)


def pairs_won(metric, pairs):
    """(won, compared): of the pairs where both sides report `metric`, how
    many the change won, i.e. was strictly better than the base. Reported
    beside the gate's verdict; the verdict does not use it."""
    values = [(value(b, metric["name"]), value(c, metric["name"])) for b, c in pairs]
    values = [(b, c) for b, c in values if b is not None and c is not None]
    better = (lambda b, c: c > b) if metric["better"] == "higher" else (lambda b, c: c < b)
    return sum(better(b, c) for b, c in values), len(values)


def extract_base(rev, base):
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    git = ["git", "-C", ROOT, "archive", "--format=tar", rev]
    archive = subprocess.run(git, stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
    shutil.rmtree(os.path.join(base, "perfbench"), ignore_errors=True)
    skip = shutil.ignore_patterns("target")
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(base, "perfbench"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)


def side_env(root):
    return dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))


def build(root):
    # Untimed. A failed build is reported by the runs, which build again.
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    subprocess.run(cmd, cwd=root, env=side_env(root))


def run(root, bench, workload, seed):
    args = ["--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(
        bench["command"] + args, cwd=root, env=side_env(root), capture_output=True, text=True
    )
    result = parse_run(proc.returncode, proc.stdout)
    if run_problem(result, bench["end_to_end"]):
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return result


def main(argv):
    if len(argv) != 2:
        print("usage: python3 scripts/bench_ab.py <base-rev>", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = {"base": os.path.join(ROOT, "target", "bench-ab", "base"), "change": ROOT}
    extract_base(argv[1], sides["base"])
    for root in sides.values():
        build(root)
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results[workload] = []
        for pair in range(1, PAIRS + 1):
            runs = {}
            for side in ["base", "change"] if pair % 2 == 1 else ["change", "base"]:
                r = runs[side] = run(sides[side], bench, workload, pair)
                cells = " ".join(f"{m['name']}={value(r, m['name'])}" for m in bench["end_to_end"])
                doc = r["doc"] or {}
                print(
                    f"run {workload} pair {pair} seed {pair} {side}: {cells} "
                    f"attempted={doc.get('attempted')} failed={doc.get('failed')} "
                    f"({run_problem(r, bench['end_to_end']) or 'ok'})",
                    flush=True,
                )
            results[workload].append((runs["base"], runs["change"]))
    rows, failures = decide(bench["end_to_end"], results)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    print(
        f"\n{'workload':<16} {'metric':<12} {'base':>10} {'change':>10} {'ratio':>7} "
        f"{'lowest':>7} {'highest':>7} {'won':>5} bound"
    )
    for workload, name, *nums, bound in rows:
        lo, hi = ratio_range(metrics[name], results[workload])
        b, c, ratio, lo, hi = ("n/a" if x is None else f"{x:.4g}" for x in [*nums, lo, hi])
        won = "{}/{}".format(*pairs_won(metrics[name], results[workload]))
        print(f"{workload:<16} {name:<12} {b:>10} {c:>10} {ratio:>7} {lo:>7} {hi:>7} {won:>5} {bound}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("bench-ab: FAIL" if failures else "bench-ab: PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
