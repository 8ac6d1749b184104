"""Steadiness mode: run one workload N times and report, for every
end-to-end metric, the median, the quartiles and their spread against
the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload point --runs 10
    python3 perfbench/steady.py --workload point --runs 10 --save a.json
    python3 perfbench/steady.py --workload point --runs 10 --other ../parent --save b.json
    python3 perfbench/steady.py --compare a.json b.json

Run i uses seed SEED_BASE + i. With --other DIR a second result set is
measured in the checkout DIR, alternating with this one run by run.
With two sets (--other, or --compare of two saved sets) it also
prints, per metric, how far the second median moved against the first
in the metric's worse direction, and whether the failed-operation
shares agree. Quartiles are Python's statistics.quantiles(n=4), the
reading the bounds are set against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    spec = load_spec(root)
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(spec, runs):
    rows = []
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("inf")
        rows.append((m, q1, q2, q3, spread))
    return rows


def failed_share(runs):
    return [r["failed"] / r["attempted"] for r in runs]


def report(spec, label, runs):
    print(f"{label}: {len(runs)} runs, failed shares {sorted(set(failed_share(runs)))}")
    print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for m, q1, q2, q3, spread in summarize(spec, runs):
        bound = m["bound"]
        verdict = "steady" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        if m["name"] == "setup_s" and spread > bound:
            verdict += " (setup_s: spread not gated)"
        print(f"  {m['name']:<18} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} {bound:>6.2f}  {verdict}")


def compare(spec, a, b):
    print("second set against the first (positive = worse):")
    ok = True
    for (m, _, ma, _, _), (_, _, mb, _, _) in zip(summarize(spec, a), summarize(spec, b)):
        worse = (mb - ma) / abs(ma) if m["better"] == "lower" else (ma - mb) / abs(ma)
        good = worse <= m["bound"]
        ok &= good
        print(f"  {m['name']:<18} {worse:>+8.3f} bound {m['bound']:.2f}  {'agree' if good else 'DISAGREE'}")
    shares_a, shares_b = set(failed_share(a)), set(failed_share(b))
    same = len(shares_a | shares_b) == 1
    ok &= same
    print(f"  failed share: {'identical' if same else 'DIFFERENT'} ({sorted(shares_a)} vs {sorted(shares_b)})")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--other", help="a second checkout to measure, alternating with this one")
    ap.add_argument("--save", help="write this run's result set(s) to a JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two saved result sets")
    args = ap.parse_args()
    spec = load_spec(ROOT)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f)["runs"])
        report(spec, args.compare[0], sets[0])
        report(spec, args.compare[1], sets[1])
        sys.exit(0 if compare(spec, sets[0], sets[1]) else 1)
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    seconds = spec["run_seconds"]
    a, b = [], []
    for i in range(args.runs):
        seed = args.seed_base + i
        a.append(run_once(ROOT, args.workload, seed, seconds))
        print(f"run {i + 1}/{args.runs} seed {seed}: " +
              ", ".join(f"{k}={v['value']:.6g}" for k, v in a[-1]["metrics"].items()), flush=True)
        if args.other:
            b.append(run_once(os.path.abspath(args.other), args.workload, seed, seconds))
    report(spec, "this checkout", a)
    ok = True
    if args.other:
        report(spec, args.other, b)
        ok = compare(spec, a, b)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": a, "other_runs": b}, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
