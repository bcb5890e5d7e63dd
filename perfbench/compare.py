"""Repeat benchmark runs and judge them against the bounds in BENCHMARK.json.

    # run-to-run spread of the current directory, one fresh process per seed
    python3 perfbench/compare.py spread --seeds 10 --out spread.json

    # parent vs change: alternating pairs on seeds 1..N, one row per
    # workload x metric
    python3 perfbench/compare.py pairs --parent ../parent --change . --pairs 10

Both run this directory's ``run.py`` with the measured checkout as working
directory, so parent and change are measured by identical benchmark code.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import stats  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One fresh benchmark process; returns its result plus its output hashes."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(checkout, "perfbench", "out",
                               f"result-{workload}-seed{seed}-trace0.json")
    with open(record_path) as f:
        record = json.load(f)
    result["outputs"] = record["outputs"]
    result["provenance"] = record["provenance"]
    return result


def values(results, metric) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results]


def cmd_spread(args) -> int:
    summary, steady = {}, True
    print(f"{'workload':<16}{'metric':<24}{'median':>14}{'spread':>9}"
          f"{'bound':>7}  within bound, bound/3")
    seeds = list(range(1, args.seeds + 1))
    for w in args.workloads:
        results = []
        for seed in seeds:
            results.append(run_once(os.getcwd(), w, seed, args.seconds))
            print(f"  {w} seed {seed}: correct={results[-1]['correct']}",
                  file=sys.stderr)
        summary[w] = {"seeds": seeds,
                      "correct": [r["correct"] for r in results],
                      "provenance": results[0]["provenance"], "metrics": {}}
        steady &= all(r["correct"] for r in results)
        for m in args.spec["end_to_end"]:
            vals = values(results, m["name"])
            q1, med, q3 = stats.quartiles(vals)
            sp = stats.spread(vals)
            steady &= sp <= m["bound"] / 3
            summary[w]["metrics"][m["name"]] = {
                "unit": m["unit"], "values": vals, "q1": q1, "median": med,
                "q3": q3, "spread": sp, "bound": m["bound"]}
            print(f"{w:<16}{m['name']:<24}{med:>14.6g}{sp:>9.4f}"
                  f"{m['bound']:>7}  {'yes' if sp <= m['bound'] else 'NO'}, "
                  f"{'yes' if sp <= m['bound'] / 3 else 'NO'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if steady else 1


def cmd_pairs(args) -> int:
    runs = []
    for w in args.workloads:
        for i in range(args.pairs):
            seed = 1 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                pair[side] = run_once(checkout, w, seed, args.seconds)
            runs.append({"workload": w, "seed": seed, "first": order[0], **pair})
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return report(runs, args.spec)


def report(runs, spec) -> int:
    bad = 0
    print(f"{'workload':<16}{'metric':<24}{'parent':>12}{'change':>12}"
          f"{'rel':>8}{'wins':>7}  verdict")
    for w in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == w]
        same = [r["seed"] for r in rows
                if r["parent"]["outputs"] == r["change"]["outputs"]]
        wrong = [r["seed"] for r in rows
                 if not (r["parent"]["correct"] and r["change"]["correct"])]
        print(f"{w:<16}{'outputs identical':<24}{len(same)}/{len(rows)} seeds"
              + (f"; failed checks on seeds {wrong}" if wrong else ""))
        bad += len(rows) - len(same) + len(wrong)
        for m in spec["end_to_end"]:
            v = stats.verdict(values([r["parent"] for r in rows], m["name"]),
                              values([r["change"] for r in rows], m["name"]),
                              m["better"], m["bound"])
            bad += v["verdict"] in ("regression", "unresolved")
            print(f"{w:<16}{m['name']:<24}{v['parent_median']:>12.6g}"
                  f"{v['change_median']:>12.6g}{v['rel_change']:>+8.3f}"
                  f"{v['wins']:>4}/{v['pairs']:<2}  {v['verdict']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread", help="one checkout, several seeds")
    sp.add_argument("--seeds", type=int, default=10, help="runs seeds 1..N")
    sp.set_defaults(func=cmd_spread)
    pp = sub.add_parser("pairs", help="parent vs change, alternating order")
    pp.add_argument("--parent", required=True)
    pp.add_argument("--change", required=True)
    pp.add_argument("--pairs", type=int, default=10, help="runs seeds 1..N")
    pp.set_defaults(func=cmd_pairs)
    for q in (sp, pp):
        q.add_argument("--workloads", nargs="+", default=names, choices=names)
        q.add_argument("--seconds", type=int, default=spec["run_seconds"])
        q.add_argument("--out")
    args = p.parse_args(argv)
    args.spec = spec
    if args.cmd == "pairs" and args.pairs < 10:
        p.error("a verdict needs at least 10 pairs")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
