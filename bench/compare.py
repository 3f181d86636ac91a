"""Repeat benchmark runs, summarise their spread, or compare two checkouts.

One checkout: run each workload ``--runs`` times, one seed per run, and
print each end-to-end metric's median, quartiles and spread (quartile
distance over median) against the bound in BENCHMARK.json:

    python3 bench/compare.py --runs 10 .

Two checkouts, parent first: run ``--runs`` pairs per workload with the
same seed on both sides, alternating which side runs first, and give a
verdict per metric by the rules in bench/README.md:

    python3 bench/compare.py --runs 10 ../parent .

``--record LABEL`` appends the one-checkout summary to bench/history.jsonl.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
HISTORY = BENCH / "history.jsonl"


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run in ``checkout``: its result line and environment."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.strip().startswith("environment = "):
            result["environment"] = json.loads(line.split("=", 1)[1])
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def spread_report(checkout: Path, spec: dict, workloads, runs, first_seed, seconds):
    entry = {}
    for workload in workloads:
        results = [run(checkout, workload, first_seed + i, seconds) for i in range(runs)]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
              f"{failed} failed operations")
        entry[workload] = {"failed": failed}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = summary([r["metrics"][name]["value"] for r in results])
            entry[workload][name] = s
            if name == "setup_s":
                verdict = "not bounded"
            elif s["spread"] <= metric["bound"] / 3:
                verdict = "steady"
            elif s["spread"] <= metric["bound"]:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO NOISY"
            print(f"  {name:14s} median {s['median']:.6g} {metric['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                  f"bound {metric['bound']}  {verdict}")
    environment = dict(results[0].get("environment", {}))
    environment.pop("seeds", None)
    return entry, environment


def pair_report(parent: Path, change: Path, spec: dict, workloads, runs, first_seed, seconds):
    for workload in workloads:
        sides = {"parent": [], "change": []}
        for i in range(runs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = parent if side == "parent" else change
                sides[side].append(run(checkout, workload, first_seed + i, seconds))
        failed = {side: sum(r["failed"] for r in results) for side, results in sides.items()}
        print(f"{workload}: {runs} pairs, failed operations parent {failed['parent']}, "
              f"change {failed['change']}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            p = [r["metrics"][name]["value"] for r in sides["parent"]]
            c = [r["metrics"][name]["value"] for r in sides["change"]]
            ps, cs = summary(p), summary(c)
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            gain = sign * (cs["median"] - ps["median"])
            every_run_better = all(sign * (b - a) > 0 for a in p for b in c)
            if (wins >= 0.9 * runs and gain > ps["q3"] - ps["q1"]
                    and failed["change"] <= failed["parent"]):
                verdict = "better"
            elif -gain > bound * ps["median"]:
                verdict = "WORSE beyond bound"
            elif max(ps["spread"], cs["spread"]) > bound and not every_run_better:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "no regression"
            print(f"  {name:14s} parent {ps['median']:.6g} [{ps['q1']:.6g}, {ps['q3']:.6g}]  "
                  f"change {cs['median']:.6g} [{cs['q1']:.6g}, {cs['q3']:.6g}] "
                  f"{metric['unit']}  change won {wins}/{runs}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path,
                        help="one checkout, or the parent and the change")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL",
                        help="append the one-checkout summary to bench/history.jsonl")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2 or args.runs < 2:
        parser.error("give one or two checkouts and at least 2 runs")
    if args.record and len(args.checkouts) != 1:
        parser.error("--record summarises one checkout")
    spec = json.loads((args.checkouts[-1] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if len(args.checkouts) == 2:
        pair_report(*args.checkouts, spec, workloads, args.runs, args.first_seed, seconds)
        return 0
    entry, environment = spread_report(
        args.checkouts[0], spec, workloads, args.runs, args.first_seed, seconds)
    if args.record:
        record = {
            "label": args.record,
            "date": datetime.date.today().isoformat(),
            "environment": environment,
            "run_seconds": seconds,
            "runs": args.runs,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "workloads": entry,
        }
        with open(HISTORY, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
