"""Run alternating parent/change perfbench pairs, judge them and write the record.

Usage::

    python tools/bench_pairs.py PARENT CHANGE --workload NAME[,NAME...] --seeds 1301-1310
        [--seconds 18] [--claim METRIC] [--out FILE]

``PARENT`` and ``CHANGE`` are checkouts, each with its own
``perfbench/run.py``. The workloads, each one that ``CHANGE/BENCHMARK.json``
declares, run one after the other. Within a workload every seed is one
pair: both trees run ``perfbench/run.py --workload NAME --seed SEED
--seconds S --trace 0`` in turn, each in its own directory, the parent
first on the workload's first pair and the side that runs first
alternating from pair to pair, so a drift of the host's speed does not
favour one side. ``--seeds`` takes a comma-separated list, ranges ``A-B``
included.

For every workload and every end-to-end metric that ``BENCHMARK.json``
declares it prints each pair's two values, the change's wins, ties and
losses, each side's median and quartiles (``statistics.quantiles``,
inclusive method) and two verdicts:

* the claim: it holds when the change is better on at least nine in ten
  pairs (rounded up) and its median is better than the parent's by more
  than the parent's interquartile range;
* no regression, against the metric's relative ``bound``: ``held`` when
  the change's median is worse than the parent's by at most ``bound``
  times the parent's median, ``regressed`` when by more, and
  ``unresolved`` when the parent's IQR over its median exceeds ``bound``
  (too wide to tell) and not every change run beats every parent run
  (when every one does, the verdict is ``held``).

It also prints each side's failed solves. A line on stderr marks each
finished pair. ``--out`` writes the record as JSON to ``FILE``: each
side's provenance (git commit, ``src_sha256``, numpy and the BLAS thread
count, read from the line ``run.py`` prints above its result line, and the
same in every run of that side) and, per workload, the side that ran first
in each pair, every metric's verdicts and, per side, the seeds, whether
every run was correct, the failed solves and, per end-to-end metric, its
unit, its value per seed and their median.

Exit codes: 0 when every run is correct, no metric of any workload has
``regressed`` and, with ``--claim``, that metric's claim holds; 1 when a
run reports a failed solve, a metric has regressed or the claim fails; 2
on bad input (among it ``--claim`` with more than one workload), a run
that gives no result, or a side whose runs differ in provenance. Standard
library only; nothing is written under ``perfbench/`` beyond what
``run.py`` writes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # share of pairs, rounded up, the change must win


class PairsError(ValueError):
    """The pairs cannot be run or judged."""


def parse_seeds(text: str) -> list[int]:
    """``"1301-1303,1310"`` -> ``[1301, 1302, 1303, 1310]``, in order, no repeats."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.strip().partition("-")
        try:
            span = range(int(first), int(last or first) + 1)
        except ValueError:
            raise PairsError(f"seed {part!r} is not an integer or a range A-B") from None
        if not span:
            raise PairsError(f"seed range {part!r} is empty")
        seeds += [s for s in span if s not in seeds]
    return seeds


def declared(tree: Path) -> tuple[list[str], list[dict]]:
    """The workload names and the ``end_to_end`` entries (name, unit, better,
    bound) of ``tree/BENCHMARK.json``."""
    try:
        bench = json.loads((tree / "BENCHMARK.json").read_text())
        return ([w["name"] for w in bench["workloads"]],
                [{"name": m["name"], "unit": m["unit"], "better": m["better"],
                  "bound": float(m["bound"])} for m in bench["end_to_end"]])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise PairsError(f"{tree / 'BENCHMARK.json'} declares no end-to-end metrics and "
                         f"workloads: {exc!r}") from exc


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result and the shared provenance of one ``perfbench/run.py --trace 0``
    run in ``tree``, read from the last two lines it prints."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit {proc.returncode}")
        prov, result = json.loads(lines[-2])["provenance"], json.loads(lines[-1])
        return {"correct": result["correct"] is True, "failed": int(result["failed"]),
                "metrics": {k: float(m["value"]) for k, m in result["metrics"].items()},
                "provenance": {**{k: prov[k] for k in ("git_commit", "src_sha256", "numpy")},
                               "blas_threads": prov["blas"]["threads"]}}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise PairsError(f"{tree} seed {seed}: no perfbench result ({exc!r}); stderr: "
                         f"{proc.stderr.strip()[-500:]}") from exc


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Wins, ties, quartiles, the claim verdict and the no-regression verdict
    of one metric over the pairs."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    need = math.ceil(WIN_SHARE * len(parent))
    gain, iqr = sign * (pmed - cmed), pq3 - pq1
    spread, worse = iqr / abs(pmed), -gain / abs(pmed)  # every metric's median is positive
    if spread > bound:
        apart = all(sign * (p - c) > 0 for p in parent for c in change)
        regression = "held" if apart else "unresolved"
    else:
        regression = "regressed" if worse > bound else "held"
    return {"wins": wins, "ties": ties, "losses": len(parent) - wins - ties, "need": need,
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "gain": gain, "parent_iqr": iqr, "claim_holds": wins >= need and gain > iqr,
            "bound": bound, "worse": worse, "parent_spread": spread,
            "regression": regression}


def report(name: str, unit: str, better: str, seeds: list[int], firsts: list[str],
           parent: list[float], change: list[float], verdict: dict) -> list[str]:
    lines = [f"{name} ({unit}, {better} is better)",
             f"  {'seed':>6}  {'first':<6}  {'parent':>12}  {'change':>12}"]
    for seed, first, p, c in zip(seeds, firsts, parent, change):
        lines.append(f"  {seed:>6}  {first:<6}  {p:>12.6g}  {c:>12.6g}")
    lines.append(f"  change wins {verdict['wins']}, ties {verdict['ties']}, "
                 f"losses {verdict['losses']} of {len(seeds)}")
    for side in ("parent", "change"):
        q = verdict[side]
        lines.append(f"  {side} median {q['median']:.6g} (q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, "
                     f"IQR {q['q3'] - q['q1']:.6g})")
    lines.append(f"  claim {'holds' if verdict['claim_holds'] else 'fails'}: "
                 f"{verdict['wins']} wins, {verdict['need']} needed; median better by "
                 f"{verdict['gain']:.6g}, parent IQR {verdict['parent_iqr']:.6g}")
    lines.append(f"  no regression {verdict['regression']}: median "
                 f"{'worse' if verdict['worse'] > 0 else 'better'} by {abs(verdict['worse']):.2%}"
                 f", parent IQR / median {verdict['parent_spread']:.2%}, "
                 f"bound {verdict['bound']:.0%}")
    return lines


def run_pairs(args: argparse.Namespace, workload: str, seeds: list[int],
              provenance: dict[str, dict]) -> tuple[list[str], dict[str, list[dict]]]:
    """The side that ran first in each pair and every run per side of one
    workload. ``provenance`` holds each side's shared provenance, set by
    its first run; a run that differs from it is bad input."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    firsts = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        firsts.append(order[0])
        for side in order:
            run = run_once(getattr(args, side), workload, seed, args.seconds)
            if provenance.setdefault(side, run["provenance"]) != run["provenance"]:
                raise PairsError(f"{getattr(args, side)} {workload} seed {seed} has provenance "
                                 f"{run['provenance']}, the runs before it {provenance[side]}")
            runs[side].append(run)
        print(f"{workload} pair {i + 1}/{len(seeds)} (seed {seed}) done", file=sys.stderr)
    return firsts, runs


def side_record(seeds: list[int], runs: list[dict], metrics: list[dict]) -> dict:
    """One side's seeds, correctness, failed solves and, per end-to-end
    metric, its unit, its value per seed and their median."""
    record = {"seeds": seeds, "correct": all(r["correct"] for r in runs),
              "failed": sum(r["failed"] for r in runs), "metrics": {}}
    for m in metrics:
        try:
            values = [r["metrics"][m["name"]] for r in runs]
        except KeyError:
            raise PairsError(f"a run reports no {m['name']}") from None
        record["metrics"][m["name"]] = {"unit": m["unit"], "values": values,
                                        "median": quartiles(values)[1]}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the changed checkout")
    parser.add_argument("--workload", required=True, help="one workload or a comma-separated list")
    parser.add_argument("--seeds", required=True, help="for example 1301-1310 or 971,972")
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--claim", help="the end-to-end metric whose claim sets the exit code")
    parser.add_argument("--out", type=Path, help="write the record as JSON here")
    args = parser.parse_args(argv)
    record = {"seconds": args.seconds, "provenance": {}, "workloads": {}}
    try:
        seeds = parse_seeds(args.seeds)
        for tree in (args.parent, args.change):
            if not (tree / "perfbench" / "run.py").is_file():
                raise PairsError(f"{tree} has no perfbench/run.py")
        names, metrics = declared(args.change)
        workloads = list(dict.fromkeys(w.strip() for w in args.workload.split(",")))
        unknown = [w for w in workloads if w not in names]
        if unknown:
            raise PairsError(f"{args.change / 'BENCHMARK.json'} declares no workload {unknown}")
        if args.claim is not None and args.claim not in {m["name"] for m in metrics}:
            raise PairsError(f"--claim {args.claim!r} is not an end-to-end metric")
        if args.claim is not None and len(workloads) != 1:
            raise PairsError(f"--claim judges one workload, not {len(workloads)}")
        for workload in workloads:
            firsts, runs = run_pairs(args, workload, seeds, record["provenance"])
            sides = {side: side_record(seeds, runs[side], metrics) for side in runs}
            lines = [f"{workload}: {len(seeds)} pairs of --seconds {args.seconds:g}, "
                     f"parent {args.parent}, change {args.change}"]
            verdicts = {}
            for m in metrics:
                p, c = (sides[k]["metrics"][m["name"]]["values"] for k in ("parent", "change"))
                verdicts[m["name"]] = verdict = judge(p, c, m["better"], m["bound"])
                lines += report(m["name"], m["unit"], m["better"], seeds, firsts, p, c, verdict)
            lines.append(f"failed solves: parent {sides['parent']['failed']}, "
                         f"change {sides['change']['failed']}")
            print("\n".join(lines))
            record["workloads"][workload] = {"first": firsts, **sides, "verdicts": verdicts}
    except PairsError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    judged = record["workloads"].values()
    correct = all(w[side]["correct"] for w in judged for side in ("parent", "change"))
    regressed = any(v["regression"] == "regressed" for w in judged for v in w["verdicts"].values())
    holds = args.claim is None or verdicts[args.claim]["claim_holds"]  # of the one workload
    return 0 if correct and holds and not regressed else 1


if __name__ == "__main__":
    sys.exit(main())
