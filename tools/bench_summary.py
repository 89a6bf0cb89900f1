"""Summarize perfbench results over seeds into a committed ``BENCH_<label>.json``.

Usage::

    python tools/bench_summary.py LABEL --seeds 961,962 [--out-dir DIR] [--dest DIR]

It reads ``DIR/<workload>-seed<N>-trace0.json``, the files that
``perfbench/run.py --trace 0`` writes (``DIR`` defaults to this checkout's
``perfbench/out``), for each listed seed and every workload that has a file
for any of them. It writes ``BENCH_<LABEL>.json`` in ``--dest`` (default:
the repository root) with, per workload, the seeds, whether every run was
correct and, per end-to-end metric, its unit, its value per seed and their
median; and once, the provenance the runs share: git commit, ``src_sha256``,
numpy and the BLAS thread count.

Exit codes: 0 written; 2 on bad input (no run found, a workload missing one
of the seeds, a malformed file, or runs whose provenance differs). Standard
library only, and nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_FILE = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace0\.json")


class SummaryError(ValueError):
    """The runs cannot be summarized."""


def shared_provenance(prov: dict) -> dict:
    """The fields of one run's provenance that every summarized run must share."""
    return {"git_commit": prov["git_commit"], "src_sha256": prov["src_sha256"],
            "numpy": prov["numpy"], "blas_threads": prov["blas"]["threads"]}


def summarize(label: str, out_dir: Path, seeds: list[int]) -> dict:
    found: dict[str, dict[int, Path]] = {}
    for path in sorted(out_dir.glob("*-trace0.json")):
        match = RUN_FILE.fullmatch(path.name)
        if match and int(match["seed"]) in seeds:
            found.setdefault(match["workload"], {})[int(match["seed"])] = path
    if not found:
        raise SummaryError(f"no run of seeds {seeds} in {out_dir}")
    provenance, workloads = None, {}
    for workload, paths in sorted(found.items()):
        missing = [s for s in seeds if s not in paths]
        if missing:
            raise SummaryError(f"{workload} has no run of seed(s) {missing} in {out_dir}")
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        correct = True
        for seed in seeds:
            try:
                run = json.loads(paths[seed].read_text())
                prov = shared_provenance(run["provenance"])
                correct = correct and run["result"]["correct"] is True
                for name, metric in run["result"]["metrics"].items():
                    values.setdefault(name, []).append(float(metric["value"]))
                    units[name] = metric["unit"]
            except (ValueError, KeyError, TypeError) as exc:
                raise SummaryError(f"{paths[seed]} is not a perfbench result: {exc!r}") from exc
            if provenance is None:
                provenance = prov
            elif prov != provenance:
                raise SummaryError(f"{paths[seed].name} has provenance {prov}, "
                                   f"the runs before it {provenance}")
        if any(len(v) != len(seeds) for v in values.values()):
            raise SummaryError(f"{workload}: the runs report different metrics")
        workloads[workload] = {
            "seeds": seeds,
            "correct": correct,
            "metrics": {name: {"unit": units[name], "values": v, "median": statistics.median(v)}
                        for name, v in values.items()},
        }
    return {"label": label, "provenance": provenance, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated perfbench seeds, for example 961,962")
    parser.add_argument("--out-dir", type=Path, default=ROOT / "perfbench" / "out")
    parser.add_argument("--dest", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    try:
        seeds = sorted({int(s) for s in args.seeds.split(",")})
        if not re.fullmatch(r"[\w.-]+", args.label):
            raise SummaryError(f"label {args.label!r} is not a plain file-name part")
        summary = summarize(args.label, args.out_dir, seeds)
    except ValueError as exc:  # SummaryError, or a seed that is not an integer
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    target = args.dest / f"BENCH_{args.label}.json"
    target.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {target}: {', '.join(summary['workloads'])} over seeds {seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
