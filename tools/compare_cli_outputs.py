"""Compare the benchmark CLI's outputs of this checkout with another source tree.

Usage::

    python tools/compare_cli_outputs.py OTHER_SRC

``OTHER_SRC`` is a ``src`` directory that holds a ``qsvt_refine`` package,
for example that of a checkout of the parent commit. Each config in
``CONFIGS`` runs once against this checkout's ``src/`` and once against
``OTHER_SRC``, each run a fresh process with ``OPENBLAS_NUM_THREADS=1``.
A config whose fields reach no CLI flag gets them from a JSON config file
that the tool writes to its temporary directory, the same file for both.

It first prints ``src lines: N here, M in OTHER_SRC``, the lines of every
``*.py`` under each tree's ``qsvt_refine``, so a change's size shows in the
same run that checks its bytes. Per config it then prints ``identical``
(same exit code, same CSV bytes, same ``meta.json`` once ``config.out`` is
removed) or what differs, next to the
wall time of each tree's process (interpreter start and imports included,
so a faster import shows in the same run that checks the bytes). What
differs is listed below the verdict: the exit
codes, the rows present on one side only, each non-float column that
differs, the worst relative and absolute drift of ``omega`` and ``mu``,
and ``meta.json``. The drift is reported for the rows at ``iter`` 0 apart
from the later ones: a first-iteration ``omega`` is a direct measure of
one inner solve, while later ones sit near ``eps_target``, where rounding
alone moves them by far more. Both measures are printed because a small
``omega`` (say 6e-9) moves by a large relative amount for a rounding-level
absolute one.

Exit status: 1 when an exit code, the row set, a non-float column or
``meta.json`` differs for any config; 0 otherwise, drift of ``omega`` and
``mu`` included; 2 on a bad argument. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE_SRC = Path(__file__).resolve().parents[1] / "src"

# each config is the --experiment value followed by extra CLI flags, and
# the fields of its JSON config file ({} for none)
CONFIGS = [
    ("convergence", {}),
    ("poisson", {}),
    ("complexity", {}),
    ("large_kappa", {}),
    ("convergence --backend noisy_oracle", {}),
    ("convergence --readout shot", {}),
    ("convergence --backend qsvt_full --seeds 0,1", {}),
    ("convergence --backend qsvt_full --readout shot --seeds 0,1", {}),
    ("complexity --backend qsvt_full", {}),
    # kappa 10, eps_l 1e-3: degree 287, whose series the bound check
    # rescales (by 0.827), unlike the qsvt_full keys above (eps_l 0.04,
    # degree 209, certified peak 0.897, under the 0.9 the check scales to)
    ("convergence --backend qsvt_full", {"eps_l": [1e-3]}),
    # eps_l 1e-3: the only config where complexity checks its crossover
    ("complexity", {"eps_l": [1e-3]}),
]
KEY_COLUMNS = ("run_id", "backend", "iter")  # one row per key on either side
DRIFT_COLUMNS = ("omega", "mu")  # float columns compared by relative drift


def source_lines(src: Path) -> int:
    """Lines of every ``*.py`` under ``src/qsvt_refine``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "qsvt_refine").rglob("*.py"))


def run_cli(src: Path, flags: list[str], workdir: Path) -> tuple[int, bytes, dict]:
    """Exit code, CSV bytes and ``meta.json`` (without ``config.out``) of one
    fresh CLI process importing ``qsvt_refine`` from ``src``."""
    out = workdir / "out.csv"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "qsvt_refine.bench_cli", "--experiment", *flags,
         "--out", str(out)],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    csv_bytes = out.read_bytes() if out.exists() else b""
    meta_path = workdir / "out.csv.meta.json"
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    meta.get("config", {}).pop("out", None)
    return proc.returncode, csv_bytes, meta


def keyed_rows(csv_bytes: bytes) -> dict[tuple, dict]:
    reader = csv.DictReader(csv_bytes.decode().splitlines())
    return {tuple(row[k] for k in KEY_COLUMNS): row for row in reader}


def relative_drift(a: str, b: str) -> float:
    x, y = float(a), float(b)
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def compare(here: tuple, other: tuple) -> tuple[list[str], bool]:
    """Lines describing what differs, and whether any of it is more than
    float drift of ``omega`` and ``mu``."""
    (code_h, csv_h, meta_h), (code_o, csv_o, meta_o) = here, other
    lines, breaking = [], False
    if code_h != code_o:
        lines.append(f"exit code: {code_h} here, {code_o} in OTHER_SRC")
        breaking = True
    if meta_h != meta_o:
        keys = sorted(k for k in meta_h.keys() | meta_o.keys() if meta_h.get(k) != meta_o.get(k))
        lines.append(f"meta.json differs in {keys}")
        breaking = True
    if csv_h == csv_o:
        return lines, breaking
    rows_h, rows_o = keyed_rows(csv_h), keyed_rows(csv_o)
    only_h, only_o = rows_h.keys() - rows_o.keys(), rows_o.keys() - rows_h.keys()
    if only_h or only_o:
        lines.append(f"row set: {len(only_h)} rows only here, {len(only_o)} only in OTHER_SRC")
        breaking = True
    shared = sorted(rows_h.keys() & rows_o.keys())
    for column in rows_h[shared[0]] if shared else ():
        differing = [k for k in shared if rows_h[k][column] != rows_o[k][column]]
        if not differing:
            continue
        if column in DRIFT_COLUMNS:
            first = [k for k in differing if rows_h[k]["iter"] == "0"]
            later = [k for k in differing if rows_h[k]["iter"] != "0"]
            for where, keys in (("at iter 0", first), ("at later iters", later)):
                if keys:
                    pairs = [(rows_h[k][column], rows_o[k][column]) for k in keys]
                    worst = max(relative_drift(a, b) for a, b in pairs)
                    worst_abs = max(abs(float(a) - float(b)) for a, b in pairs)
                    lines.append(f"{column} {where}: {len(keys)} rows drift, "
                                 f"worst relative {worst:.3e}, absolute {worst_abs:.3e}")
        else:
            lines.append(f"column {column}: {len(differing)} rows differ")
            breaking = True
    if not lines:
        lines.append("CSV bytes differ (row order or header)")
        breaking = True
    return lines, breaking


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, metavar="OTHER_SRC",
                        help="a src directory holding the qsvt_refine package")
    args = parser.parse_args(argv)
    if not (args.other_src / "qsvt_refine" / "__init__.py").is_file():
        print(f"{args.other_src} holds no qsvt_refine package", file=sys.stderr)
        return 2
    print(f"src lines: {source_lines(HERE_SRC)} here, {source_lines(args.other_src)} in OTHER_SRC")
    failed = False
    for config, fields in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            here_dir, other_dir = Path(tmp, "here"), Path(tmp, "other")
            here_dir.mkdir()
            other_dir.mkdir()
            flags = config.split()
            if fields:
                config_file = Path(tmp, "config.json")
                config_file.write_text(json.dumps(fields))
                flags += ["--config", str(config_file)]
                config = f"{config} --config {json.dumps(fields)}"
            start = time.perf_counter()
            here = run_cli(HERE_SRC, flags, here_dir)
            middle = time.perf_counter()
            other = run_cli(args.other_src.resolve(), flags, other_dir)
            end = time.perf_counter()
        lines, breaking = compare(here, other)
        failed |= breaking
        print(f"{config}: {'identical' if not lines else 'DIFFERS' if breaking else 'drift only'}"
              f" (exit {here[0]}; wall {middle - start:.2f} s here,"
              f" {end - middle:.2f} s in OTHER_SRC)")
        for line in lines:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
