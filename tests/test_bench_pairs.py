"""tools/bench_pairs.py against two stub trees whose ``perfbench/run.py``
prints a result from a table of values per seed."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
BENCHMARK = {"end_to_end": [
    {"name": "solve_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}
STUB_RUN = '''
import argparse, json, sys
from pathlib import Path
here = Path(__file__).resolve().parent
table = json.loads((here.parent / "stub.json").read_text())
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag, required=True)
args = parser.parse_args()
with open(here.parents[1] / "log.txt", "a") as log:
    log.write(f"{here.parent.name} {args.workload} {args.seed} {args.seconds} {args.trace}\\n")
if args.seed in table.get("crash", []):
    print("perfbench: no solve completed", file=sys.stderr)
    sys.exit(1)
(here / "out").mkdir(exist_ok=True)
(here / "out" / f"{args.workload}-seed{args.seed}-trace0.json").write_text("{}")
failed = table.get("failed", {}).get(args.seed, 0)
metrics = {name: {"value": values[args.seed], "unit": "u"}
           for name, values in table["metrics"].items()}
print(f"{args.workload} solve_ms_p50 = {metrics['solve_ms_p50']['value']} ms")
print(json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed,
                  "metrics": metrics}))
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def make_tree(root, name, p50, per_s, **extra):
    """A tree whose run.py reports ``p50[i]`` and ``per_s[i]`` for seed 101 + i."""
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB_RUN)
    (tree / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    table = {"metrics": {"solve_ms_p50": {str(101 + i): v for i, v in enumerate(p50)},
                         "solves_per_s": {str(101 + i): v for i, v in enumerate(per_s)}},
             **extra}
    (tree / "stub.json").write_text(json.dumps(table))
    return tree


PARENT_P50 = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_clear_gain_holds_and_the_sides_alternate(tmp_path, capsys):
    parent = make_tree(tmp_path, "parent", PARENT_P50, [100.0] * 10)
    change = make_tree(tmp_path, "change", [v - 0.1 for v in PARENT_P50], [100.0] * 9 + [90.0])
    out = tmp_path / "pairs.json"
    code = load_tool().main([str(parent), str(change), "--workload", "w", "--seeds", "101-110",
                             "--seconds", "3", "--claim", "solve_ms_p50", "--out", str(out)])
    assert code == 0
    log = (tmp_path / "log.txt").read_text().splitlines()
    expected = []
    for i, seed in enumerate(range(101, 111)):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        expected += [f"{side} w {seed} 3.0 0" for side in sides]
    assert log == expected
    text = capsys.readouterr().out
    assert "change wins 10, ties 0, losses 0 of 10" in text
    assert "claim holds: 10 wins, 9 needed" in text
    assert "change wins 0, ties 9, losses 1 of 10" in text  # solves_per_s, higher is better
    assert "failed solves: parent 0, change 0" in text
    record = json.loads(out.read_text())
    p50 = record["metrics"]["solve_ms_p50"]
    assert p50["values"]["parent"] == PARENT_P50 and p50["claim_holds"] is True
    assert p50["parent"]["median"] == pytest.approx(1.0)
    assert p50["parent_iqr"] == pytest.approx(1.0175 - 0.9825)
    assert record["metrics"]["solves_per_s"]["claim_holds"] is False
    assert p50["regression"] == record["metrics"]["solves_per_s"]["regression"] == "held"
    assert record["first"] == ["parent", "change"] * 5
    for tree in (parent, change):  # run.py's own output only
        assert sorted(p.name for p in (tree / "perfbench").iterdir()) == ["out", "run.py"]


@pytest.mark.parametrize("change_p50, verdict", [
    # 8 wins of 10, by a wide margin: too few wins
    ([v - 0.1 for v in PARENT_P50[:8]] + [1.5, 1.5], "claim fails: 8 wins, 9 needed"),
    # 10 wins, but the median moves by 0.01, under the parent's IQR of 0.035
    ([v - 0.01 for v in PARENT_P50], "claim fails: 10 wins, 9 needed; median better by 0.01,"),
    # ties are not wins
    (PARENT_P50, "claim fails: 0 wins, 9 needed"),
])
def test_a_claim_needs_nine_wins_and_a_gain_beyond_the_parent_iqr(tmp_path, capsys, change_p50,
                                                                  verdict):
    parent = make_tree(tmp_path, "parent", PARENT_P50, [100.0] * 10)
    change = make_tree(tmp_path, "change", change_p50, [100.0] * 10)
    code = load_tool().main([str(parent), str(change), "--workload", "w", "--seeds", "101-110",
                             "--claim", "solve_ms_p50"])
    assert code == 1
    assert verdict in capsys.readouterr().out


def test_a_failed_solve_sets_exit_one_without_a_claim(tmp_path, capsys):
    parent = make_tree(tmp_path, "parent", [1.0, 1.0], [1.0, 1.0])
    change = make_tree(tmp_path, "change", [0.5, 0.5], [2.0, 2.0], failed={"102": 3})
    assert load_tool().main([str(parent), str(change), "--workload", "w",
                             "--seeds", "101,102"]) == 1
    assert "failed solves: parent 0, change 3" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (["--seeds", "101-110", "--claim", "peak_rss_mb"], "is not an end-to-end metric"),
    (["--seeds", "10x"], "is not an integer or a range"),
    (["--seeds", "105-101"], "is empty"),
    (["--seeds", "101,102,103"], "no perfbench result"),  # seed 103 crashes
])
def test_bad_input_or_a_run_without_a_result_exits_two(tmp_path, capsys, args, message):
    parent = make_tree(tmp_path, "parent", [1.0] * 10, [1.0] * 10)
    change = make_tree(tmp_path, "change", [1.0] * 10, [1.0] * 10, crash=["103"])
    assert load_tool().main([str(parent), str(change), "--workload", "w", *args]) == 2
    assert message in capsys.readouterr().err


def test_seed_lists_and_ranges():
    assert load_tool().parse_seeds("1301-1303,1310, 1302") == [1301, 1302, 1303, 1310]


def test_a_tree_without_run_py_exits_two(tmp_path, capsys):
    change = make_tree(tmp_path, "change", [1.0], [1.0])
    (tmp_path / "empty").mkdir()
    assert load_tool().main([str(tmp_path / "empty"), str(change), "--workload", "w",
                             "--seeds", "101"]) == 2
    assert "has no perfbench/run.py" in capsys.readouterr().err


@pytest.mark.parametrize("p50_factor, per_s, verdicts, code", [
    # 20% slower and flat throughput, both under the 25% bound
    (1.2, 100.0, ("held", "held"), 0),
    # 30% slower: beyond the bound even though throughput holds
    (1.3, 100.0, ("regressed", "held"), 1),
    # throughput, higher is better, down 30%
    (1.0, 70.0, ("held", "regressed"), 1),
    # 10% faster and 10% more throughput
    (0.9, 110.0, ("held", "held"), 0),
])
def test_no_regression_compares_the_medians_against_the_bound(tmp_path, capsys, p50_factor,
                                                              per_s, verdicts, code):
    parent = make_tree(tmp_path, "parent", PARENT_P50, [100.0] * 10)
    change = make_tree(tmp_path, "change", [v * p50_factor for v in PARENT_P50], [per_s] * 10)
    out = tmp_path / "pairs.json"
    assert load_tool().main([str(parent), str(change), "--workload", "w", "--seeds", "101-110",
                             "--out", str(out)]) == code
    text = capsys.readouterr().out
    for verdict in verdicts:
        assert f"no regression {verdict}: median" in text
    metrics = json.loads(out.read_text())["metrics"]
    assert (metrics["solve_ms_p50"]["regression"], metrics["solves_per_s"]["regression"]) == verdicts
    assert metrics["solve_ms_p50"]["bound"] == 0.25
    assert metrics["solve_ms_p50"]["worse"] == pytest.approx(p50_factor - 1.0)


WIDE_P50 = [0.6, 1.4] * 5  # IQR / median 0.8, beyond the 0.25 bound


@pytest.mark.parametrize("change_p50, verdict", [
    # overlapping runs under a parent too wide to tell: even an equal median is unresolved
    (WIDE_P50[::-1], "unresolved"),
    ([v * 1.5 for v in WIDE_P50], "unresolved"),  # worse, but not told apart from the spread
    ([0.5] * 10, "held"),  # every change run beats every parent run
])
def test_a_parent_spread_beyond_the_bound_is_unresolved(tmp_path, capsys, change_p50, verdict):
    parent = make_tree(tmp_path, "parent", WIDE_P50, [100.0] * 10)
    change = make_tree(tmp_path, "change", change_p50, [100.0] * 10)
    assert load_tool().main([str(parent), str(change), "--workload", "w",
                             "--seeds", "101-110"]) == 0
    text = capsys.readouterr().out
    assert f"no regression {verdict}: median" in text
    assert "parent IQR / median 80.00%, bound 25%" in text


def test_a_missing_bound_is_bad_input(tmp_path, capsys):
    parent = make_tree(tmp_path, "parent", [1.0], [1.0])
    change = make_tree(tmp_path, "change", [1.0], [1.0])
    benchmark = json.loads((change / "BENCHMARK.json").read_text())
    del benchmark["end_to_end"][1]["bound"]
    (change / "BENCHMARK.json").write_text(json.dumps(benchmark))
    assert load_tool().main([str(parent), str(change), "--workload", "w",
                             "--seeds", "101"]) == 2
    assert "declares no end-to-end metrics" in capsys.readouterr().err
