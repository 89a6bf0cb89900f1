"""Smoke tests of tools/compare_cli_outputs.py, which checks the benchmark
CLI's outputs of this checkout against another source tree."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_cli_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_cli_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_this_checkout_is_identical_to_itself(capsys):
    tool = load_tool()
    tool.CONFIGS = ["complexity"]
    assert tool.main([str(tool.HERE_SRC)]) == 0
    # each tree's source line count, then the verdict and each tree's
    # process wall time
    out = re.fullmatch(r"src lines: (\d+) here, (\d+) in OTHER_SRC\n"
                       r"complexity: identical \(exit 0; wall (\d+\.\d\d) s here, "
                       r"(\d+\.\d\d) s in OTHER_SRC\)\n", capsys.readouterr().out)
    assert out is not None
    here_lines, other_lines, *seconds = out.groups()
    assert int(here_lines) == int(other_lines) > 0
    assert all(float(wall) > 0.0 for wall in seconds)


def test_a_directory_without_the_package_exits_2(tmp_path, capsys):
    assert load_tool().main([str(tmp_path)]) == 2
    assert "holds no qsvt_refine package" in capsys.readouterr().err


def test_omega_drift_is_reported_relative_and_absolute():
    tool = load_tool()
    header = "run_id,backend,iter,omega,mu\n"

    def run(omega_0, omega_1):
        rows = f"r,spectral_oracle,0,{omega_0!r},0.5\nr,spectral_oracle,1,{omega_1!r},0.5\n"
        return 0, (header + rows).encode(), {"config": {}}

    # a first-iteration omega near 6e-9 moves a lot relative, little absolute
    lines, breaking = tool.compare(run(6.0e-9, 1e-12), run(6.0e-9 * (1 + 3.6e-7), 1e-12))
    assert lines == ["omega at iter 0: 1 rows drift, worst relative 3.600e-07, absolute 2.160e-15"]
    assert not breaking
    lines, breaking = tool.compare(run(6.0e-9, 1e-12), run(6.0e-9, 2e-12))
    assert lines == ["omega at later iters: 1 rows drift, worst relative 5.000e-01, "
                     "absolute 1.000e-12"]
    assert not breaking
    lines, breaking = tool.compare(run(6.0e-9, 1e-12), (1,) + run(6.0e-9, 1e-12)[1:])
    assert lines == ["exit code: 0 here, 1 in OTHER_SRC"] and breaking
