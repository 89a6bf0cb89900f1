"""Smoke tests of tools/compare_cli_outputs.py, which checks the benchmark
CLI's outputs of this checkout against another source tree."""

import importlib.util
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
    assert capsys.readouterr().out == "complexity: identical (exit 0)\n"


def test_a_directory_without_the_package_exits_2(tmp_path, capsys):
    assert load_tool().main([str(tmp_path)]) == 2
    assert "holds no qsvt_refine package" in capsys.readouterr().err
