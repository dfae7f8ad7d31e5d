"""Demos: each script in demos/ runs to its end and prints its report."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    # in process, as `python demos/NN_*.py` runs it
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
