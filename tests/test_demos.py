"""The demo scripts and the README examples run, and their exact assertions hold."""

import os
import subprocess
import sys

import pytest
from conftest import ROOT, readme_commands, readme_library_blocks

PYTHONPATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
DEMO_RUNS = [[path.name] for path in sorted((ROOT / "demos").glob("*.py"))]
DEMO_RUNS.append(["planar_network_gallery.py", "dot"])


@pytest.mark.parametrize("argv", DEMO_RUNS, ids=" ".join)
def test_demo_runs(argv):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
        env=dict(os.environ, PYTHONPATH=PYTHONPATH),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_readme_library_example():
    blocks = readme_library_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)


def test_readme_command_line(tmp_path):
    # Each line of the block, run as ``python -m crosstnn`` from a checkout.
    commands = readme_commands()
    assert commands and all(argv[0] == "crosstnn" for argv in commands)
    for argv in commands:
        result = subprocess.run(
            [sys.executable, "-m", "crosstnn", *argv[1:]],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=PYTHONPATH),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, (argv, result.stderr)
