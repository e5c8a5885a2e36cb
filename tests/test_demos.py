"""Every demo script runs to completion from a copy in a scratch directory,
so the files it writes land there and not next to the originals; the
README's code runs and gives the values its text states, and its
"Library surface" names exactly the package root's exports."""

import inspect
import os
import pathlib
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import graphchase

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if demo.stem == "06_witnesses":
        root = ET.parse(tmp_path / "witness_diagram.svg").getroot()
        assert root.tag.endswith("svg")


def test_readme_library_surface_lists_the_package_root():
    # every backticked name under the heading, against the root's names
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([^`]+)`", section))
    public = {name for name, value in vars(graphchase).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert listed == public


def test_readme_code_runs_and_states_its_values():
    # the ```python blocks in order, in one namespace, as a reader would
    # paste them; after each, the values its comments and text state
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 3
    ns = {}
    exec(blocks[0], ns)
    res = ns["res"]
    assert res.verdict == "capture" and round(res.time_bound, 4) == 0.9667
    exec(blocks[1], ns)
    res = ns["res"]
    assert res.verdict == "survival" and res.witness is not None
    assert round(res.min_clearance, 2) == 0.49
    exec(blocks[2], ns)
    assert ns["walk"].evaluate(1.0) == graphchase.GraphPoint("e0", 0.5)
