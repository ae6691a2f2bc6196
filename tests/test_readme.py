"""The README's examples run as written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scaperture.io.config import parse_config

ROOT = Path(__file__).resolve().parents[1]


def _blocks(language):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(rf"```{language}\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, f"README has no {language} block"
    return blocks


def test_readme_library_example_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in _blocks("python"):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["solve", "sweep", "compare", "coupling"])
def test_readme_config_example_parses(command):
    for block in _blocks("json"):
        parse_config(json.loads(block), command)
