"""The README's library example and command lines run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covham.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"

# top-level packages that importing covham and its command line adds
# beyond the standard library, printed as JSON
_IMPORTED = """
import json, sys
before = set(sys.modules)
import covham, covham.cli
added = {m.split(".")[0] for m in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


def test_library_use_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    grid, hist, phi = names["grid"], names["hist"], names["phi"]
    assert np.all(np.isfinite(phi))
    assert hist.plus[-1].shape == (len(grid),) + names["field"].component_shape
    assert hist.minus[-1].shape == hist.plus[-1].shape


def _command_lines():
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("covham ")]


def test_command_line_block_has_commands():
    # an empty block would leave the test below no case to run
    assert _command_lines()


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_example_runs(line, tmp_path, monkeypatch):
    # reports land in a temporary directory; scenarios/ is the repository's
    monkeypatch.chdir(tmp_path)
    args = [str(README.parent / arg) if arg.startswith("scenarios/") else arg
            for arg in shlex.split(line)[1:]]
    assert main(args) == 0


def test_numpy_is_the_only_runtime_dependency():
    # scipy may be installed next to numpy, where a stray import would
    # pass every other test
    assert "The only runtime dependency is numpy." in README.read_text()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORTED], env=env,
                         capture_output=True, text=True, check=True)
    added = json.loads(out.stdout.splitlines()[-1])
    assert "scipy" not in added
    assert set(added) <= {"covham", "numpy"}
