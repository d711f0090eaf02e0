"""The README's library example runs as written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

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
