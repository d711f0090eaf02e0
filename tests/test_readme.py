"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


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
