"""The package root and the README's Library example stay in step."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import dcp

README = Path(__file__).resolve().parent.parent / "README.md"

# every name read from the package root: the README's Library example, plus
# NumericsError, which perfbench catches
ROOT_NAMES = {"ShiftSpec", "TrainConfig", "train", "evaluate", "gen_blobs", "NumericsError"}


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_root_exports_only_what_callers_read():
    public = {
        name for name, value in vars(dcp).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == ROOT_NAMES
    assert dcp.__version__ == "0.1.0"


def test_readme_library_example_runs():
    code = library_example()
    assert "from dcp import" in code
    # the example's 1500 iterations take seconds; a few dozen run the same calls
    short, replaced = re.subn(r"iterations=1500\b", "iterations=40", code)
    assert replaced == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(short, str(README), "exec"), {})
    assert 0.0 <= float(out.getvalue()) <= 1.0
