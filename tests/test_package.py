"""The package's export list and the README's library example."""

import re
import types
from pathlib import Path

import cispectra

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_each_public_name_once():
    exported = cispectra.__all__
    assert len(exported) == len(set(exported))
    bound = {
        name
        for name, value in vars(cispectra).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound


def test_readme_quick_tour_runs():
    # a README that names a deleted function fails here
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick tour", "exec"), {})
