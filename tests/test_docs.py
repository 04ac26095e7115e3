import re
from pathlib import Path
from types import ModuleType

import scdmi

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_import():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    entry = [b for b in blocks if "from scdmi import (" in b]
    assert len(entry) == 1
    namespace = {}
    exec(entry[0], namespace)
    assert "scdmi50" in namespace
    for name in scdmi.__all__:
        assert getattr(scdmi, name) is not None, name


def test_all_exports_no_modules():
    modules = [name for name in scdmi.__all__ if isinstance(getattr(scdmi, name), ModuleType)]
    assert modules == []
