"""The public surface must stay importable: every export and every example.

A deleted or renamed name can leave a dangling ``__all__`` entry, and an
example can keep importing a name that is gone; neither shows up in the rest
of the suite.  Examples only run their workload under ``__main__``, so
importing them here is cheap.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PACKAGES = ("repro", "repro.core", "repro.serve", "repro.models")
EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names unresolvable {missing}"


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_imports_cleanly(path):
    assert 'if __name__ == "__main__":' in path.read_text()
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_examples_are_collected():
    assert len(EXAMPLES) >= 4
