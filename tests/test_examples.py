"""Every example script imports cleanly against the current package.

The scripts guard ``main()`` behind ``__name__ == "__main__"``, so
importing one runs only its imports and definitions: a symbol the
package no longer exports fails here instead of in a reader's shell.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
