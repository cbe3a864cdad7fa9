"""The package's public namespace, and what importing it loads."""

import subprocess
import sys

import pytest

import bracelearn
from conftest import package_environ


def test_every_public_name_resolves():
    assert len(set(bracelearn.__all__)) == len(bracelearn.__all__)
    missing = [name for name in bracelearn.__all__ if not hasattr(bracelearn, name)]
    assert missing == []


def loaded_modules(module: str, packages: tuple[str, ...]) -> str:
    """The modules of ``packages`` that a fresh interpreter holds after importing ``module``."""
    code = (f"import sys, {module}; print(sorted(name for name in sys.modules "
            f"if name.split('.')[0] in {packages!r}))")
    result = subprocess.run([sys.executable, "-c", code], env=package_environ(),
                            capture_output=True, text=True, timeout=60, check=True)
    return result.stdout


@pytest.mark.parametrize("module", ["bracelearn", "bracelearn.cli"])
def test_import_loads_no_process_pool(module):
    # a sweep imports these only when it starts its workers; every command pays for an import
    assert loaded_modules(module, ("multiprocessing", "concurrent")) == "[]\n"


def test_cli_import_loads_no_yaml():
    # only a command given --config reads yaml, so predict and gradcheck never load it
    assert loaded_modules("bracelearn.cli", ("yaml",)) == "[]\n"
