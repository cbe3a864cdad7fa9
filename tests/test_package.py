"""The package's public namespace, and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bracelearn


def test_every_public_name_resolves():
    assert len(set(bracelearn.__all__)) == len(bracelearn.__all__)
    missing = [name for name in bracelearn.__all__ if not hasattr(bracelearn, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["bracelearn", "bracelearn.cli"])
def test_import_loads_no_process_pool(module):
    # a sweep imports these only when it starts its workers; every command pays for an import
    code = (f"import sys, {module}; print(sorted(name for name in sys.modules "
            "if name.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = str(Path(bracelearn.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60, check=True)
    assert result.stdout == "[]\n"
