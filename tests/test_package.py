"""The package's public surface."""

import os
import subprocess
import sys

import capax


def test_all_names_resolve_once():
    names = capax.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(capax, n)] == []
    src = os.path.dirname(os.path.dirname(capax.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); from capax import *"
    subprocess.run([sys.executable, "-c", code], check=True)
