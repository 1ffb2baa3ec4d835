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
    # numpy is the one runtime dependency: importing every module loads no
    # scipy and nothing of the test toolchain
    code = (
        f"import importlib, pkgutil, sys; sys.path.insert(0, {src!r})\n"
        "from capax import *\n"
        "import capax\n"
        "for m in pkgutil.iter_modules(capax.__path__):\n"
        "    importlib.import_module('capax.' + m.name)\n"
        "extra = {n.split('.')[0] for n in sys.modules} & {'scipy', 'pytest', 'hypothesis'}\n"
        "assert not extra, extra\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
