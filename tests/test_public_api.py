import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["fracsig", "fracsig.records", "fracsig.mfdfa", "fracsig.fracdyn",
           "fracsig.synth", "fracsig.classify", "fracsig.viral", "fracsig.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_lists_every_public_definition(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    defined = {
        n for n, v in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(v) or inspect.isclass(v))
        and v.__module__ == name
    }
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"{name} defines public {unlisted} outside __all__"


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs most of a command's start-up time and memory
    import fracsig

    src = str(Path(fracsig.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    code = "import sys, fracsig.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
