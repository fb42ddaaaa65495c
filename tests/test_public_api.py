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


# one interpreter runs the command chains; scipy costs most of a command's
# start-up time and memory, and only the mfdfa command's scaling_function
# and cohort_spectrum import it
COMMAND_CHAINS = """
import sys
from fracsig.cli import main

for argv in [
    ["--help"],
    ["synth", "cohort", "--per-class", "1", "--channels", "2", "--samples", "1100",
     "--out-dir", "cohort"],
    ["extract", "cohort/manifest.json", "--out", "features.jsonl"],
    ["train", "features.jsonl", "--folds", "2", "--epochs", "2", "--out-dir", "run"],
    ["synth", "viral", "--subjects", "4", "--infected", "2", "--out-dir", "viral"],
    ["viral", "viral/manifest.json", "--out", "sweep.csv"],
]:
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_cli_commands_leave_scipy_out(tmp_path):
    import fracsig

    src = str(Path(fracsig.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    out = subprocess.run(
        [sys.executable, "-c", COMMAND_CHAINS], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert out.stdout.splitlines()[-1] == "[]"
