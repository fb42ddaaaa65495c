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


# one interpreter runs the command chains; scipy would cost most of a
# command's start-up time and memory, and no command imports it, mfdfa
# included.  numpy imports numpy.ma lazily (15-19 ms), and np.unique is one
# call that pulls it in.  A module stays imported, so numpy.ma is checked
# after each of extract, viral and train, and train runs last: its check
# then covers every command of the chain
COMMAND_CHAINS = """
import sys
from fracsig.cli import main

for argv in [
    ["--help"],
    ["synth", "cohort", "--per-class", "1", "--channels", "2", "--samples", "1100",
     "--out-dir", "cohort"],
    ["extract", "cohort/manifest.json", "--out", "features.jsonl"],
    ["synth", "viral", "--subjects", "4", "--infected", "2", "--out-dir", "viral"],
    ["viral", "viral/manifest.json", "--out", "sweep.csv"],
    ["synth", "system", "--channels", "2", "--n", "1100", "--model-out", "model.json",
     "--out", "system.csv"],
    ["mfdfa", "system.csv", "--out-dir", "mfdfa"],
    ["convergence", "system.csv", "--step-seconds", "500", "--out", "convergence.csv"],
    ["train", "features.jsonl", "--folds", "2", "--epochs", "2", "--out-dir", "run"],
]:
    assert main(argv) == 0, argv
    if argv[0] in ("extract", "viral", "train"):
        print(argv[0], "numpy.ma" in sys.modules)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


@pytest.fixture(scope="module")
def chain_stdout(tmp_path_factory):
    import fracsig

    src = str(Path(fracsig.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    out = subprocess.run(
        [sys.executable, "-c", COMMAND_CHAINS], cwd=tmp_path_factory.mktemp("chains"),
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return out.stdout.splitlines()


def test_cli_commands_leave_scipy_out(chain_stdout):
    assert chain_stdout[-1] == "[]"


def test_extract_and_viral_leave_numpy_ma_out(chain_stdout):
    checks = [line for line in chain_stdout if line.startswith(("extract ", "viral "))]
    assert checks == ["extract False", "viral False"]


def test_train_leaves_numpy_ma_out(chain_stdout):
    assert [line for line in chain_stdout if line.startswith("train ")] == ["train False"]
