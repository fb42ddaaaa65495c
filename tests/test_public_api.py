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


BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PRINT_BLAS_THREADS = (
    f"import os, fracsig.cli; print([os.environ.get(n) for n in {BLAS_THREADS}])"
)


def _fresh(code, **env):
    """The stdout of ``code`` run in a fresh interpreter whose environment has
    no BLAS thread variable but those in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env={**base, "PYTHONPATH": src, **env},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stdout.strip()


def test_package_import_leaves_numpy_out():
    assert _fresh("import sys, fracsig; print('numpy' in sys.modules)") == "False"


def test_cli_import_pins_one_blas_thread():
    assert _fresh(PRINT_BLAS_THREADS) == "['1', '1', '1']"


def test_cli_import_leaves_a_set_thread_variable_alone():
    assert _fresh(PRINT_BLAS_THREADS, OMP_NUM_THREADS="3") == "['3', None, None]"


def test_run_import_leaves_numpy_out():
    assert _fresh("import sys, fracsig._run; print('numpy' in sys.modules)") == "False"


def test_cli_import_loads_every_layer():
    # a span tracer finds the six layers in sys.modules right after `import fracsig.cli`
    code = ("import sys, fracsig.cli; print([m for m in ('classify', 'fracdyn', 'mfdfa', "
            "'records', 'synth', 'viral') if f'fracsig.{m}' not in sys.modules])")
    assert _fresh(code) == "[]"
