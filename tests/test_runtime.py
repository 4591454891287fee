"""What the installed package needs at run time: no scipy, and results
that do not depend on how many threads BLAS may use."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATASETS_DIR
from nested_dichotomies.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a pruned C4.5 reference (C4.5 pruning needs a normal deviate) and a second
# method that the t-test compares with it (a Student-t tail probability)
EXPERIMENT = """
dataset = {data}
k = 2
repeats = 2
seed = 3
out = {out}
method = name=c45 strategy=random_pair learner=tree
method = name=nd strategy=random learner=tree
"""
TRAIN = ["train", "--data", str(DATASETS_DIR / "glass.arff"), "--seed", "4",
         "--method", "name=m strategy=random_pair learner=tree"]

# runs ndich in-process with every import of scipy raising ImportError
_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from nested_dichotomies.cli import main
from nested_dichotomies.learners.tree import _upper_z
code = main(sys.argv[1:])
assert _upper_z.cache_info().currsize > 0, "no pruning bound was computed"
raise SystemExit(code)
"""


def _run(code_or_module, args, env_changes=None, drop=()):
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_changes or {})
    return subprocess.run(
        [sys.executable, *code_or_module, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_ndich_runs_without_scipy(tmp_path, capsys):
    blocked, inproc = tmp_path / "blocked", tmp_path / "inproc"
    for out in (blocked, inproc):
        config = EXPERIMENT.format(data=DATASETS_DIR / "glass.arff", out=out)
        (tmp_path / f"{out.name}.cfg").write_text(config)

    proc = _run(["-c", _NO_SCIPY], ["evaluate", "--config", str(tmp_path / "blocked.cfg")])
    assert proc.returncode == 0, proc.stderr
    trained = _run(["-c", _NO_SCIPY], TRAIN)
    assert trained.returncode == 0, trained.stderr

    assert main(["evaluate", "--config", str(tmp_path / "inproc.cfg")]) == 0
    capsys.readouterr()
    assert main(TRAIN) == 0
    assert trained.stdout == capsys.readouterr().out
    csv = (blocked / "results.csv").read_text()
    assert csv == (inproc / "results.csv").read_text()
    assert csv.splitlines()[2].split(",")[4:6] != ["", ""]  # the t-test ran


def test_package_import_leaves_statistics_out():
    # the normal deviate's module loads only when a C4.5 tree is pruned
    check = "import sys, nested_dichotomies; assert 'statistics' not in sys.modules"
    proc = _run(["-c", check], [])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread on one core")
def test_model_text_independent_of_blas_threads():
    # zoo encodes to 131 features, enough for OpenBLAS to thread the
    # logistic Hessian when it may
    args = ["train", "--data", str(DATASETS_DIR / "zoo.arff"), "--seed", "7",
            "--method", "name=m strategy=random_pair learner=logistic"]
    texts = []
    for setting in (None, "1", "2"):
        changes = {"OPENBLAS_NUM_THREADS": setting} if setting else {}
        proc = _run(["-m", "nested_dichotomies.cli"], args, changes, drop=BLAS_VARS)
        assert proc.returncode == 0, proc.stderr
        texts.append(proc.stdout)
    assert texts[0] == texts[1] == texts[2]


def test_readme_python_example_runs(monkeypatch, capsys):
    # the README's one Python block, run from the repository root as a user
    # would paste it, so a documented name that goes away fails here
    readme = ROOT / "README.md"
    (example,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    monkeypatch.chdir(ROOT)
    exec(compile(example, str(readme), "exec"), {})
    mean, std = map(float, capsys.readouterr().out.split())
    assert 0.7 < mean <= 1.0 and 0.0 < std < 0.2


def test_cli_import_leaves_concurrent_futures_out():
    # experiment cells run on the calling thread, so no executor is loaded
    check = "import sys, nested_dichotomies.cli; assert 'concurrent.futures' not in sys.modules"
    proc = _run(["-c", check], [])
    assert proc.returncode == 0, proc.stderr
