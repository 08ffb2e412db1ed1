"""Limits on the package's source files themselves."""

import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import fedsim

MODULES = sorted(Path(fedsim.__file__).parent.glob("*.py"))

# CPython 3.11's parser keeps a module's tokens in one array that doubles
# when it fills, and it fills at 8,192.  A module past that step peaks about
# 0.45 MB higher each time it is compiled, which under
# PYTHONDONTWRITEBYTECODE=1 is every time a process imports it.  Comments,
# blank lines and the encoding marker never reach the parser, so they do not
# count; docstrings cost one token each.
PARSER_TOKEN_STEP = 8192


def significant_tokens(path: Path) -> int:
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as source:
        return sum(1 for token in tokenize.tokenize(source.readline) if token.type not in skipped)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_stays_under_the_parsers_token_step(path):
    assert significant_tokens(path) < PARSER_TOKEN_STEP


# NumPy 2.4's plain np.unique, which np.percentile calls too, imports
# numpy.ma, which costs every run that calls it several milliseconds and a
# few hundred kB of its set-up peak.
SET_UP_A_RUN = """
import sys
from fedsim.config import build_datasets, build_model_spec, build_profiles, load_config_dict, resolve_config
from fedsim.engine import prepare_run
raw = load_config_dict(sys.argv[1])
raw["dataset"]["partition"] = sys.argv[2]
cfg = resolve_config(raw)
train, test = build_datasets(cfg)
prepare_run(cfg.fed, build_model_spec(cfg, train), train, test, build_profiles(cfg))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


@pytest.mark.parametrize("partition", ["iid", "dirichlet"])
def test_setting_up_a_run_does_not_import_numpy_ma(partition):
    src = Path(fedsim.__file__).parents[1]
    config = Path(__file__).resolve().parents[1] / "configs" / "quickstart.yaml"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-c", SET_UP_A_RUN, str(config), partition]
    result = subprocess.run(command, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_config_imports_nothing_of_the_engine():
    # the engine depends on its configuration, not the other way round
    src = Path(fedsim.__file__).parents[1]
    loaded = ("fedsim.engine", "fedsim.nn", "fedsim.losses", "fedsim.procs")
    check = f"import sys, fedsim.config; assert not set({loaded!r}) & set(sys.modules), sorted(sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
