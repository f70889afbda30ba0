"""The package surface: public names load their home modules on first use."""

import json
import os
import subprocess
import sys

import pytest

import anisokde

# modules an estimate run never calls
UNCALLED = {"anisokde.densities", "anisokde.oracle", "anisokde.regimes", "anisokde.risk"}

SCRIPT = """
import json, sys
import numpy as np

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "anisokde")

import anisokde as ak
stages = {"import": loaded()}
data = ak.build_dataset(np.random.default_rng(0).standard_normal((64, 2)))
setup = ak.make_setup(data.n, 2, table_size=64)
policy = ak.KappaPolicy(kappa=0.05, d=2, p=2.0, k_inf=setup.kernel.k_inf)
mesh = ak.GridSpec(box=((-1.0, 1.0), (-1.0, 1.0)), nodes=(3, 3)).mesh()
assert len(ak.estimate_on_grid(data, mesh, policy, setup)) == 9
stages["fit"] = loaded()
from anisokde.cli import main
assert main(["estimate", "points.txt", "--config", "config.json", "--out", "run"]) == 0
stages["cli"] = loaded()
print(json.dumps(stages))
"""


def test_a_run_loads_only_the_modules_it_calls(tmp_path):
    # a fresh process, without bytecode files written into the source tree
    (tmp_path / "points.txt").write_text("0.0 0.0\n0.25 -0.5\n0.5 0.25\n-0.5 0.5\n")
    (tmp_path / "config.json").write_text(json.dumps({
        "kernel": {"table_size": 64},
        "estimate": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "grid_nodes": 3}}))
    src = os.path.dirname(os.path.dirname(anisokde.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    stages = json.loads(out.stdout.splitlines()[-1])
    assert stages["import"] == ["anisokde", "anisokde.errors"]
    assert "anisokde.estimator" in stages["fit"]
    assert not UNCALLED & set(stages["fit"])
    assert "anisokde.cli" in stages["cli"]
    assert not UNCALLED & set(stages["cli"])


def test_every_public_name_is_its_home_object():
    for name in anisokde.__all__:
        value = getattr(anisokde, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    star = {}
    exec("from anisokde import *", star)
    assert set(anisokde.__all__) <= set(star)
    assert set(anisokde.__all__) <= set(dir(anisokde))
    assert anisokde.risk.run_plan is anisokde.run_plan
    with pytest.raises(AttributeError, match="'no_such_name'"):
        anisokde.no_such_name
