"""The top-level namespace: the demos that import from it, and its name list."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ewcones
from ewcones import certify, cones, errata, family, gellmann, linalg, maps, spa

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_all_is_version_plus_module_lists():
    modules = (certify, cones, errata, family, gellmann, linalg, maps, spa)
    expected = {"__version__"}.union(*(m.__all__ for m in modules))
    assert set(ewcones.__all__) == expected
    assert len(ewcones.__all__) == len(expected)
    for name in ewcones.__all__:
        assert hasattr(ewcones, name)
