"""Import layering: package exports that load their submodule on first
use still resolve, and every backend works from a cold interpreter.

Each check runs in a fresh interpreter, since within the test session
every module is long loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py"))


def run_cold(script: str) -> str:
    """``script``'s stdout, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=120).stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    script = (f"import importlib\n"
              f"module = importlib.import_module({package!r})\n"
              f"missing = [name for name in module.__all__\n"
              f"           if getattr(module, name, None) is None]\n"
              f"assert set(module.__all__) <= set(dir(module))\n"
              f"print(missing)\n")
    assert run_cold(script).strip() == "[]"


def test_star_import_loads_the_lazy_names():
    script = ("from repro import *\n"
              "print(ZDD.__name__, ReachabilityGraph.__name__, "
              "ZddNet.__name__)\n")
    assert run_cold(script).split() == ["ZDD", "ReachabilityGraph",
                                        "ZddNet"]


def test_unknown_package_attribute_raises_attribute_error():
    script = ("import repro.bdd\n"
              "try:\n"
              "    repro.bdd.NoSuchName\n"
              "except AttributeError as exc:\n"
              "    print(exc)\n")
    assert "has no attribute 'NoSuchName'" in run_cold(script)


ANALYZE = ("import json\n"
           "from repro.analysis import analyze\n"
           "from repro.petri.generators import philosophers\n"
           "result = analyze(philosophers(4), **json.loads({spec!r}))\n"
           "print(result.markings, "
           "result.extras.get('resume', {{}}).get('status'))\n")


@pytest.mark.parametrize("spec", [
    {"backend": "zdd"},
    {"backend": "zdd", "form": "functional"},
    {"form": "relational"},
    {"k_bound": 1},
    {"backend": "portfolio"},
], ids=["zdd", "zdd-classic", "relational", "kbounded", "portfolio"])
def test_each_lazy_backend_runs_cold(spec):
    out = run_cold(ANALYZE.format(spec=json.dumps(spec)))
    assert out.split() == ["466", "None"]


def test_checkpoint_and_resume_run_cold(tmp_path):
    spec = {"checkpoint_path": str(tmp_path / "phil4.ckpt")}
    assert run_cold(ANALYZE.format(spec=json.dumps(spec))).split() \
        == ["466", "None"]
    spec["resume"] = True
    assert run_cold(ANALYZE.format(spec=json.dumps(spec))).split() \
        == ["466", "resumed"]
