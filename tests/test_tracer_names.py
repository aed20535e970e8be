"""The benchmark's tracer patches treekeep names by module and attribute,
and its workloads call public names as ``tk.<name>``.

A change that removes or renames one of them would otherwise surface only
in the benchmark's run, which the tier-1 suite does not start.
"""

import os
import re
import runpy
import sys

import pytest

import treekeep
import treekeep.cli  # noqa: F401  (the tracer patches names in this module too)

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")

# run_path compiles the source in memory and writes no bytecode next to it.
PATCHES = runpy.run_path(TRACER)["PATCHES"]


@pytest.mark.parametrize("module, attr", [patch[:2] for patch in PATCHES], ids=lambda v: v)
def test_every_traced_name_resolves(module, attr):
    owner = treekeep.data.Dataset if module == "Dataset" else sys.modules[module]
    assert callable(getattr(owner, attr))


def _benchmark_names():
    """Every ``tk.<name>`` the benchmark's workloads and their tests use."""
    names = set()
    for script in ("workloads.py", "test_perfbench.py"):
        with open(os.path.join(os.path.dirname(TRACER), script), encoding="utf-8") as fh:
            names.update(re.findall(r"\btk\.([A-Za-z_]\w*)", fh.read()))
    return sorted(names)


@pytest.mark.parametrize("name", _benchmark_names())
def test_every_name_the_benchmark_calls_resolves(name):
    assert hasattr(treekeep, name)
