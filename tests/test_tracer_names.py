"""The benchmark's tracer patches treekeep names by module and attribute.

A change that removes or renames one of them would otherwise surface only
in the benchmark's traced run, which the tier-1 suite does not start.
"""

import os
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
