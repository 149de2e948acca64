"""Every package from ``datamodel`` through ``serve`` imports without numpy.

numpy is needed only by the simulated vision substrate, the dataset registry
built on it and the figures.  Each package is imported in a fresh interpreter
(numpy installed or not) and must leave ``numpy`` out of ``sys.modules``, so
a failure names the package that pulled it in.
"""

import os
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "datamodel", "core", "query", "engine", "streaming", "session", "serve",
    "lint", "workloads",
]

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_without_numpy(package):
    probe = f"import sys, repro.{package}; print('numpy' in sys.modules)"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert done.stdout.strip() == "False", (
        done.stderr or f"importing repro.{package} imported numpy"
    )
