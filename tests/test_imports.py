"""The import graph: no ``cglind`` module loads scipy.integrate, the
time-domain oracle ``k_t_oracle`` included; the test oracles share only
a short list of ``linalg`` primitives with the production path; every
``__all__`` entry resolves."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import cglind

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cglind.__file__)))
ORACLES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "oracles.py")
# The cglind names tests/oracles.py may import: array primitives that
# compute no physics, so an oracle cannot agree with a faulty formula
# by calling it.
ORACLE_IMPORTS = {"choi_matrix", "is_psd", "max_abs", "require_hermitian",
                  "vectorize", "to_real_basis"}

EVERY_MODULE_IMPORT = """
import importlib, pkgutil, sys
import cglind
for m in pkgutil.iter_modules(cglind.__path__):
    importlib.import_module("cglind." + m.name)
assert "scipy.integrate" not in sys.modules, "cglind loaded scipy.integrate"
"""

K_T_ORACLE_AFTER_FRESH_IMPORT = """
import sys
import numpy as np
from cglind.generator import assemble_kt, k_t_oracle
from cglind.linalg import hermitian_eig
from cglind.subsystem import build_projection, sector_family
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
sub = build_projection(sector_family([1, 1]))
K_orc = k_t_oracle(sub, SZ, SX, 1.0)
assert "scipy.integrate" not in sys.modules, "k_t_oracle loaded scipy.integrate"
K_asm, *_ = assemble_kt(sub, hermitian_eig(SZ), SX, 1.0)
assert np.max(np.abs(K_orc - K_asm @ sub.heisenberg)) < 1e-6
"""


def run_fresh(code):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_every_module_import_leaves_out_scipy_integrate():
    proc = run_fresh(EVERY_MODULE_IMPORT)
    assert proc.returncode == 0, proc.stderr


def test_k_t_oracle_leaves_out_scipy_integrate():
    proc = run_fresh(K_T_ORACLE_AFTER_FRESH_IMPORT)
    assert proc.returncode == 0, proc.stderr


def shared_with_production(source):
    """(module, name) of each cglind import in ``source`` outside
    ``ORACLE_IMPORTS``; a plain ``import cglind...`` has name None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names
                      if a.name.split(".")[0] == "cglind"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "cglind":
            found += [(node.module, a.name) for a in node.names]
    return [(module, name) for module, name in found
            if module != "cglind.linalg" or name not in ORACLE_IMPORTS]


def test_oracles_share_only_linalg_primitives():
    with open(ORACLES, encoding="utf-8") as fh:
        assert shared_with_production(fh.read()) == []


def test_independence_check_rejects_planted_import():
    with open(ORACLES, encoding="utf-8") as fh:
        planted = fh.read() + \
            "\nfrom cglind.coarsegrain import coarse_grained_L\n"
    assert shared_with_production(planted) == [
        ("cglind.coarsegrain", "coarse_grained_L")]


def test_every_all_entry_resolves():
    for sub in ["", *(f".{m.name}" for m in pkgutil.iter_modules(cglind.__path__))]:
        module = importlib.import_module("cglind" + sub)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{module.__name__}: {missing}"
