"""The import graph of a run: scipy.integrate is loaded by the
quadrature oracles on first call, never by ``import cglind.cli`` or by
the time-domain oracle ``k_t_oracle``; every ``__all__`` entry resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys

import cglind

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cglind.__file__)))

CLI_IMPORT = """
import sys
import cglind, cglind.cli
assert "scipy.integrate" not in sys.modules, "cglind.cli loaded scipy.integrate"
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

QUADRATURE_ORACLE_AFTER_FRESH_IMPORT = """
import sys
from cglind.coarsegrain import pv_gaussian, pv_gaussian_quadrature
assert "scipy.integrate" not in sys.modules
dawson = float(pv_gaussian(0.7, 2.0))
assert abs(pv_gaussian_quadrature(0.7, 2.0) - dawson) <= 1e-8 * abs(dawson)
assert "scipy.integrate" in sys.modules
"""


def run_fresh(code):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_cli_import_leaves_out_scipy_integrate():
    proc = run_fresh(CLI_IMPORT)
    assert proc.returncode == 0, proc.stderr


def test_k_t_oracle_leaves_out_scipy_integrate():
    proc = run_fresh(K_T_ORACLE_AFTER_FRESH_IMPORT)
    assert proc.returncode == 0, proc.stderr


def test_oracles_import_scipy_integrate_on_first_call():
    # the quadrature oracles; k_t_oracle carries its own Simpson rule
    proc = run_fresh(QUADRATURE_ORACLE_AFTER_FRESH_IMPORT)
    assert proc.returncode == 0, proc.stderr


def test_every_all_entry_resolves():
    for sub in ["", *(f".{m.name}" for m in pkgutil.iter_modules(cglind.__path__))]:
        module = importlib.import_module("cglind" + sub)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{module.__name__}: {missing}"
