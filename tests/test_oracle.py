import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qoc
from qoc.qgaussian import QGaussian

from oracle import (
    GridSpec,
    brute_force_entmax,
    quadrature_moments,
    quadrature_normalization,
    simplex_grid,
)


class TestSimplexGrid:
    def test_rows_are_distributions(self):
        grid = simplex_grid(3, 0.1)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert np.all(grid >= 0)

    def test_count(self):
        # compositions of 10 into 3 parts: C(12, 2) = 66
        assert simplex_grid(3, 0.1).shape == (66, 3)

    def test_contains_vertices(self):
        grid = simplex_grid(2, 0.25)
        assert any(np.array_equal(r, [1.0, 0.0]) for r in grid)
        assert any(np.array_equal(r, [0.0, 1.0]) for r in grid)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            simplex_grid(6, 0.005)


class TestBruteForceEntmax:
    def test_dimension_bound(self):
        with pytest.raises(ValueError):
            brute_force_entmax(np.zeros(5), 1.0, 0.3, GridSpec(0.1))

    def test_symmetric_costs_give_uniform(self):
        point, _ = brute_force_entmax([1.0, 1.0], 1.0, 0.5, GridSpec(0.01))
        assert np.allclose(point, [0.5, 0.5], atol=0.01)

    def test_dominant_cost_pushes_mass_away(self):
        point, _ = brute_force_entmax([0.0, 10.0], 0.1, 0.3, GridSpec(0.01))
        assert point[0] > 0.95


class TestQuadrature:
    def test_normalization_rejects_high_dim(self):
        g = QGaussian(np.zeros(3), np.eye(3), 0.3)
        with pytest.raises(ValueError):
            quadrature_normalization(g)

    def test_moments_reject_high_dim(self):
        g = QGaussian(np.zeros(2), np.eye(2), 0.3)
        with pytest.raises(ValueError):
            quadrature_moments(g)

    def test_independent_density_matches_solver_density(self):
        # the oracle writes the density out from scratch; cross-check a few
        # points against the packaged implementation
        from oracle import _density_parts, _raw_density

        g = QGaussian([0.1], [[0.8]], 0.35)
        sigma_inv, zq, scale = _density_parts(g)
        for x in [-0.5, 0.0, 0.4, 1.2]:
            assert _raw_density(x, g.mu, sigma_inv, zq, scale, g.q) == pytest.approx(
                g.density([x]), rel=1e-12
            )


def qoc_imports(path):
    """The qoc modules a source file imports (``qoc`` for the package)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.partition(".")[0] == "qoc"
        ):
            module = node.module if node.level else node.module.partition(".")[2] or None
            if module:
                names.add(module.partition(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.partition(".")[2] or "qoc"
                for alias in node.names
                if alias.name.partition(".")[0] == "qoc"
            )
    return names


def top_level_imports(path):
    """The first component of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
    return names


def test_oracle_is_independent_of_the_solvers():
    """tests/oracle.py imports nothing from qoc, and no qoc module imports an oracle."""
    oracle = Path(__file__).with_name("oracle.py")
    assert oracle.is_file()
    assert qoc_imports(oracle) == set()
    for path in sorted(Path(qoc.__file__).parent.glob("*.py")):
        assert "oracle" not in qoc_imports(path) | top_level_imports(path), path.name


def test_runtime_imports_no_scipy():
    """scipy is a test dependency: importing qoc and its CLI loads none of it."""
    src = str(Path(qoc.__file__).parent.parent)
    code = "import sys, qoc, qoc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
