import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import quadgames
from quadgames import Direction, cli, game, linalg, sphere

from util import (
    count_factorizations,
    random_partitioned,
    random_psd,
    random_saddle_instance,
)


def test_public_names():
    # The package exports the solvers, their result types and the
    # oracles; linear-algebra helpers stay in ``quadgames.linalg``.
    assert sorted(quadgames.__all__) == [
        "AffineSolutionSet", "ConstrainedGameSolution", "Direction",
        "DualityReport", "LambdaSolve", "LinearSolve", "OracleConfig",
        "PartitionedQuadratic", "QuadOptimum", "QuadraticForm",
        "SaddleSolution", "SphereSolutionSet", "TrustRegionSolution",
        "dual_curve", "duality_report", "fd_gradient", "grid_minmax",
        "lambda_curve", "lambda_p", "maxmin_threshold", "minimize",
        "minmax_threshold", "schur_complements", "solve_homogeneous",
        "solve_linear", "solve_linear_term", "solve_saddle",
        "solve_trust_region", "sphere_max", "verify_saddle",
    ]
    assert all(hasattr(quadgames, name) for name in quadgames.__all__)


def _solver_calls() -> list:
    """One call of each solver kind the benchmark runs, on nonempty
    blocks, with the factorizations it makes."""
    qg = quadgames
    rng = np.random.default_rng(79)
    a, b = rng.standard_normal((5, 4)), rng.standard_normal(5)
    form = qg.QuadraticForm(random_psd(rng, 4), rng.standard_normal(4))
    saddle = random_saddle_instance(rng, 4, 3)
    pq = random_partitioned(rng, 4, 3)
    lam = qg.minmax_threshold(pq) + 1.0
    homogeneous = pq._replace(d1=np.zeros(4), d2=np.zeros(3))
    d_mat, d_vec = random_psd(rng, 4), rng.standard_normal(4)
    calls = {
        "solve_linear": (lambda: qg.solve_linear(a, b), Counter(svd=1)),
        "minimize": (lambda: qg.minimize(form), Counter(eigh=1)),
        "solve_saddle": (lambda: qg.solve_saddle(saddle), Counter(eigh=1, eigvalsh=2)),
        "duality_report": (lambda: qg.duality_report(pq, lam), Counter(eigh=3)),
        "solve_trust_region": (
            lambda: qg.solve_trust_region(d_mat, d_vec), Counter(eigh=1)
        ),
        "solve_homogeneous-maxmin": (
            lambda: qg.solve_homogeneous(homogeneous, Direction.MAXMIN), Counter(eigh=2)
        ),
        "solve_linear_term-minmax": (
            lambda: qg.solve_linear_term(pq, Direction.MINMAX), Counter(eigh=3)
        ),
        "solve_linear_term-maxmin": (
            lambda: qg.solve_linear_term(pq, Direction.MAXMIN), Counter(eigh=2)
        ),
    }
    return [pytest.param(*call, id=kind) for kind, call in calls.items()]


@pytest.mark.parametrize("solve, expected", _solver_calls())
def test_factorizations_per_solve(monkeypatch, solve, expected):
    # The factorization count of a solve does not depend on the machine,
    # so it gates the cost of each kind where wall times cannot.
    counts = count_factorizations(monkeypatch)
    assert solve() is not None
    assert counts == expected


def _one_of_each_record() -> list:
    """An instance of every record type the package builds."""
    eye = np.eye(2)
    pq = quadgames.PartitionedQuadratic(eye, eye, 2.0 * eye, np.ones(2), np.ones(2))
    saddle = quadgames.PartitionedQuadratic(eye, eye, -eye, np.ones(2), np.ones(2))
    form = quadgames.QuadraticForm(eye, np.ones(2))
    trust = quadgames.solve_trust_region(eye, np.ones(2))
    report = quadgames.duality_report(pq, 3.0)
    linear = quadgames.solve_linear(eye, np.ones(2))
    return [
        linalg.svd(eye), linear, linear.solutions,
        quadgames.schur_complements(eye, eye, 2.0 * eye),
        form, quadgames.minimize(form),
        trust.w_star, trust, sphere.Secular.of(eye, np.ones(2)),
        pq, quadgames.solve_saddle(saddle), report.minmax,
        game.schur_reduction(pq), report,
        quadgames.solve_linear_term(pq, quadgames.Direction.MINMAX),
        quadgames.OracleConfig(), cli.KINDS["quad_min"],
    ]


def test_records_are_immutable_tuples():
    records = _one_of_each_record()
    assert len({type(r) for r in records}) == 17
    for record in records:
        assert isinstance(record, tuple), type(record)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_replace_validates_the_inputs():
    # ``_replace`` builds through the constructor, so it checks what it
    # is given as the constructor does.
    form = quadgames.QuadraticForm(np.eye(2), np.ones(2))
    assert form._replace(constant=2).constant == 2.0
    with pytest.raises(ValueError, match="linear term has length 3"):
        form._replace(linear=np.ones(3))
    with pytest.raises(TypeError, match="samples must be an integer"):
        quadgames.OracleConfig()._replace(samples=2.5)


def test_cold_cli_import_leaves_dataclasses_out():
    # The records are namedtuples; a frozen dataclass costs about 0.8 ms
    # of import time per class, so the CLI's start-up keeps them out.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}

    def loads_dataclasses(imports: str) -> bool:
        probe = f"import sys\n{imports}\nprint('dataclasses' in sys.modules)\n"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return out.strip() == "True"

    if loads_dataclasses("import numpy, argparse, json"):
        pytest.skip("numpy, argparse or json already imports dataclasses here")
    assert not loads_dataclasses("import quadgames.cli")


SOURCES = {
    path.stem: ast.parse(path.read_text())
    for path in Path(quadgames.__file__).parent.glob("*.py")
}
SOLVERS = ("linalg", "quadratic", "sphere", "game", "minmax")


def _imports(tree) -> list:
    """(module, name) for each name a module imports, module relative
    to the package ("" for ``from . import name``)."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("quadgames").lstrip(".")
            pairs += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(alias.name.removeprefix("quadgames."), "") for alias in node.names]
    return pairs


def _names(tree) -> set:
    """Every name a module defines, reads, imports or looks up on an object."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_oracle_owns_every_draw_sweep_and_refutation():
    # The sampler, the block sweep and the exact inner minimum live in
    # ``oracle`` alone, and no solver imports it.
    for name in ("BLOCK", "_sweep", "_gaussian_rows", "_inner_min"):
        users = {module for module, tree in SOURCES.items() if name in _names(tree)}
        assert users == {"oracle"}, name
    for module in SOLVERS:
        imported = _imports(SOURCES[module])
        assert not [pair for pair in imported if "oracle" in pair], module
    # The command line calls the oracles by their public names.
    private = [
        (module, name) for module, name in _imports(SOURCES["cli"])
        if module in SOURCES and name.startswith("_")
    ]
    modules = {name for module, name in _imports(SOURCES["cli"]) if name in SOURCES}
    private += [
        (node.value.id, node.attr) for node in ast.walk(SOURCES["cli"])
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert private == []
    # `check` reads no environment variable: no knob scales its bounds.
    assert not {"os", "environ", "getenv"} & _names(SOURCES["cli"])
    # A "no answer" is certified with no step: no escape probe, no 1e6
    # step, and every checker of one reads ``off_range``.
    for module in ("oracle", "cli"):
        tree = SOURCES[module]
        assert not [n for n in _names(tree) if "escape" in n.lower()], module
        assert not [
            c for c in ast.walk(tree) if isinstance(c, ast.Constant) and c.value == 1e6
        ], module
    checkers = {
        node.name: node for node in SOURCES["cli"].body
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("_check_quad_min", "_check_saddle", "_check_lagrangian",
                 "_check_sphere_game"):
        assert "off_range" in _names(checkers[name]), name


def test_oracle_has_one_cut_engine_and_no_w_grid():
    # Both searches by central cuts, MINMAX over u and the lambda family
    # over w, run the one loop of ``_cuts``; no grid over w is left.
    tree = SOURCES["oracle"]
    functions = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    loops = {name for name, node in functions.items() if "_MAX_CUTS" in _names(node)}
    callers = {name for name, node in functions.items() if "_cuts" in _names(node)}
    assert loops == {"_cuts"}
    assert callers == {"_cuts", "_convex_min", "lagrangian_bracket"}
    assert "linspace" not in _names(tree) and "grid_lagrangian" not in _names(tree)


def test_oracle_has_one_sphere_search_and_one_cap_table():
    # The trust region and MAXMIN share one sample-and-polish routine,
    # whose power step needs no curvature bound, so no function reads a
    # spectral norm; MAXMIN's polish, the lambda family's cuts and the
    # infinite-maxmin certificate share one gradient of g(w) = min over u
    # of V, and every dimension cap is in _check_dims.
    functions = {
        node.name: node for node in SOURCES["oracle"].body
        if isinstance(node, ast.FunctionDef)
    }

    def readers(name):
        return {f for f, node in functions.items() if name in _names(node)} - {name}

    assert readers("POLISH_STEPS") == {"_ascend"}
    assert readers("unit_samples") == {"_ascend"}
    assert readers("_ascend") == {"sphere_max", "grid_minmax"}
    assert readers("spectral_norm") == set()
    assert "spectral_norm" not in _names(SOURCES["oracle"])
    assert readers("_inner_gradient") == {
        "grid_minmax", "lagrangian_bracket", "infinite_maxmin"
    }
    capped = {
        f for f, node in functions.items() for c in ast.walk(node)
        if isinstance(c, ast.Constant) and "dimension" in str(c.value)
    }
    assert capped == {"_check_dims"}
