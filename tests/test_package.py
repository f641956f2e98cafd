import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import quadgames
from quadgames import Direction, cli, game, linalg, oracle, sphere

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


def _solver_calls() -> dict:
    """One call of each solver kind the benchmark runs, on nonempty
    blocks, with the factorizations it makes, by kind."""
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
    return calls


@pytest.mark.parametrize(
    "solve, expected",
    [pytest.param(*call, id=kind) for kind, call in _solver_calls().items()],
)
def test_factorizations_per_solve(monkeypatch, solve, expected):
    # The factorization count of a solve does not depend on the machine,
    # so it gates the cost of each kind where wall times cannot.
    counts = count_factorizations(monkeypatch)
    assert solve() is not None
    assert counts == expected


def _arrays(value):
    """The arrays a result holds, through its nested records and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array whose buffer ``a`` views (a itself if it owns one)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize(
    "solve",
    [pytest.param(solve, id=kind) for kind, (solve, _) in _solver_calls().items()],
)
def test_results_hold_only_their_own_arrays(solve):
    # A view keeps its whole base alive: a null-space basis sliced from
    # the n x n factor of a solve would pin that factor for as long as
    # the result is held.  What a result retains does not depend on the
    # machine: the buffers its arrays view weigh what the arrays weigh.
    arrays = list({id(a): a for a in _arrays(solve())}.values())
    owners = list({id(o): o for o in map(_owner, arrays)}.values())
    assert sum(o.nbytes for o in owners) == sum(a.nbytes for a in arrays)


def test_factorizations_per_infinite_certificate(monkeypatch):
    # The infinite certificates read the raw data, not the solvers' Schur
    # reduction: the maxmin one an eigh of M11 and one of S, below ||S||
    # and at it (where it reads r too), the minmax one M22's eigenvalues.
    pq = random_partitioned(np.random.default_rng(79), 4, 3)
    norm_s, norm22 = quadgames.maxmin_threshold(pq), quadgames.minmax_threshold(pq)
    counts = count_factorizations(monkeypatch)
    for lam in (norm_s - 1.0, norm_s):
        oracle.infinite_maxmin(pq, lam)
        assert counts == Counter(eigh=2), lam
        counts.clear()
    assert oracle.infinite_minmax(pq, norm22 - 1.0)
    assert counts == Counter(eigvalsh=1)


def test_factorizations_per_finite_lagrangian_check(monkeypatch):
    # Both sides' finiteness is read by their infinite certificates (the
    # two eigh and the eigvalsh above) beside the bracket's eigh of M11
    # and of M(lambda).
    pq = random_partitioned(np.random.default_rng(79), 4, 3)
    prob = {"kind": "lagrangian", "lambda": quadgames.minmax_threshold(pq) + 1.0}
    doc, code = cli._solve_lagrangian(pq, prob)
    assert doc["status"] == "strong_duality"
    counts = count_factorizations(monkeypatch)
    assert cli._check_lagrangian(pq, prob, doc, code, cli._oracle_config(prob))[2]
    assert counts == Counter(eigh=4, eigvalsh=1)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize("name, expected", [
    ("trust_region_interior.json", Counter(eigh=2, eigvalsh=1)),
    ("maxmin_homogeneous.json", Counter(eigh=2, eigvalsh=1)),
    ("minmax_linear.json", Counter(eigh=1, eigvalsh=1)),
    ("lagrangian_gap.json", Counter(eigh=4, eigvalsh=1)),
    ("saddle_bilinear.json", Counter()),
    ("quad_min.json", Counter()),
    ("linear_solve.json", Counter()),
    ("quad_min_unbounded.json", Counter(eigh=1)),
])
def test_factorizations_per_check(monkeypatch, name, expected):
    # The check part of a `check`, past its solve, per kind.  The trust
    # region is its p = 0 MAXMIN game, so both make the search's and the
    # certificate's split of M11 (0 x 0 for the trust region) and the
    # certificate's eigvalsh of S; MINMAX one split for its bracket; an
    # unbounded quad_min the off_range split, and the sampled checks none.
    prob = cli.load_problem(str(FIXTURES / name))
    data, doc, code = cli.solve_document(prob)
    cfg = cli._oracle_config(prob, samples=200)
    counts = count_factorizations(monkeypatch)
    assert cli.KINDS[prob["kind"]].check(data, prob, doc, code, cfg)[2]
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


ROOT = Path(__file__).resolve().parent.parent


def _loads(module: str, statements: str) -> bool:
    """Whether a fresh interpreter that runs ``statements`` has imported
    ``module``."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    probe = f"import sys\n{statements}\nprint({module!r} in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.splitlines()[-1] == "True"


def test_cold_cli_import_leaves_dataclasses_out():
    # The records are namedtuples; a frozen dataclass costs about 0.8 ms
    # of import time per class, so the CLI's start-up keeps them out.
    if _loads("dataclasses", "import numpy, argparse, json"):
        pytest.skip("numpy, argparse or json already imports dataclasses here")
    assert not _loads("dataclasses", "import quadgames.cli")


FILES = [str(ROOT / "fixtures" / name) for name in ("fig_trust_blue.json", "fig_duality_gap.json")]
QUAD_MIN = str(ROOT / "fixtures" / "quad_min.json")
CURVE = ["--lambda-min", "0", "--lambda-max", "2", "--steps", "3"]


def _main(argvs: list) -> str:
    return f"import quadgames.cli\nfor argv in {argvs!r}:\n    assert quadgames.cli.main(argv) == 0"


@pytest.mark.parametrize("statements, loaded", [
    ("import quadgames", False),
    (_main([["solve", f] for f in [*FILES, QUAD_MIN]]), False),
    (_main([["curve", f, *CURVE] for f in FILES]), False),
    (_main([["check", FILES[0]]]), True),
    (_main([["check", QUAD_MIN]]), True),
], ids=["import", "solve", "curve", "check", "check-quad-min"])
def test_only_check_loads_the_oracle(statements, loaded):
    # The oracle names load quadgames.oracle on first use and the command
    # line imports it only to check, so an import of the package, a solve
    # and a curve run no oracle code.
    assert _loads("quadgames.oracle", statements) == loaded


def test_console_script_is_cli_main():
    # The installed `quadgames` command runs cli.main, which the tests
    # call in process, so the CI runs the installed script only once per
    # exit code.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"quadgames": "quadgames.cli:main"}
    module, name = scripts["quadgames"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.main


ORACLE_NAMES = ("OracleConfig", "fd_gradient", "grid_minmax", "sphere_max", "verify_saddle")


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_names_resolve_on_first_use(monkeypatch, name):
    # Each name is looked up in quadgames.oracle once, then held in the
    # package namespace.
    monkeypatch.delattr(quadgames, name, raising=False)
    assert getattr(quadgames, name) is getattr(oracle, name)
    assert vars(quadgames)[name] is getattr(oracle, name)


def test_package_namespace_lists_every_public_name(monkeypatch):
    assert set(ORACLE_NAMES) <= set(quadgames.__all__) <= set(dir(quadgames))
    monkeypatch.delattr(quadgames, "verify_saddle", raising=False)
    from quadgames import verify_saddle

    assert verify_saddle is oracle.verify_saddle
    with pytest.raises(AttributeError, match="no_such_name"):
        quadgames.no_such_name


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
    # Both cut-engine checks judge by one bracket rule, and no check bound
    # is an absolute constant.
    readers = {name for name, node in checkers.items() if "_bracketed" in _names(node)}
    assert readers - {"_bracketed"} == {"_check_lagrangian", "_check_sphere_game"}
    assert not [
        c for c in ast.walk(SOURCES["cli"])
        if isinstance(c, ast.Constant) and c.value in (1e-3, 5e-3)
    ]


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
    # The trust region and MAXMIN share one sample-and-polish routine, the
    # MAXMIN search of a game (a trust region's p = 0 game), whose power
    # step needs no curvature bound, so no function reads a spectral
    # norm; MAXMIN's polish, the lambda family's cuts and the
    # infinite-maxmin certificate share one gradient of g(w) = min over u
    # of V with the optimality certificate, the two certificates read S
    # from one _hessian, and every dimension cap is in _check_dims.
    functions = {
        node.name: node for node in SOURCES["oracle"].body
        if isinstance(node, ast.FunctionDef)
    }

    def readers(name):
        return {f for f, node in functions.items() if name in _names(node)} - {name}

    assert readers("POLISH_STEPS") == {"_ascend"}
    assert readers("unit_samples") == {"_ascend"}
    assert readers("_ascend") == {"sphere_max", "grid_minmax"}
    assert [a.arg for a in functions["_ascend"].args.args] == ["pq", "cfg"]
    assert "trust_region" in _names(functions["sphere_max"])
    assert readers("spectral_norm") == set()
    assert "spectral_norm" not in _names(SOURCES["oracle"])
    assert readers("_inner_gradient") == {
        "_ascend", "lagrangian_bracket", "infinite_maxmin", "sphere_certificate"
    }
    assert readers("_hessian") == {"infinite_maxmin", "sphere_certificate"}
    # No search reads a claimed point, and every certificate reads the raw
    # data through the oracle's own g: no oracle function names a solver
    # function, the solvers' Schur reduction included.
    tree = SOURCES["oracle"]
    assert "x0" not in _names(tree)
    assert "x0" not in {a.arg for a in ast.walk(tree) if isinstance(a, ast.arg)}
    solvers = {
        node.name for module in ("game", "sphere", "minmax", "quadratic")
        for node in SOURCES[module].body if isinstance(node, ast.FunctionDef)
    }
    assert "schur_reduction" in solvers
    assert not solvers & _names(tree)
    # A cap is a raised message that names a dimension; a docstring that
    # says "dimension" is none.
    capped = {
        f for f, node in functions.items()
        for r in ast.walk(node) if isinstance(r, ast.Raise) and r.exc is not None
        for c in ast.walk(r.exc)
        if isinstance(c, ast.Constant) and "dimension" in str(c.value)
    }
    assert capped == {"_check_dims"}


def test_check_has_one_sphere_path():
    # A trust region is checked as its p = 0 MAXMIN game: one verdict owns
    # the MAXMIN search and the certificate, no check calls the trust
    # region's own sphere_max, and one reader takes the value, the
    # multiplier and the w set of the three sphere documents.
    functions = {
        node.name: node for node in SOURCES["cli"].body
        if isinstance(node, ast.FunctionDef)
    }

    def readers(name):
        return {f for f, node in functions.items() if name in _names(node)} - {name}

    assert "sphere_max" not in _names(SOURCES["cli"])
    assert readers("grid_minmax") == {"_sphere_verdict"}
    assert readers("sphere_certificate") == {"_sphere_verdict"}
    assert readers("_sphere_verdict") == {"_check_trust_region", "_check_sphere_game"}
    assert "trust_region" in _names(functions["_check_trust_region"])
    assert readers("_sphere_answer") == {"_sphere_verdict", "_check_sphere_game"}
    assert readers("_sphere_set") == {"_sphere_answer"}
    writers = {"_sset_doc", "_solve_trust_region", "_solve_sphere_game"}
    for key, reader in (("lambda_p", "_sphere_answer"), ("lambda0", "_sphere_answer"),
                        ("representative", "_sphere_set"), ("radius_residual", "_sphere_set")):
        read = {
            f for f, node in functions.items() for c in ast.walk(node)
            if isinstance(c, ast.Constant) and c.value == key
        }
        assert read - writers == {reader}, key


def test_one_stationary_point_per_multiplier():
    # The reduction's ``at`` is the one evaluation at a multiplier and
    # Secular.on_sphere the one set on the sphere; minmax reaches no
    # private helper of another module, and only the lambda family tests
    # finiteness: MINMAX's solve has already put lambda0 at or above ||S||.
    tree = SOURCES["minmax"]
    modules = {name for module, name in _imports(tree) if name in SOURCES}
    private = [
        (module, name) for module, name in _imports(tree)
        if module in SOURCES and name.startswith("_")
    ]
    private += [
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert private == []

    def callers(modules, name):
        """The functions of ``modules`` that call ``name``, each with its
        number of calls."""
        return Counter(
            f.name for module in modules for f in ast.walk(SOURCES[module])
            if isinstance(f, ast.FunctionDef) for c in ast.walk(f)
            if isinstance(c, ast.Call) and name in _names(c.func)
        )

    assert callers(SOURCES, "sphere_intersect") == Counter({"on_sphere": 1})
    assert set(callers(("game", "minmax"), "finite")) == {"duality_report", "lambda_curve"}


BOUNDS = {
    "RANK_EPS": 1e-12, "TOL": 1e-9, "ROUNDING": 1e-12, "BRACKET": 1e-8,
    "CUT_STOP": 1e-10, "SECULAR_STOP": 4.0 * np.finfo(float).eps,
    "IMAG_TOL": 1e-8, "HARD_CASE_BAND": 1e-6,
}


def test_one_norm_in_linalg():
    # Every module measures with linalg's norm, which is exact past the
    # overflow and below the underflow of a square: no other module calls
    # np.linalg.norm, and the one math.hypot left is _convex_min's 2 x 2
    # eigenvalue gap, whose bits feed the printed MINMAX bracket.
    for module, tree in SOURCES.items():
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "norm"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
        ]
        assert module == "linalg" or calls == [], module
    hypot = {
        (module, node.name) for module, tree in SOURCES.items()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        and "hypot" in _names(node)
    }
    assert hypot == {("oracle", "_convex_min")}
    assert "_norm" not in _names(SOURCES["linalg"])


def test_one_rounding_model_in_linalg():
    # Every bound of the package and both size rules are defined once, in
    # linalg: no other module writes a tolerance literal (a float with
    # 0 < |x| < 1e-3) or reads the machine epsilon, binds a bound's name
    # but by importing it from linalg, or defines a size rule.
    for module, tree in SOURCES.items():
        if module == "linalg":
            continue
        small = [
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < abs(node.value) < 1e-3
        ]
        assert small == [] and "finfo" not in _names(tree), module
        bound = {
            target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        }
        assert not bound & set(BOUNDS), module
        assert {name for _, name in _imports(tree)} & set(BOUNDS) <= {
            name for source, name in _imports(tree) if source == "linalg"
        }, module
        functions = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert not {f for f in functions if f.endswith("size")}, module
    assert {name: getattr(linalg, name) for name in BOUNDS} == BOUNDS
    assert oracle.ROUNDING is linalg.ROUNDING
    # verify_saddle sizes its own bound: ROUNDING of V's terms at the
    # draws' spread, with no tolerance to pass in.
    saddle = next(
        node for node in SOURCES["oracle"].body
        if isinstance(node, ast.FunctionDef) and node.name == "verify_saddle"
    )
    assert [a.arg for a in saddle.args.args] == ["pq", "u_star", "w_star", "samples", "seed"]
    assert "ROUNDING" in _names(saddle) and "TOL" not in _names(saddle)
    assert {"data_size", "term_size"} <= _names(SOURCES["linalg"])
