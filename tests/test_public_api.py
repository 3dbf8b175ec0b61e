"""The names pntavg exports: each one resolves to an attribute of the
package, on first access, from the one submodule that defines it.  Each is
used by a command or a check, except three: iterated_average and
explicit_formula_residual are called only by the benchmark and the tests,
and dirichlet_perron_check by nothing yet."""

import ast
import os
import pathlib
import subprocess
import sys
from dataclasses import fields
from inspect import signature

import pytest

import pntavg

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC = [
    "IteratedAverage",
    "PerronResult",
    "RangeSummary",
    "ZeroSumResult",
    "build_lambda_table",
    "dirichlet_perron_check",
    "error_series",
    "explicit_formula_residual",
    "gamma_square_tail",
    "iterated_average",
    "lemma1_error_bound",
    "load_zeros",
    "perron_integral",
    "range_summary",
    "zero_sum",
]


def test_public_names():
    assert sorted(pntavg.__all__) == PUBLIC
    assert [n for n in PUBLIC if getattr(pntavg, n, None) is None] == []


def test_layers_hand_out_plain_values():
    """The ordinates are a plain array, an average is its order and values,
    and a prefix sum is a new array: no wrapper, no second input route."""
    from pntavg import accum, averaging, zeros

    assert [f.name for f in fields(averaging.IteratedAverage)] == ["order", "values"]
    assert list(signature(zeros.load_zeros).parameters) == ["path"]
    assert list(signature(accum.neumaier_prefix_sum).parameters) == ["values"]


def test_dir_lists_every_export():
    assert set(PUBLIC) <= set(dir(pntavg))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pntavg import *", namespace)
    assert sorted(n for n in namespace if not n.startswith("__")) == PUBLIC


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="module 'pntavg' has no attribute 'no_such_name'"):
        pntavg.no_such_name  # noqa: B018


LAYERS = {"pntavg.averaging", "pntavg.zeros", "pntavg.perron", "mpmath"}


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (["-c", "import pntavg.cli"], {"pntavg.sieve"}, LAYERS | {"dataclasses"}),
        (["-m", "pntavg.cli", "sieve", "--n-max", "100"], {"pntavg.sieve"},
         LAYERS | {"dataclasses"}),
        (["-m", "pntavg.cli", "tables", "--n-max", "100", "--allow-partial"],
         {"pntavg.averaging"}, LAYERS - {"pntavg.averaging"}),
        (["-m", "pntavg.cli", "zerosum", "--zeros", str(ROOT / "data" / "zeros_2000.txt"),
          "--x", "10000", "--T", "500"], {"pntavg.zeros"}, LAYERS - {"pntavg.zeros"}),
        (["-m", "pntavg.cli", "perron", "--a", "1", "--T", "100"], {"pntavg.perron"},
         {"pntavg.averaging", "pntavg.zeros"}),
    ],
    ids=["import", "sieve", "tables", "zerosum", "perron"],
)
def test_cli_loads_only_what_its_command_runs(argv, loaded, absent):
    """Importing the CLI, or running a command, imports only the modules
    that command calls: zeros only to read zeros, perron (with mpmath) only
    for a Perron integral, and averaging (with dataclasses) only for an
    average.  -X importtime names on stderr every module the child imports,
    so every module it puts in sys.modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        check=True,
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert loaded <= imported
    assert absent & imported == set()


def package_imports(tree):
    """The package modules that the imports of a module's syntax tree name:
    m for from . import m, from .m import f, from pntavg.m import f and
    import pntavg.m."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "pntavg":
                    yield rest.split(".")[0] or "__init__"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                head, _, module = module.partition(".")
                if head != "pntavg":
                    continue
            if module:
                yield module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_only_cli_composes_the_layers():
    """Every module of the package but cli and __init__ imports from the
    package _args and accum alone, lazily or not, so no library layer loads
    another."""
    found = [
        (path.stem, module)
        for path in sorted((ROOT / "src" / "pntavg").glob("*.py"))
        if path.stem not in {"cli", "__init__"}
        for module in package_imports(ast.parse(path.read_text(encoding="utf-8")))
        if module not in {"_args", "accum"}
    ]
    assert found == []
