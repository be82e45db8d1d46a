"""What a gapfree process loads: the package imports a submodule when one of
its names is first used, and the CLI binds the names its subcommand calls
when it runs, so a process imports only the modules that subcommand needs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapfree as gf
from gapfree import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _python(code: str, *argv: str, cwd: Path | None = None) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


# runs the CLI in a fresh process, then prints its exit code and the gapfree
# modules it loaded
_RUN = """
import sys
from gapfree.cli import run
code = run(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("gapfree")))
"""

BASE = {"gapfree", "gapfree.cli", "gapfree.errors", "gapfree.graph", "gapfree.colorings"}
FOOTPRINT = {
    "verify": BASE,
    "oracle": BASE | {"gapfree.search", "gapfree.chromatic", "gapfree.oracle"},
    # a factor coloring read from a file: no oracle, and no families
    "construct": BASE | {"gapfree.search", "gapfree.chromatic", "gapfree.products",
                         "gapfree.constructions"},
}


def test_subcommands_import_only_what_they_run(tmp_path):
    gf.write_edge_list(tmp_path / "p4.g", gf.generate("P", 4))
    gf.write_edge_list(tmp_path / "c4.g", gf.generate("C", 4))
    gf.write_coloring(tmp_path / "p4.col", gf.generate("P", 4), gf.EdgeColoring((1, 2, 1)))
    runs = [
        ("construct", "--theorem", "t12", "--left", "p4.g", "--left-coloring", "p4.col",
         "--right", "c4.g", "--out", "t12.col", "--product-out", "t12.g"),
        ("verify", "t12.g", "t12.col"),
        ("oracle", "p4.g", "--t", "2"),
    ]
    for argv in runs:
        *_, last = _python(_RUN, *argv, cwd=tmp_path).splitlines()
        code, *loaded = last.split()
        assert code == "0", argv
        assert set(loaded) == FOOTPRINT[argv[0]], argv


def test_package_import_loads_no_submodule():
    loaded = _python("import sys, gapfree; "
                     "print(*(m for m in sys.modules if m.startswith('gapfree')))")
    assert loaded.split() == ["gapfree"]


def test_whole_package_leaves_dataclasses_out():
    # importing gapfree.cli loads no submodule now, so resolve every public
    # name: neither dataclasses, typing nor inspect comes with any of them
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, gapfree, gapfree.cli; "
         "[getattr(gapfree, name) for name in gapfree.__all__]; "
         "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_package_oracle_is_the_function_in_any_import_order():
    # importing the submodule gapfree.oracle sets the package attribute of
    # that name; the package still hands out the function
    orders = [
        "import gapfree.oracle",
        "import gapfree; gapfree.oracle; import gapfree.oracle",
        "from gapfree.oracle import oracle",
        "import gapfree.cli, gapfree.oracle; gapfree.cli.oracle",
        "from gapfree import oracle; import gapfree.oracle",
    ]
    for order in orders:
        out = _python(f"{order}\nimport gapfree, sys\n"
                      "print(gapfree.oracle is sys.modules['gapfree.oracle'].oracle)")
        assert out.strip() == "True", order
    assert gf.oracle is importlib.import_module("gapfree.oracle").oracle


def test_tracer_targets_resolve_to_library_functions():
    # the benchmark's tracer reads and replaces these names on their modules
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for module_name, name, *_ in tracing.TARGETS:
        value = getattr(importlib.import_module(module_name), name)
        assert value.__module__.startswith("gapfree."), (module_name, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, value.__name__) is value, (module_name, name)


def test_a_wrapper_set_before_run_is_the_one_called(tmp_path):
    # set on a fresh gapfree.cli, before any name is bound there: run() keeps it
    gf.write_edge_list(tmp_path / "p4.g", gf.generate("P", 4))
    gf.write_coloring(tmp_path / "p4.col", gf.generate("P", 4), gf.EdgeColoring((1, 2, 1)))
    out = _python(
        "import sys, gapfree.cli\n"
        "from gapfree.colorings import verify_interval\n"
        "calls = []\n"
        "def counted(*args):\n"
        "    calls.append(args)\n"
        "    return verify_interval(*args)\n"
        "gapfree.cli.verify_interval = counted\n"
        "code = gapfree.cli.run(sys.argv[1:])\n"
        "print(code, len(calls), gapfree.cli.verify_interval is counted)\n",
        "verify", "p4.g", "p4.col", cwd=tmp_path)
    assert out.splitlines()[-1] == "0 1 True"


def test_a_subcommand_parser_helps_as_the_whole_one(capsys):
    # run() builds only the parser of the subcommand its argv names
    for name in cli._COMMANDS:
        helps = []
        for parser in (cli.build_parser(), cli.build_parser(name)):
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--help"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1], name
