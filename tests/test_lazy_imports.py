"""The package and the CLI load only the modules that a run uses.

Each hygiene check runs in a fresh child interpreter and compares its
``sys.modules`` with that of a bare child (``pass``), so modules that the
interpreter's own start-up loads are left out.
"""
from __future__ import annotations

import importlib

import pytest

from conftest import run_child
from graph_helpers import gen_petersen
import drfwl
from drfwl.graph import gen_cycle

ALGORITHMS = {"drfwl.counting", "drfwl.refine", "drfwl.oracle"}


def loaded(body: str) -> set[str]:
    """Modules a child holds after running ``body``, less a bare child's."""

    def modules(code: str) -> set[str]:
        script = f"{code}\nimport sys\nprint('\\n'.join(sys.modules))\n"
        return set(run_child("-c", script).stdout.split())

    return modules(body) - modules("pass")


def test_importing_the_cli_loads_no_algorithm_and_no_dataclasses():
    extra = loaded("import drfwl.cli")
    assert "drfwl.cli" in extra
    assert not extra & (ALGORITHMS | {"dataclasses", "inspect"})


def test_importing_the_package_loads_no_submodule():
    extra = loaded("import drfwl")
    assert "drfwl" in extra
    assert not {m for m in extra if m.startswith("drfwl.")}


def test_reading_a_name_loads_only_its_home_module():
    extra = loaded("import drfwl\ndrfwl.Graph")
    assert "drfwl.graph" in extra
    assert not extra & ALGORITHMS


@pytest.mark.parametrize(
    "argv, needed, unused",
    [
        (["count", "{a}", "--output", "{out}"], {"drfwl.counting"}, {"drfwl.refine", "drfwl.oracle"}),
        (
            ["distinguish", "{a}", "{b}", "--output", "{out}"],
            {"drfwl.refine"},
            {"drfwl.counting", "drfwl.oracle"},
        ),
        (
            ["oracle", "--motifs", "cycle5", "{a}", "--output", "{out}"],
            {"drfwl.oracle"},
            {"drfwl.counting", "drfwl.refine"},
        ),
        (["gen", "cycle", "5", "--out", "{out}"], set(), ALGORITHMS),
    ],
    ids=["count", "distinguish", "oracle", "gen"],
)
def test_a_subcommand_loads_only_its_module(argv, needed, unused, tmp_path):
    a, b = tmp_path / "c10.el", tmp_path / "petersen.el"
    a.write_text(gen_cycle(10).to_edge_list())
    b.write_text(gen_petersen().to_edge_list())
    out = tmp_path / "out"
    argv = [arg.format(a=a, b=b, out=out) for arg in argv]
    extra = loaded(f"from drfwl.cli import main\nassert main({argv!r}) == 0")
    assert out.read_text()
    assert needed <= extra
    assert not extra & unused


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from drfwl import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(drfwl.__all__)


@pytest.mark.parametrize("name", drfwl.__all__)
def test_each_name_is_its_home_module_object(name):
    value = getattr(drfwl, name)
    assert value.__module__.startswith("drfwl.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_covers_all_before_any_name_is_read():
    extra = loaded("import drfwl\nassert set(drfwl.__all__) <= set(dir(drfwl))")
    assert not {m for m in extra if m.startswith("drfwl.")}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        drfwl.no_such_name
    assert getattr(drfwl, "no_such_name", None) is None
    with pytest.raises(ImportError):
        exec("from drfwl import no_such_name", {})
