"""The package root resolves its public names on first access."""

import importlib
import subprocess
import sys

import pytest

import adjreal


@pytest.mark.parametrize("name", adjreal.__all__)
def test_public_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"adjreal.{adjreal._MODULE_OF[name]}")
    assert getattr(adjreal, name) is getattr(module, name)
    assert name in vars(adjreal)  # cached after the first access


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from adjreal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(adjreal.__all__)


def test_dir_covers_all_and_unknown_names_raise():
    assert set(adjreal.__all__) <= set(dir(adjreal))
    with pytest.raises(AttributeError, match="nope"):
        adjreal.nope
    with pytest.raises(ImportError):
        exec("from adjreal import nope", {})


def test_importing_the_package_loads_no_module():
    code = "import sys, adjreal; print(sorted(m for m in sys.modules if m.startswith('adjreal')))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "['adjreal']"
