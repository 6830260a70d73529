"""The package surface: its public names and submodules, loaded on use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import banakh

LAYERS = ("values", "monoid_algebra", "graph_metric", "banakh_space",
          "banakh_group", "space_builder")


def test_every_public_name_is_its_modules_object():
    assert len(banakh.__all__) == len(set(banakh.__all__)) == 79
    for name in banakh.__all__:
        obj = getattr(banakh, name)
        homes = [m for m in LAYERS
                 if importlib.import_module(f"banakh.{m}").__dict__
                 .get(name, None) is obj]
        assert homes, name
        defined = getattr(obj, "__module__", None)
        if callable(obj):
            assert getattr(sys.modules[defined], name) is obj, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from banakh import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(banakh.__all__)
    for name in banakh.__all__:
        assert namespace[name] is getattr(banakh, name)


def test_dir_lists_the_public_names_and_the_submodules():
    listed = set(dir(banakh))
    assert set(banakh.__all__) <= listed
    assert {*LAYERS, "serialize", "cli", "__version__"} <= listed


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        banakh.no_such_name
    assert not hasattr(banakh, "cli_main")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        banakh.cli.no_such_name


_FRESH = """
import json, sys
import banakh
before = sorted(m for m in sys.modules if m.startswith("banakh."))
module = banakh.graph_metric
value = banakh.SurdValue(2)
print(json.dumps([before, module.__name__, str(value),
                  sorted(m for m in sys.modules if m.startswith("banakh."))]))
"""


def test_a_submodule_and_a_name_load_on_first_use():
    src = Path(banakh.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          stdin=subprocess.DEVNULL, timeout=60)
    before, name, value, after = json.loads(proc.stdout)
    assert before == []
    assert (name, value) == ("banakh.graph_metric", "2")
    assert after == ["banakh.graph_metric", "banakh.monoid_algebra",
                     "banakh.values"]
