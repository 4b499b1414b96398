"""Each CLI subcommand loads only the layers it calls, and the package's
lazy exports resolve to the objects their modules define.

The import checks run `cli.main` in a fresh interpreter without bytecode
caching, as a command-line run is, and read which `diskcontact.*`
modules are loaded afterwards.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import diskcontact
from diskcontact import cli, suites
from diskcontact.divset import ds_to_json, enumerate_objects

SRC = Path(diskcontact.__file__).resolve().parent.parent
HEAVY = {"kom", "functor", "algebra", "gf2", "reflection"}

_LOADED_AFTER_MAIN = """
import json, sys
from diskcontact.cli import main
code = main(sys.argv[1:])
loaded = sorted(m.partition(".")[2] for m in sys.modules if m.split(".")[0] == "diskcontact")
print(json.dumps({"code": code, "loaded": loaded}))
"""


def loaded_after(*argv: str) -> set[str]:
    """The diskcontact submodules loaded by one CLI run in a new process
    ("" stands for the package itself)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_MAIN, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return set(result["loaded"])


def test_enumerate_loads_divset_alone():
    loaded = loaded_after("enumerate", "--n", "6", "--e", "3", "--format", "count")
    assert loaded == {"", "cli", "divset", "errors"}


def test_hom_skips_the_complex_layers():
    g, g2 = (json.dumps(ds_to_json(x)) for x in enumerate_objects(4, 2)[:2])
    loaded = loaded_after("hom", "--src", g, "--dst", g2)
    assert "homs" in loaded
    assert not loaded & (HEAVY | {"suites"})


def test_homs_suite_skips_the_complex_layers():
    loaded = loaded_after("verify", "--suite", "homs", "--n", "4", "--e", "2")
    assert {"suites", "homs", "bypass"} <= loaded
    assert not loaded & HEAVY


@pytest.mark.parametrize("name", diskcontact.__all__)
def test_export_is_the_object_its_module_defines(name):
    module = import_module(f"diskcontact.{diskcontact._EXPORTS[name]}")
    got = getattr(diskcontact, name)
    if name == module.__name__.rpartition(".")[2]:
        assert got is module
    else:
        assert got is getattr(module, name)
        assert name not in vars(diskcontact)  # read from its module on every access
        if callable(got):
            assert got.__module__ == module.__name__


def test_dir_lists_every_export():
    assert set(diskcontact.__all__) <= set(dir(diskcontact))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diskcontact.no_such_name


def test_cli_suite_names_are_the_suites():
    assert cli.SUITE_NAMES == tuple(suites.SUITES)
