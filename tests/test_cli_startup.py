"""What a command-line run loads: the package exports its names lazily and
each command imports only the modules it uses."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import osimplex

SRC = os.path.dirname(os.path.dirname(os.path.abspath(osimplex.__file__)))


def _loaded_by(code):
    """The modules that code loads when run in a fresh interpreter that
    imports osimplex from SRC."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    script = (
        f"import json, sys\nbefore = set(sys.modules)\n{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_command_modules():
    loaded = _loaded_by("import osimplex.cli")
    assert "osimplex.cli" in loaded
    assert not {"dataclasses", "osimplex.nu", "osimplex.oriental"} & loaded


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ["check", "(0,1) - (1,1) + (1,2)", "--n", "2"],
            {"osimplex.nu", "osimplex.oriental", "osimplex.chains"},
        ),
        (["factor", "(0,1) - (1,1) + (1,2)", "--n", "2", "--verify"], {"osimplex.nu"}),
        (["eval", "F_0((0,1),(1,2))", "--n", "2"], {"osimplex.nu", "osimplex.chains"}),
        (
            ["compose", "(0,1) - (1,1) + (1,2)", "(0)", "--n", "2"],
            {"osimplex.nu", "osimplex.chains", "osimplex.oriental"},
        ),
        (["enumerate", "1"], {"osimplex.oriental"}),
        (["atoms", "1"], {"osimplex.oriental"}),
    ],
)
def test_commands_load_only_what_they_use(argv, absent):
    loaded = _loaded_by(f"from osimplex.cli import main\nassert main({argv!r}) == 0")
    assert not ({"dataclasses"} | absent) & loaded


def test_exports_are_the_submodules_objects():
    assert osimplex.__all__ == sorted(osimplex.__all__)
    for name in osimplex.__all__:
        value = getattr(osimplex, name)
        defining = importlib.import_module(value.__module__)
        assert defining.__name__.startswith("osimplex.")
        assert getattr(defining, name) is value


def test_oriental_exports_the_membership_of_zdelta():
    from osimplex import oriental, zdelta

    for name in ("MembershipResult", "check_membership", "is_oriental_morphism"):
        assert getattr(oriental, name) is getattr(zdelta, name) is getattr(osimplex, name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from osimplex import *", namespace)
    for name in osimplex.__all__:
        assert namespace[name] is getattr(osimplex, name)
    assert set(osimplex.__all__) <= set(dir(osimplex))
    with pytest.raises(AttributeError):
        osimplex.no_such_name
