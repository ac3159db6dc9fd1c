"""What each entry point loads.  Every check runs in a fresh interpreter and
reads sys.modules, which is deterministic where a start-up time is not."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run a command in-process and print the names in sys.modules
LOADED_BY = """\
import contextlib, io, json, sys
from dwlink.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""

SUBMODULES = ("gf", "dw", "congruence", "holonomy")


def run_child(code: str, *args: str) -> str:
    # -S: no site hooks, so that nothing outside the package is preloaded
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(*argv: str) -> set:
    return set(json.loads(run_child(LOADED_BY, *argv)))


def test_cli_import_loads_no_command_module():
    loaded = set(json.loads(run_child(
        "import json, sys; import dwlink.cli; print(json.dumps(sorted(sys.modules)))"
    )))
    assert "dwlink.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    assert not loaded & {f"dwlink.{m}" for m in SUBMODULES}


def test_frobcheck_loads_no_group():
    loaded = loaded_by("frobcheck", "-p", "3", "-e", "2", "-n", "2", "--trials", "2")
    assert "dwlink.gf" in loaded and "dwlink.groups" not in loaded


def test_split_frobcheck_loads_no_pool():
    # the benchmark instance, split where two CPUs are usable, forks with os
    # alone: no pool, pickling, thread or subprocess module
    loaded = loaded_by("frobcheck", "-p", "3", "-e", "5", "-n", "6", "--trials", "1500")
    assert not loaded & {"multiprocessing", "concurrent", "pickle", "threading", "subprocess"}


def test_homs_loads_no_field_or_congruence():
    loaded = loaded_by("homs", "--braid", "2: 1 1", "--group", "symmetric:3", "--count")
    assert "dwlink.holonomy" in loaded
    assert not loaded & {"dwlink.gf", "dwlink.congruence"}


def test_verify_loads_no_field():
    # verify computes in no field, so a change to gf cannot move its time,
    # and it sizes its sweep in holonomy, so it needs no counting table
    loaded = loaded_by(
        "verify", "--braid", "2: 1", "--group", "quaternion:8", "-p", "3", "-k", "1"
    )
    assert {"dwlink.congruence", "dwlink.holonomy"} <= loaded
    assert not loaded & {"dwlink.gf", "dwlink.dw"}


def test_sweep_loads_no_field_or_table(tmp_path):
    catalog = tmp_path / "catalog.json"
    catalog.write_text('[{"braid": "2: 1", "p": 3, "k": 1, "group": "cyclic:2"}]')
    loaded = loaded_by("sweep", "--catalog", str(catalog))
    assert "dwlink.congruence" in loaded
    assert not loaded & {"dwlink.gf", "dwlink.dw"}


def test_package_names_resolve_live_to_their_home_objects():
    # 29 public names, as when the package imported every submodule
    run_child(
        "import sys, dwlink\n"
        "assert len(dwlink.__all__) == 29 and dwlink.__all__ == sorted(dwlink.__all__)\n"
        "for name in dwlink.__all__:\n"
        "    obj = getattr(dwlink, name)\n"
        "    assert obj is getattr(sys.modules[obj.__module__], name), name\n"
        "    assert name not in vars(dwlink), name  # looked up, never copied\n"
    )


def test_dir_star_import_and_unknown_name():
    run_child(
        "import dwlink\n"
        "assert set(dwlink.__all__) <= set(dir(dwlink))\n"
        "namespace = {}\n"
        "exec('from dwlink import *', namespace)\n"
        "assert set(namespace) - {'__builtins__'} == set(dwlink.__all__)\n"
        "assert namespace['symmetric'] is dwlink.groups.symmetric\n"
        "try:\n"
        "    dwlink.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )
