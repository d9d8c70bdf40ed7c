"""Every public function is reached by the documented entry points, or says why not.

README's library example, README's command block (through ``cli.main``,
in a temporary directory) and the three demos run in this process under
``sys.setprofile``, which records the code object of every Python call.
Each function in ``crosstnn.__all__`` must be among them or be named in
``UNREACHED`` with its reason; a name there that is reached fails too, so
the list stays exact.  Classes are not checked: dataclass methods are
generated and have no source file.
"""

import contextlib
import inspect
import io
import runpy
import sys

import crosstnn
from conftest import ROOT, readme_commands, readme_library_blocks
from crosstnn.cli import main

UNREACHED = {
    "amazing_entry": "the carries generators' test reference",
    "determinant": "wrapped by the benchmark tracer",
    "minor": "wrapped by the benchmark tracer",
    "materialize_atom": "wrapped by the benchmark tracer",
    "exchange_matrix": "public API with no command",
    "matrix_to_doc": "public API with no command",
    "matrix_from_doc": "reached only by the benchmark",
    "network_from_doc": "reached only by the benchmark",
    "sign_on_ray": "reached only by the benchmark",
}


def _run_entry_points() -> None:
    namespace: dict = {}
    for block in readme_library_blocks():
        exec(block, namespace)
    for argv in readme_commands():
        assert main(argv[1:]) == 0, argv
    for path in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def test_public_functions_are_reached(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["demo"])
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            _run_entry_points()
    finally:
        sys.setprofile(previous)

    functions = {
        name: obj for name in crosstnn.__all__ if inspect.isfunction(obj := getattr(crosstnn, name))
    }
    assert set(UNREACHED) <= set(functions)
    unreached = {name for name, f in functions.items() if f.__code__ not in reached}
    assert unreached - set(UNREACHED) == set(), "public functions no entry point reaches"
    assert set(UNREACHED) - unreached == set(), "allowlisted functions that are reached"
