"""The names the benchmark's traced run patches: ``bench/spans.py`` reads some of
the program's attributes by name (``Matrix.apply``, ``Matrix.__matmul__``,
``Residual.collect``, ``search._System.solve``, ``exact._bareiss_echelon``), so
renaming or deleting one breaks every ``--trace`` run.  This installs the
tracer on every module and checks that it finds them and puts them all back."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from bihomlie.bundles import Residual
from bihomlie.exact import Matrix

MODULES = ("exact", "bundles", "checks", "constructions", "equivalence", "search", "cli")


def _spans():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_on_every_module_and_uninstalls():
    modules = [importlib.import_module(f"bihomlie.{name}") for name in MODULES]
    exact, search = modules[MODULES.index("exact")], modules[MODULES.index("search")]
    owners = [*modules, Matrix, Residual, search._System, Fraction]
    before = {owner: dict(vars(owner)) for owner in owners}
    read_by_name = [(Matrix, "apply"), (Matrix, "__matmul__"), (Residual, "collect"), (search._System, "solve"),
                    (exact, "_bareiss_echelon"), (Fraction, "__new__")]
    tracer = _spans().Tracer()
    try:
        tracer.install()
        assert all(vars(owner)[name] is not before[owner][name] for owner, name in read_by_name)
    finally:
        tracer.uninstall()
    for owner, names in before.items():
        now = vars(owner)
        assert all(now.get(name) is value for name, value in names.items()), owner
