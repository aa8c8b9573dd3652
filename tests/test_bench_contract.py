"""What the traced benchmark in ``perfbench/`` needs from the package.

The benchmark patches functions by name and reads their arguments and cache
statistics, so renaming one of them breaks it without breaking any other
test.  These checks load ``perfbench/spans.py`` by path and change nothing
under ``perfbench/``.
"""

import importlib
import importlib.util
import pathlib

from htc import cli, transforms
from htc.checker import EquivReport

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for module_name, attr, _ in load_spans().TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_assignment_caches_are_bounded_and_report_their_size():
    for name in ("phi", "def_of", "assignment_formula"):
        info = getattr(transforms, name).cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, name


def test_strong_check_passes_contexts_by_keyword(monkeypatch, tmp_path, capsys):
    calls = []

    def recorder(*args, **kwargs):
        calls.append(kwargs)
        return EquivReport("equal", projection=("p",))

    monkeypatch.setattr(cli, "strong_equiv_sampled", recorder)
    f = tmp_path / "p.lc"
    f.write_text("#bool p. p.\n")
    assert cli.main(["check", str(f), str(f), "--strong"]) == 0
    capsys.readouterr()
    assert calls and all("contexts" in kwargs for kwargs in calls)
