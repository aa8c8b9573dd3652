"""What the traced benchmark in ``perfbench/`` needs from the package.

The benchmark patches functions by name and reads their arguments and cache
statistics, so renaming one of them breaks it without breaking any other
test; and it fails an operation whose stdout differs from the digest frozen
in ``perfbench/digests.json``.  These checks load the benchmark's modules by
path and change nothing under ``perfbench/``.
"""

import importlib
import importlib.util
import json
import pathlib
import sys

import pytest

from htc import cli, transforms

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_registered(monkeypatch, name):
    """Load ``perfbench/<name>.py`` as module ``name``, registered while the
    test runs (its dataclasses and its importers look it up there)."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for module_name, attr, _ in load_spans().TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_assignment_caches_are_bounded_and_report_their_size():
    caches = [(transforms, n) for n in ("phi", "def_of", "assignment_formula")]
    for module, name in caches:
        info = getattr(module, name).cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, name


def test_cli_parser_is_built_once_per_process(tmp_path, capsys):
    cli._build_parser.cache_clear()
    f = tmp_path / "p.lc"
    f.write_text("#bool p. p.\n")
    assert cli.main(["solve", str(f)]) == 0
    assert cli.main(["solve", str(f), "--ht"]) == 0
    capsys.readouterr()
    assert cli._build_parser.cache_info().misses == 1


def install_tracer(monkeypatch):
    """A ``spans.Tracer`` installed as a traced benchmark pass installs it;
    every module attribute it rebinds is restored when the test ends."""
    import concurrent.futures

    spans = load_spans()
    originals = {
        id(getattr(importlib.import_module(m), attr)) for m, attr, _ in spans.TRACED
    }
    originals.add(id(concurrent.futures.ProcessPoolExecutor))
    modules = [m for n, m in sys.modules.items() if n == "htc" or n.startswith("htc.")]
    for mod in modules + [concurrent.futures]:
        for key, value in list(vars(mod).items()):
            if id(value) in originals:
                monkeypatch.setattr(mod, key, value)
    tracer = spans.Tracer()
    tracer.install()
    return tracer


@pytest.mark.parametrize("flags, span", [((), "semantics.stable"), (("--ht",), "semantics.ht")])
def test_solve_reads_models_through_the_traced_names(
    monkeypatch, tmp_path, capsys, flags, span
):
    # the per-layer semantics.stable_s, semantics.ht_s and candidates_per_s
    # come from these two spans; a solve that bypassed them would read 0
    tracer = install_tracer(monkeypatch)
    f = tmp_path / "pq.lc"
    f.write_text("#bool p, q.\np | q.\n")
    assert cli.main(["solve", str(f), *flags]) == 0
    capsys.readouterr()
    calls = {name: n for name, n in tracer.calls.items() if name.startswith("semantics.")}
    assert calls == {span: 1}
    assert tracer.incl_s[span] > 0
    assert tracer.counts["semantics.candidates_scanned"] == 4  # (u or t) for p and q


def test_strong_checks_print_the_same_under_the_tracer(monkeypatch, tmp_path, capsys):
    # the bench's check --strong and delta-faithfulness operations, untraced
    # and then under the tracer a traced pass installs: same exit, same bytes
    ycond = ROOT / "programs" / "ycond.lc"
    delta = tmp_path / "ycond.delta.lc"
    assert cli.main(["translate", str(ycond), "--pass", "delta"]) == 0
    delta.write_text(capsys.readouterr().out)
    operations = [
        ["check", str(ycond), str(delta), "--stable", "--project", "y", "--strong"],
        ["props", "--suite", "delta-faithfulness", "--count", "3"],
    ]
    untraced = []
    for argv in operations:
        assert cli.main(argv) == 0
        untraced.append(capsys.readouterr().out)
    tracer = install_tracer(monkeypatch)
    for argv, expected in zip(operations, untraced):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected
    assert tracer.calls["cli.main"] == len(operations)


@pytest.mark.parametrize("jobs", [1, 2])
def test_small_operations_print_their_frozen_stdout(monkeypatch, tmp_path, jobs):
    # passrun and workloads import their siblings by plain module name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = load_registered(monkeypatch, "workloads")
    passrun = load_registered(monkeypatch, "passrun")
    digests = passrun.load_digests()
    for workload in workloads.WORKLOADS:
        inputs, ops = workloads.build(workload, 1, str(ROOT), small=True)
        work = tmp_path / f"{workload}-{jobs}"
        contents = passrun.write_inputs(inputs, work)
        _, failures, _, _, _ = passrun.run_ops(ops, inputs, contents, work, jobs, digests)
        assert ops and failures == [], (workload, failures)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("family, size", [("choice", (4,)), ("intchoice", (3, 2)), ("dhead", (3,))])
def test_mid_sized_families_print_their_closed_forms(
    monkeypatch, tmp_path, capsys, family, size, jobs
):
    # larger than the small inputs above: choice and intchoice have Horn
    # reducts, dhead's disjunctive heads take the mask walk
    inp = getattr(load_registered(monkeypatch, "inputs"), family)(*size, 0)
    path = tmp_path / f"{inp.name}.lc"
    path.write_text(inp.text, encoding="utf-8")
    argv = ["solve", str(path), "--jobs", str(jobs)]
    assert cli.main(argv) == 0
    stable = json.loads(capsys.readouterr().out)["stable_models"]
    assert sorted(tuple(sorted(m.items())) for m in stable) == sorted(inp.expect)
    assert cli.main(argv + ["--ht"]) == 0
    ht = json.loads(capsys.readouterr().out)["ht_models"]
    assert len(ht) == inp.ht_count
    totals = {tuple(sorted(m["t"].items())) for m in ht if m["h"] == m["t"]}
    assert inp.expect <= totals
