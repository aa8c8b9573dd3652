import json
import pathlib
import random
import subprocess
import sys

import pytest

from htc.checker import gen_formula, gen_program
from htc.cli import main
from htc.parser import parse_theory, pretty_print
from htc.semantics import Valuation, ht_models, stable_models, valuation_key
from htc.syntax import TRUE, Theory, desugar_theory, make_theory, nodes

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSolve:
    def test_no_stable_models(self, capsys):
        doc = run_json(capsys, "solve", str(PROGRAMS / "vicious.lc"))
        assert doc == {"stable_models": []}

    def test_unique_model_with_boolean(self, capsys):
        doc = run_json(capsys, "solve", str(PROGRAMS / "ysum.lc"))
        assert doc == {"stable_models": [{"p": True, "y": 5}]}

    def test_tax_toy_total(self, capsys):
        # oracle: tax_p1 + tax_p2 = 3 + 4, the undefined tax_p3 contributes 0
        doc = run_json(capsys, "solve", str(PROGRAMS / "tax_toy.lc"))
        (model,) = doc["stable_models"]
        assert model["total_r"] == 7
        assert "tax_p3" not in model

    def test_models_limit(self, capsys, tmp_path):
        f = tmp_path / "many.lc"
        f.write_text("#int x 0..3. x >= 0.\n")
        doc = run_json(capsys, "solve", str(f), "--models", "2")
        assert len(doc["stable_models"]) == 2

    def test_ht_mode(self, capsys, tmp_path):
        f = tmp_path / "p.lc"
        f.write_text("#bool p. p.\n")
        doc = run_json(capsys, "solve", str(f), "--ht")
        assert doc == {"ht_models": [{"h": {"p": True}, "t": {"p": True}}]}

    def test_auxiliary_variables_hidden(self, capsys, tmp_path):
        f = tmp_path / "m.lc"
        f.write_text("#int x, y 0..3.\nx := 1. y := 2.\nmin{ x ; y } >= 0.\n")
        doc = run_json(capsys, "solve", str(f))
        assert doc == {"stable_models": [{"x": 1, "y": 2}]}

    MIN_PROGRAM = (
        "#int x, y 0..2.\n#bool p.\nx := 1 ; y := 2.\nx >= 1 -> p.\nmin{ x ; y } >= 0.\n"
    )

    def test_projected_models_print_in_key_order_at_every_jobs(self, capsys, tmp_path):
        # desugaring adds __min0, which sorts before x and y, so the table
        # lists the models in an order other than the printed one; pool
        # workers send back copies of TRUE, so output must not rely on its
        # identity
        f = tmp_path / "min.lc"
        f.write_text(self.MIN_PROGRAM)
        thy = parse_theory(self.MIN_PROGRAM)

        def key(v):
            if isinstance(v, dict):  # a printed model
                v = Valuation({n: (TRUE if x is True else x) for n, x in v.items()})
            return valuation_key(thy.spec, v)

        printed = {}
        for flags in ((), ("--ht",)):
            outs = set()
            for jobs in ("1", "2", "3"):
                code, out, err = run(capsys, "solve", str(f), *flags, "--jobs", jobs)
                assert code == 0, err
                outs.add(out)
            assert len(outs) == 1, flags
            printed[flags] = json.loads(outs.pop())
        stable = printed[()]["stable_models"]
        rows = [key(t) for t in stable_models(thy)]
        assert len(stable) >= 2 and rows != sorted(rows)
        assert [key(m) for m in stable] == sorted(set(rows))
        assert any(m.get("p") is True for m in stable)
        pairs = [(key(i["h"]), key(i["t"])) for i in printed[("--ht",)]["ht_models"]]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {(key(i.h), key(i.t)) for i in ht_models(thy)}

    def test_parse_error_exit_code(self, capsys, tmp_path):
        f = tmp_path / "bad.lc"
        f.write_text("#int x 0..9. x <= (y|2:p.\n")
        code, out, err = run(capsys, "solve", str(f))
        assert code == 1 and "htc:" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "no-such-file.lc")
        assert code == 1

    def test_budget_exit_code(self, capsys, tmp_path):
        f = tmp_path / "big.lc"
        f.write_text("#int a,b,c,d,e,f,g,h 0..9. a <= 1.\n")
        code, _, err = run(capsys, "solve", str(f))
        assert code == 2 and "budget" in err

    def test_budget_flag_and_env(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "small.lc"
        f.write_text("#int x 0..3. x := 1.\n")
        code, _, _ = run(capsys, "solve", str(f), "--max-interps", "3")
        assert code == 2
        monkeypatch.setenv("HTC_MAX_INTERPS", "3")
        code, _, _ = run(capsys, "solve", str(f))
        assert code == 2
        monkeypatch.setenv("HTC_MAX_INTERPS", "1000")
        code, _, _ = run(capsys, "solve", str(f))
        assert code == 0
        for value in ("abc", " "):
            monkeypatch.setenv("HTC_MAX_INTERPS", value)
            code, out, err = run(capsys, "solve", str(f))
            assert (code, out) == (1, "")
            assert err == f"htc: HTC_MAX_INTERPS must be an integer, got {value!r}\n"
        # every spec spans at least one interpretation, so a budget below 1
        # could admit nothing: it is a usage error, from the flag or the variable
        for value in ("0", "-5"):
            monkeypatch.setenv("HTC_MAX_INTERPS", value)
            code, out, err = run(capsys, "solve", str(f))
            assert (code, out) == (1, "")
            assert err == f"htc: HTC_MAX_INTERPS must be at least 1, got {value!r}\n"
        monkeypatch.delenv("HTC_MAX_INTERPS")
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", str(f), "--max-interps", value])
            assert exc.value.code == 1
            assert f"--max-interps: must be at least 1, got {value}" in capsys.readouterr().err
        # the least budget still refuses a spec over it
        g = tmp_path / "bool.lc"
        g.write_text("#bool p. p.\n")
        code, out, err = run(capsys, "solve", str(g), "--max-interps", "1")
        assert (code, out) == (2, "") and err.startswith("htc: budget exceeded: ")

    def test_removed_flags_are_usage_errors(self, capsys):
        for argv in (
            ["solve", str(PROGRAMS / "ysum.lc"), "--json"],
            ["props", "--suite", "negation", "--count", "1", "--max-interps", "9"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["props", "--suite", "negation", "--count", "-3"],
            ["solve", str(PROGRAMS / "ysum.lc"), "--models", "-1"],
            ["props", "--suite", "negation", "--jobs", "0"],
            ["solve", str(PROGRAMS / "ysum.lc"), "--jobs", "0"],
            ["translate", str(PROGRAMS / "ysum.lc"), "--pass", "desugar", "--jobs", "-4"],
            ["check", str(PROGRAMS / "ysum.lc"), str(PROGRAMS / "ysum.lc"), "--jobs", "-4"],
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at least" in captured.err

    def test_jobs_flag(self, capsys):
        a = run_json(capsys, "solve", str(PROGRAMS / "ysum.lc"), "--jobs", "2")
        b = run_json(capsys, "solve", str(PROGRAMS / "ysum.lc"))
        assert a == b

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "solve", str(PROGRAMS / "ycondp.lc"))
        _, out2, _ = run(capsys, "solve", str(PROGRAMS / "ycondp.lc"))
        assert out1 == out2


WRITER_SPEC = "#int x -2..1.\n#int y 0..2.\n#bool p, q.\n"
WRITER_AGGREGATES = ("min{ x ; y } <= 0 -> p.", "max{ x : p ; y } >= 1 | q.")


def writer_corpus(n=10, seed=48_000_003):
    """Seeded files over Booleans and a negative interval; every third holds
    a min or a max, whose auxiliary solve must not print."""
    spec = parse_theory(WRITER_SPEC).spec
    texts = [
        WRITER_SPEC + "x > 1.\n",  # no model of either kind
        WRITER_SPEC + "p | not p. x := -2 :- not p. y := 1 :- p.\n",
    ]
    for i in range(n):
        rng = random.Random(seed + i)
        thy = gen_program(rng, spec) if i % 2 else make_theory(spec, [gen_formula(rng, spec)])
        text = pretty_print(thy)
        texts.append(text + WRITER_AGGREGATES[i % 2] + "\n" if i % 3 == 0 else text)
    return texts


def old_solve_doc(thy, ht, models):
    """The listing built the direct way: every model projected onto the
    declared names, turned into a dict by to_json, deduplicated and, for
    stable models, sorted by valuation_key."""
    visible = thy.spec.variables()
    if ht:
        pairs = [(i.h.project(visible), i.t.project(visible)) for i in ht_models(thy)]
        out = [{"h": h.to_json(), "t": t.to_json()} for h, t in dict.fromkeys(pairs)]
        return {"ht_models": out[:models]}
    found = {v.project(visible) for v in stable_models(thy)}
    found = sorted(found, key=lambda v: valuation_key(thy.spec, v))
    return {"stable_models": [v.to_json() for v in found[:models]]}


class TestSolveWriter:
    """solve writes each model's JSON from its pairs; the bytes must be those
    of json.dumps(doc, sort_keys=True) on the documents of old_solve_doc."""

    @pytest.mark.parametrize("ht", [False, True])
    def test_stdout_is_the_sorted_json_dump(self, capsys, tmp_path, ht):
        f = tmp_path / "w.lc"
        kinds = set()
        for text in writer_corpus():
            f.write_text(text)
            thy = parse_theory(text)
            runs = [(None, "1"), (0, "1"), (1, "1"), (None, "2")]
            for models, jobs in runs:
                argv = ["solve", str(f), "--jobs", jobs] + ["--ht"] * ht
                if models is not None:
                    argv += ["--models", str(models)]
                code, out, err = run(capsys, *argv)
                assert code == 0, err
                assert out == json.dumps(old_solve_doc(thy, ht, models), sort_keys=True) + "\n"
            rows = [i.t for i in ht_models(thy)] if ht else stable_models(thy)
            pairs = [p for t in rows for p in t.items()]
            kinds.add("empty" if not rows else "plain")
            kinds.update("aux" for n, _ in pairs if n.startswith("__"))
            kinds.update("true" if v is TRUE else "negative" for _, v in pairs if v is TRUE or v < 0)
        assert kinds == {"empty", "plain", "aux", "true", "negative"}


class TestTranslate:
    def test_desugar_pass_round_trips(self, capsys):
        code, out, _ = run(capsys, "translate", str(PROGRAMS / "ysum.lc"), "--pass", "desugar")
        assert code == 0
        thy = parse_theory(out)
        assert thy == desugar_theory(parse_theory(pathlib.Path(PROGRAMS / "ysum.lc").read_text()))

    def test_desugar_pass_prints_min_max_side_formulas_last(self, capsys):
        # pinned bytes: fresh names, statement order and the counted elements
        code, out, _ = run(capsys, "translate", str(GOLDEN / "minmax.lc"), "--pass", "desugar")
        assert code == 0
        assert out == (GOLDEN / "minmax.desugar.lc").read_text()

    def test_delta_pass_emits_five_implications(self, capsys):
        code, out, _ = run(capsys, "translate", str(PROGRAMS / "ycond.lc"), "--pass", "delta")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#int")]
        # the rewritten atom plus the five defining implications
        assert len(lines) == 6
        assert "__c0" in out

    def test_unfold_pass_keeps_rule_count(self, capsys, tmp_path):
        f = tmp_path / "r.lc"
        f.write_text("#int total, tax 0..4. #bool region.\ntotal := tax :- region.\n")
        code, out, _ = run(capsys, "translate", str(f), "--pass", "unfold")
        assert code == 0
        statements = parse_theory(out).statements
        assert len(statements) == 2  # one implication per head subset

    def test_unfold_refusal_is_a_usage_error(self, capsys, tmp_path):
        f = tmp_path / "wide.lc"
        f.write_text("#int x 0..1.\n" + " ; ".join(["x := 0"] * 11) + ".\n")
        code, out, err = run(capsys, "translate", str(f), "--pass", "unfold")
        assert (code, out) == (1, "")
        assert err == "htc: refusing to unfold a rule with 11 head assignments\n"

    def test_all_pass_is_condition_free_core(self, capsys):
        from htc.syntax import is_core, is_condition_free

        code, out, _ = run(capsys, "translate", str(PROGRAMS / "ysum.lc"), "--pass", "all")
        assert code == 0
        thy = parse_theory(out)
        assert is_core(thy)
        assert all(is_condition_free(s) for s in thy.statements)

    def test_condition_free_file_unchanged_modulo_format(self, capsys, tmp_path):
        f = tmp_path / "plain.lc"
        f.write_text("#int x 0..3.\nx <= 2.\n")
        code, out, _ = run(capsys, "translate", str(f), "--pass", "all")
        assert code == 0
        assert parse_theory(out) == parse_theory(f.read_text())

    def test_translated_file_solves_to_same_projection(self, capsys, tmp_path):
        code, out, _ = run(capsys, "translate", str(PROGRAMS / "ysum.lc"), "--pass", "all")
        f = tmp_path / "translated.lc"
        f.write_text(out)
        translated = run_json(capsys, "solve", str(f))
        models = [
            {k: v for k, v in m.items() if not k.startswith("__")}
            for m in translated["stable_models"]
        ]
        assert models == [{"p": True, "y": 5}]


class TestCheck:
    def test_rule_vs_unfolding_equal(self, capsys, tmp_path):
        src = "#int total, tax 0..4. #bool region.\ntotal := tax :- region.\n"
        f1 = tmp_path / "rule.lc"
        f1.write_text(src)
        code, out, _ = run(capsys, "translate", str(f1), "--pass", "unfold")
        f2 = tmp_path / "unfolded.lc"
        f2.write_text(out)
        doc = run_json(capsys, "check", str(f1), str(f2))
        assert doc["report"]["verdict"] == "equal"

    def test_different_with_witness(self, capsys, tmp_path):
        f1 = tmp_path / "p.lc"
        f1.write_text("#bool p, q. p.\n")
        f2 = tmp_path / "q.lc"
        f2.write_text("#bool p, q. q.\n")
        doc = run_json(capsys, "check", str(f1), str(f2))
        assert doc["report"]["verdict"] == "different"
        assert doc["report"]["witness"]["interpretation"]

    def test_stable_projected_strong_delta(self, capsys, tmp_path):
        code, out, _ = run(capsys, "translate", str(PROGRAMS / "ycond.lc"), "--pass", "delta")
        f2 = tmp_path / "delta.lc"
        f2.write_text(out)
        doc = run_json(
            capsys,
            "check",
            str(PROGRAMS / "ycond.lc"),
            str(f2),
            "--stable",
            "--project",
            "y",
            "--strong",
        )
        assert doc["report"]["verdict"] == "equal"
        assert doc["report"]["projection"] == ["y"]

    def test_different_verdicts_are_pinned(self, capsys):
        # pinned bytes of each kind of difference: a t that one side lacks,
        # the same t with another h, one table a prefix of the other (both
        # ways), a projected stable check and a strong check with a context
        lines = (GOLDEN / "check.different.txt").read_text().splitlines()
        assert len(lines) == 12
        root = PROGRAMS.parent
        for argv, expected in zip(lines[::2], lines[1::2]):
            args = [str(root / a) if a.endswith(".lc") else a for a in argv.split()]
            code, out, err = run(capsys, *args)
            assert (code, out, err) == (0, expected + "\n", ""), argv


class TestProps:
    def test_suite_runs_clean(self, capsys):
        code, out, err = run(capsys, "props", "--suite", "persistence", "--seed", "2", "--count", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["violations"] == 0

    def test_seeded_determinism(self, capsys):
        args = ("props", "--suite", "unfolding", "--seed", "9", "--count", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestEntryPoint:
    def test_readme_library_snippet(self, monkeypatch, capsys):
        # the Library section's code prints what its comments say
        readme = (PROGRAMS.parent / "README.md").read_text()
        section = readme.split("## Library", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(PROGRAMS.parent)
        exec(code, {})
        printed = capsys.readouterr().out.splitlines()
        shown = [line.split("# ", 1)[1] for line in code.splitlines() if "print(" in line]
        assert printed == shown == ["[{y=5}]", "[{__c0=5, y=5}]"]

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "htc.cli", "solve", str(PROGRAMS / "ycond.lc")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"stable_models": [{"y": 5}]}

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "htc.cli", "solve"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1


class TestPropsViolationExit:
    def test_exit_code_three_on_violation(self, capsys, monkeypatch):
        from htc import cli
        from htc.checker import SuiteReport

        def fake(suite, seed=0, count=50, spec=None, jobs=1):
            return SuiteReport(suite, seed, count, 1, 1, {"item": 0})

        monkeypatch.setattr(cli, "run_property_suite", fake)
        code, out, _ = run(capsys, "props", "--suite", "persistence", "--count", "1")
        assert code == 3
        assert json.loads(out)["report"]["violations"] == 1


class TestCheckSpecMismatch:
    def test_incomparable_files_exit_usage(self, capsys, tmp_path):
        f1 = tmp_path / "a.lc"
        f1.write_text("#bool p. p.\n")
        f2 = tmp_path / "b.lc"
        f2.write_text("#bool q. q.\n")
        code, _, err = run(capsys, "check", str(f1), str(f2))
        assert code == 1 and "spec" in err


class TestCheckProjection:
    def test_project_without_stable_or_strong_is_a_usage_error(self, capsys):
        # HT equivalence compares full specs, so a projection would be ignored
        ysum = str(PROGRAMS / "ysum.lc")
        code, out, err = run(capsys, "check", ysum, ysum, "--project", "y")
        assert code == 1 and out == "" and "--project" in err
        for mode in ("--stable", "--strong"):
            assert run_json(capsys, "check", ysum, ysum, "--project", "y", mode)

    @pytest.mark.parametrize("spelling", ["", " , "])
    @pytest.mark.parametrize("mode", ["--stable", "--strong"])
    def test_empty_projection_is_a_usage_error(self, capsys, spelling, mode):
        # an empty projection makes every pair of theories stably equal
        ysum = str(PROGRAMS / "ysum.lc")
        code, out, err = run(capsys, "check", ysum, ysum, "--project", spelling, mode)
        assert code == 1 and out == ""
        assert "projection names no variable" in err

    @pytest.mark.parametrize("mode", ["--stable", "--strong"])
    def test_huge_projected_interval_meets_the_budget_first(self, capsys, tmp_path, mode):
        # comparing the two specs' domains must not list a domain the budget refuses
        f = tmp_path / "huge.lc"
        f.write_text("#int x 0..1000000000. x = 1.\n")
        code, out, err = run(capsys, "check", str(f), str(f), mode, "--project", "x")
        assert (code, out) == (2, "") and err.startswith("htc: budget exceeded: ")

    def test_repeated_name_is_projected_once(self, capsys):
        ycond = str(PROGRAMS / "ycond.lc")
        doc = run_json(capsys, "check", ycond, ycond, "--stable", "--project", "y,y")
        assert doc["report"]["projection"] == ["y"]

    @pytest.mark.parametrize(
        "other, project, message",
        [
            (
                PROGRAMS / "ysum.lc",
                (),
                "theories must share a spec unless a projection is given",
            ),
            (PROGRAMS / "ycond.lc", ("--project", "p"), "projection variable p is not declared"),
            ("#int y 0..3. y = 1.", ("--project", "y"), "specs disagree on projection variable y"),
            ("#bool y. y.", ("--project", "y"), "specs disagree on projection variable y"),
        ],
    )
    def test_incomparable_projection_is_a_usage_error(
        self, capsys, tmp_path, other, project, message
    ):
        if isinstance(other, str):
            (tmp_path / "narrow.lc").write_text(other)
            other = tmp_path / "narrow.lc"
        ycond = str(PROGRAMS / "ycond.lc")
        code, out, err = run(capsys, "check", ycond, str(other), "--stable", *project)
        assert code == 1 and out == ""
        assert message in err


class TestCheckMinMax:
    """Without --project, --stable and --strong compare the declared
    variables, never the auxiliaries that min/max desugaring adds."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "a.lc").write_text("#int a 0..3. min{a} <= 2.\n")
        (tmp_path / "b.lc").write_text("#int a 0..3. a <= 2.\n")
        return str(tmp_path / "a.lc"), str(tmp_path / "b.lc")

    def test_one_side_with_min_shares_the_declared_spec(self, capsys, files):
        doc = run_json(capsys, "check", *files, "--stable")
        assert doc == {"report": {"verdict": "equal", "witness": None}}

    def test_auxiliary_is_not_in_the_projection(self, capsys, files):
        a, _ = files
        doc = run_json(capsys, "check", a, a, "--stable", "--strong")
        assert doc["report"]["projection"] == ["a"]
        code, out, err = run(capsys, "check", a, a, "--stable", "--project", "__min0")
        assert (code, out) == (1, "")
        assert "projection variable __min0 is not declared" in err

    def test_ht_check_names_the_auxiliaries(self, capsys, files):
        # HT models define __min0, so plain check cannot compare this pair;
        # the error names no spec the files did not declare
        code, out, err = run(capsys, "check", *files)
        assert (code, out) == (1, "")
        assert "__min0" in err and "--stable or --strong" in err
        assert "share a domain spec" not in err
        a, _ = files
        assert run_json(capsys, "check", a, a)["report"]["verdict"] == "equal"


class TestCheckStrongOutput:
    """``check --strong`` stdout, pinned byte for byte."""

    FILES = {
        "p": "#bool p, q.\np.\n",
        "q": "#bool p, q.\nq.\n",
        "disj": "#bool p, q.\np | q.\n",
        "impls": "#bool p, q.\nnot q -> p.\nnot p -> q.\n",
    }

    @pytest.mark.parametrize(
        "a, b, extra, expected",
        [
            # differs without any context: no context key, projection only
            # when one is asked for
            ("p", "q", (), '{"report": {"verdict": "different", "witness": '
             '{"side": "right-only", "valuation": {"q": true}}}}'),
            ("p", "q", ("--project", "p,q"), '{"report": {"projection": ["p", "q"], '
             '"verdict": "different", "witness": {"side": "right-only", '
             '"valuation": {"q": true}}}}'),
            ("p", "q", ("--project", "q"), '{"report": {"projection": ["q"], '
             '"verdict": "different", "witness": {"side": "left-only", '
             '"valuation": {}}}}'),
            # stably equal, told apart by a context
            ("disj", "impls", (), '{"report": {"projection": ["p", "q"], '
             '"verdict": "different", "witness": {"context": ["p -> q", "q -> p"], '
             '"side": "left-only", "valuation": {"p": true, "q": true}}}}'),
            ("disj", "impls", ("--project", "p"), '{"report": {"projection": ["p"], '
             '"verdict": "equal", "witness": null}}'),
            ("disj", "disj", (), '{"report": {"projection": ["p", "q"], '
             '"verdict": "equal", "witness": null}}'),
        ],
    )
    def test_report_bytes(self, capsys, tmp_path, a, b, extra, expected):
        for name, text in self.FILES.items():
            (tmp_path / f"{name}.lc").write_text(text)
        code, out, _ = run(
            capsys, "check", str(tmp_path / f"{a}.lc"), str(tmp_path / f"{b}.lc"),
            "--strong", *extra,
        )
        assert code == 0
        assert out == expected + "\n"


class TestCheckStrongExact:
    def test_pair_that_differs_as_ht_pair_differs_strongly(self, capsys, tmp_path):
        # with every variable projected, strong equivalence is HT equivalence,
        # so the pair that check tells apart must differ under --strong too
        a, b = tmp_path / "a.lc", tmp_path / "b.lc"
        a.write_text("#int x, y 1..1. not def(y) -> def(x). not def(x) -> def(y).\n")
        b.write_text("#int x, y 1..1. def(x) | def(y).\n")
        assert run_json(capsys, "check", str(a), str(b))["report"]["verdict"] == "different"
        doc = run_json(
            capsys, "check", str(a), str(b), "--stable", "--strong", "--project", "x,y"
        )
        assert doc["report"] == {
            "projection": ["x", "y"],
            "verdict": "different",
            "witness": {
                "context": ["def(x) -> def(y)", "def(y) -> def(x)"],
                "side": "right-only",
                "valuation": {"x": 1, "y": 1},
            },
        }
        # the witness context, added to both sides, re-checks with --stable
        context = "".join(f"{f}.\n" for f in doc["report"]["witness"]["context"])
        for path in (a, b):
            path.write_text(path.read_text() + context)
        doc = run_json(capsys, "check", str(a), str(b), "--stable", "--project", "x,y")
        assert doc["report"]["witness"] == {"side": "right-only", "valuation": {"x": 1, "y": 1}}


class TestCheckJobs:
    """``check`` spreads its model tables over ``--jobs`` workers and prints
    the same bytes for every worker count."""

    FILES = {
        "disj": "#bool p, q.\np | q.\n",
        "impls": "#bool p, q.\nnot q -> p.\nnot p -> q.\n",
    }

    def files(self, capsys, tmp_path, names):
        for name, text in self.FILES.items():
            (tmp_path / f"{name}.lc").write_text(text)
        _, delta, _ = run(capsys, "translate", str(PROGRAMS / "ycond.lc"), "--pass", "delta")
        (tmp_path / "ycond.delta.lc").write_text(delta)
        (tmp_path / "ycond.lc").write_text((PROGRAMS / "ycond.lc").read_text())
        return [str(tmp_path / f"{name}.lc") for name in names]

    def test_tables_are_built_on_a_pool(self, capsys, tmp_path, monkeypatch):
        import concurrent.futures

        built = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        # the pool class is looked up when a pool is made, not at import
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        files = self.files(capsys, tmp_path, ("disj", "impls"))
        run_json(capsys, "check", *files, "--strong", "--jobs", "2")
        assert built == [2]  # both sides' tables on one pool
        run_json(capsys, "check", *files, "--jobs", "1")
        assert built == [2]

    @pytest.mark.parametrize(
        "names, extra",
        [
            (("disj", "impls"), ()),
            (("ycond", "ycond.delta"), ("--stable", "--project", "y")),
            # stably equal, told apart only by a non-empty context
            (("disj", "impls"), ("--strong",)),
        ],
    )
    def test_output_does_not_depend_on_jobs(self, capsys, tmp_path, names, extra):
        files = self.files(capsys, tmp_path, names)
        outputs = set()
        for jobs in ("1", "2", "3"):
            code, out, _ = run(capsys, "check", *files, *extra, "--jobs", jobs)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        if "--strong" in extra:
            assert json.loads(outputs.pop())["report"]["witness"]["context"]


class TestDesugarOnce:
    """Each entry point desugars its input once; the model tables below it
    take core theories only."""

    def test_tables_refuse_a_surface_theory(self):
        from htc.semantics import _run

        with pytest.raises(ValueError, match="desugared"):
            _run([parse_theory("#int x 0..2. x = 1.")], None, 1)

    def test_desugar_calls_per_operation(self, capsys, tmp_path):
        ycond = str(PROGRAMS / "ycond.lc")
        saved = ycond_translations(capsys, tmp_path)
        operations = [
            # strong_equivalent desugars both sides, equivalent too
            (("check", ycond, saved["delta"], "--stable", "--project", "y", "--strong"), 2),
            (("check", ycond, saved["unfold"]), 2),
            (("translate", ycond, "--pass", "delta"), 0),
            (("solve", ycond), 1),  # stable_models desugars its theory
        ]
        for argv, expected in operations:
            code, calls = count_calls(desugar_theory.__code__, main, list(argv))
            assert (code, calls) == (0, expected), argv


def ycond_translations(capsys, tmp_path) -> dict:
    """Paths of ycond's delta and unfold translations, written to tmp_path."""
    saved = {}
    for name in ("delta", "unfold"):
        path = tmp_path / f"ycond.{name}.lc"
        path.write_text(run(capsys, "translate", str(PROGRAMS / "ycond.lc"), "--pass", name)[1])
        saved[name] = str(path)
    return saved


def count_calls(code, fn, *args):
    """``fn(*args)`` and how often the function with ``code`` was entered
    during it; a generator is entered once per step."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


class TestCheckedOnce:
    """Declarations are checked where a theory enters the library; the
    theories that library passes build from checked parts are not checked
    again."""

    def test_no_theory_validation_per_operation(self, capsys, tmp_path):
        ycond = str(PROGRAMS / "ycond.lc")
        saved = ycond_translations(capsys, tmp_path)
        operations = [
            ("solve", ycond),
            ("translate", ycond, "--pass", "delta"),
            ("check", ycond, saved["unfold"]),
            ("check", ycond, saved["delta"], "--stable", "--project", "y", "--strong"),
        ]
        for argv in operations:
            code, calls = count_calls(Theory.__init__.__code__, main, list(argv))
            assert (code, calls) == (0, 0), argv

    def test_parser_walks_no_statement(self):
        text = "#int x, y 0..3. #bool p.\nx := 1 ; y := 0..2 :- p, not x > y.\n"
        text += "p | def(x) -> y != 2.\n"
        thy, steps = count_calls(nodes.__code__, parse_theory, text)
        assert (len(thy.statements), steps) == (2, 0)


class TestDeepInput:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_too_deep_input_is_one_error_line(self, tmp_path, jobs):
        # Python's own RecursionError text depends on where the stack ran
        # out, which --jobs changes; the message must not
        path = tmp_path / "deep.lc"
        path.write_text("#int x 0..1.\n" + " & ".join(["x <= 1"] * 3000) + ".\n")
        for argv in (
            ("solve", path),
            ("check", path, path),
            ("translate", path, "--pass", "desugar"),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "htc.cli", *map(str, argv), "--jobs", jobs],
                capture_output=True,
                text=True,
                timeout=60,
            )
            result = (proc.returncode, proc.stdout, proc.stderr)
            assert result == (1, "", "htc: input nested too deeply\n"), argv

    def test_nesting_below_the_limit_solves(self, tmp_path):
        # 900 conjuncts, one nested in the next: the evaluator compiles one
        # frame per level and must not walk the formula again per node
        path = tmp_path / "nested.lc"
        path.write_text("#bool a.\n" + " & ".join(["a"] * 900) + ".\n")
        for argv, expected in (
            (("solve", path), '{"stable_models": [{"a": true}]}\n'),
            (("check", path, path, "--stable", "--strong"), None),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "htc.cli", *map(str, argv)],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (0, ""), argv
            assert expected is None or proc.stdout == expected
