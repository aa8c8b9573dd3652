import json
import pathlib
import random

import pytest

from htc.checker import (
    _substitute,
    DEFAULT_SUITE_SPEC,
    MAX_CONTEXTS,
    EquivReport,
    SUITE_NAMES,
    Witness,
    context_family,
    equivalent,
    gen_formula,
    gen_program,
    run_property_suite,
    stable_equivalent,
    strong_equiv_sampled,
    strong_equivalent,
)
from htc.parser import parse_theory, pretty_print
from htc.semantics import Valuation, ht_models, satisfies, stable_models, valuation_key
from htc.syntax import (
    BOT,
    TOP,
    TRUE,
    U,
    And,
    BoolAtom,
    Comparison,
    Const,
    DomainSpec,
    Implies,
    LinearExpr,
    Not,
    Or,
    Scaled,
    children,
    const_expr,
    desugar_comparisons,
    desugar_theory,
    le,
    make_theory,
    var_expr,
)
from htc.transforms import eliminate_conditionals, theory_formulas

from mutants import mutate
from reference import ht_pairs, ht_tautology_schemata, is_ht_tautology

BOOLS = DomainSpec.make({}, ["p", "q"])


def bool_theory(*formulas):
    return make_theory(BOOLS, list(formulas))


class TestEquivalent:
    def test_different_with_witness(self):
        report = equivalent(bool_theory(BoolAtom("p")), bool_theory(BoolAtom("q")))
        assert report.verdict == "different"
        w = report.witness
        assert w is not None and w.interpretation is not None
        # the witness interpretation really distinguishes the two sides
        left = all(
            satisfies(w.interpretation, f)
            for f in theory_formulas(bool_theory(BoolAtom("p")))
        )
        right = all(
            satisfies(w.interpretation, f)
            for f in theory_formulas(bool_theory(BoolAtom("q")))
        )
        assert left != right
        assert (w.side == "left-only") == left

    def test_equal(self):
        p = BoolAtom("p")
        report = equivalent(bool_theory(Not(Not(Not(p)))), bool_theory(Not(p)))
        assert report.equal

    def test_spec_mismatch_rejected(self):
        other = make_theory(DomainSpec.make({}, ["p"]), [BoolAtom("p")])
        with pytest.raises(ValueError):
            equivalent(bool_theory(BoolAtom("p")), other)

    def test_witness_iff_different(self):
        with pytest.raises(ValueError):
            EquivReport("equal", Witness("left-only"))
        with pytest.raises(ValueError):
            EquivReport("different")


class TestStableEquivalent:
    def test_bot_changes_stable_models(self):
        report = stable_equivalent(bool_theory(), bool_theory(BOT))
        assert report.verdict == "different"
        assert report.witness.valuation is not None

    def test_projection_hides_private_variables(self):
        thy = parse_theory("#int y 0..9. (y | 0 : #true) = 5.")
        translated = eliminate_conditionals(thy).theory()
        report = stable_equivalent(thy, translated, project=("y",))
        assert report.equal
        assert report.projection == ("y",)

    def test_witness_reverifies_against_stable_models(self):
        a, b = bool_theory(BoolAtom("p")), bool_theory()
        report = stable_equivalent(a, b)
        assert report.verdict == "different"
        v = report.witness.valuation
        side_models = stable_models(a if report.witness.side == "left-only" else b)
        other_models = stable_models(b if report.witness.side == "left-only" else a)
        assert (v in side_models) and (v not in other_models)

    def test_checks_build_both_tables_in_one_run(self, monkeypatch):
        # each check builds both sides' tables in one _run call, and reads
        # them under every context
        from htc import checker as chk
        from htc import semantics

        calls = []

        def recording_run(theories, budget, jobs):
            calls.append(len(theories))
            return semantics._run(theories, budget, jobs)

        monkeypatch.setattr(chk, "_run", recording_run)
        a, b = bool_theory(Or(BoolAtom("p"), Not(BoolAtom("p")))), bool_theory()
        assert stable_equivalent(a, b).verdict == "different"
        assert calls == [2]
        strong_equiv_sampled(a, b, contexts=context_family(BOOLS))
        assert calls == [2, 2]
        strong_equivalent(a, b)
        assert calls == [2, 2, 2]

    def test_strong_check_takes_each_least_model_once(self, monkeypatch, tmp_path, capsys):
        # check --strong reads each row's models below t once, through
        # _below, which takes the least model of its reduct once
        from htc import checker as chk
        from htc import semantics
        from htc.cli import main
        from htc.parser import pretty_print

        ycond = pathlib.Path(__file__).resolve().parent.parent / "programs" / "ycond.lc"
        delta = tmp_path / "ycond.delta.lc"
        translated = eliminate_conditionals(parse_theory(ycond.read_text())).theory()
        delta.write_text(pretty_print(translated))
        tables, reducts = [], []
        run, least = semantics._run, semantics._least_model

        def recording_run(theories, budget, jobs):
            # the rows are listed, since the assertion reads them again
            tables.extend((spec, list(rows)) for spec, rows in run(theories, budget, jobs))
            return tables[-len(theories) :]

        def recording_least(reduct):
            reducts.append(reduct)
            return least(reduct)

        monkeypatch.setattr(chk, "_run", recording_run)
        monkeypatch.setattr(semantics, "_least_model", recording_least)
        argv = ["check", str(ycond), str(delta), "--stable", "--project", "y", "--strong"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "equal"
        assert reducts == [reduct for _, rows in tables for _, reduct in rows]


class TestStrongEquivalence:
    def test_classic_pair_equal_stably_but_not_strongly(self):
        p, q = BoolAtom("p"), BoolAtom("q")
        disj = bool_theory(Or(p, q))
        impls = bool_theory(Implies(Not(q), p), Implies(Not(p), q))
        assert stable_equivalent(disj, impls).equal
        report = strong_equiv_sampled(disj, impls, contexts=context_family(BOOLS))
        assert report.verdict == "different"
        ctx = report.witness.context
        # re-verify: the witness context distinguishes the projected models
        sa = {m for m in stable_models(make_theory(disj.spec, disj.statements + ctx))}
        sb = {m for m in stable_models(make_theory(impls.spec, impls.statements + ctx))}
        assert sa != sb

    def test_exact_check_gives_the_classic_pair_its_context(self):
        # at T = {p, q} the disjunction leaves K = {{p}, {q}} below T, the
        # implications every H; Delta_K rules out exactly {p} and {q}
        p, q = BoolAtom("p"), BoolAtom("q")
        disj = bool_theory(Or(p, q))
        impls = bool_theory(Implies(Not(q), p), Implies(Not(p), q))
        report = strong_equivalent(disj, impls)
        assert report.projection == ("p", "q")
        assert report.witness == Witness(
            "left-only",
            valuation=Valuation([("p", TRUE), ("q", TRUE)]),
            context=(Implies(p, q), Implies(q, p)),
        )
        assert strong_equivalent(disj, impls, project=["p"]).equal

    def test_sampled_equal_pair_differs_as_ht_pair(self):
        # with every variable projected, strong equivalence is HT equivalence;
        # the 48 sampled contexts miss the one that tells this pair apart
        a = parse_theory("#int x, y 1..1. not def(y) -> def(x). not def(x) -> def(y).")
        b = parse_theory("#int x, y 1..1. def(x) | def(y).")
        assert not equivalent(a, b).equal
        names = ("x", "y")
        assert strong_equiv_sampled(a, b, names, contexts=context_family(a.spec)).equal
        report = strong_equivalent(a, b, names)
        assert report.verdict == "different" and report.witness.side == "right-only"
        assert [pretty_print(f) for f in report.witness.context] == [
            "def(x) -> def(y)",
            "def(y) -> def(x)",
        ]
        context = report.witness.context
        sa = stable_models(make_theory(a.spec, a.statements + context))
        sb = stable_models(make_theory(b.spec, b.statements + context))
        assert report.witness.valuation in set(sb) - set(sa)

    def test_exact_check_reports_the_empty_context_as_stable_does(self):
        a, b = bool_theory(), bool_theory(BoolAtom("q"))
        report = strong_equivalent(a, b)
        assert report.witness == stable_equivalent(a, b).witness
        assert report.witness.context is None and report.projection is None
        assert strong_equivalent(a, b, project=["q"]).projection == ("q",)

    def test_extension_by_extra_fact_differs(self):
        # adding q changes the stable models; the empty context, always
        # checked first, witnesses it (the context q alone would mask it,
        # since both sides then carry q)
        q = BoolAtom("q")
        a = bool_theory()
        b = bool_theory(q)
        report = strong_equiv_sampled(a, b, contexts=[(q,)])
        assert report.verdict == "different"
        assert report.witness.context is None
        assert report.projection is None

    def test_contexts_must_be_given(self):
        # contexts is keyword-only and required; the empty context is
        # checked whatever the family holds
        a = parse_theory("#bool p. p.")
        b = parse_theory("#bool p. #false :- p.")
        assert not stable_equivalent(a, b).equal
        with pytest.raises(TypeError):
            strong_equiv_sampled(a, b)
        assert not strong_equiv_sampled(a, b, contexts=[]).equal

    def test_delta_translation_strongly_faithful_golden(self):
        thy = parse_theory("#int y 0..3. #bool p. (y | 0 : p) = 2.")
        translated = eliminate_conditionals(thy).theory()
        names = thy.spec.variables()
        family = context_family(thy.spec, names)
        assert len(family) > 0
        report = strong_equiv_sampled(thy, translated, project=names, contexts=family)
        assert report.equal
        assert strong_equivalent(thy, translated, project=names).equal

    def test_added_delta_alone_is_neutral(self):
        # adding the defining implications for a fresh variable never changes
        # the projected stable models
        thy = parse_theory("#int y 0..3. #bool p. y >= 1.")
        base = eliminate_conditionals(
            parse_theory("#int y 0..3. #bool p. (y | 0 : p) = 2.")
        )
        side_only = make_theory(base.rewritten.spec, desugar_theory(thy).statements + base.side)
        names = thy.spec.variables()
        report = strong_equiv_sampled(
            thy, side_only, project=names, contexts=context_family(thy.spec, names)
        )
        assert report.equal
        assert strong_equivalent(thy, side_only, project=names).equal


class TestProjection:
    def test_empty_projection_raises(self):
        a, b = bool_theory(BoolAtom("p")), bool_theory(BoolAtom("q"))
        with pytest.raises(ValueError, match="projection names no variable"):
            stable_equivalent(a, b, project=[])
        with pytest.raises(ValueError, match="projection names no variable"):
            strong_equiv_sampled(a, b, project=[], contexts=context_family(BOOLS))
        with pytest.raises(ValueError, match="projection names no variable"):
            strong_equivalent(a, b, project=[])

    def test_str_projection_raises(self):
        # a str is a sequence of one-letter names: "xy" would project onto
        # x and y, on which these theories agree, not onto xy
        a = parse_theory("#int x, y, xy 0..1. xy := 1. x := 0.")
        b = parse_theory("#int x, y, xy 0..1. xy := 0. x := 0.")
        assert not stable_equivalent(a, b, project=["xy"]).equal
        for check in (stable_equivalent, strong_equivalent):
            with pytest.raises(TypeError, match="not the str 'xy'"):
                check(a, b, project="xy")
        with pytest.raises(TypeError, match="not the str 'xy'"):
            strong_equiv_sampled(a, b, project="xy", contexts=[])

    def test_context_outside_the_projection_raises(self):
        a = bool_theory(BoolAtom("p"))
        with pytest.raises(ValueError, match="q, outside the projection"):
            strong_equiv_sampled(a, a, project=["p"], contexts=[(BoolAtom("q"),)])

    def test_repeated_name_is_projected_once(self):
        a = bool_theory(BoolAtom("p"))
        assert stable_equivalent(a, a, project=["p", "p"]).projection == ("p",)
        report = strong_equiv_sampled(a, a, project=["p", "p"], contexts=[])
        assert report.projection == ("p",)
        assert strong_equivalent(a, a, project=["p", "p"]).projection == ("p",)


    def test_min_max_auxiliaries_are_not_compared(self):
        # without a projection both sides compare the declared variables;
        # the __min0 that desugaring adds to one side is not one of them
        a = parse_theory("#int a 0..3. min{a} <= 2.")
        b = parse_theory("#int a 0..3. a <= 2.")
        assert stable_equivalent(a, b).equal
        assert strong_equivalent(a, b).projection == ("a",)
        assert strong_equiv_sampled(a, b, contexts=[]).projection == ("a",)
        for check in (stable_equivalent, strong_equivalent):
            with pytest.raises(ValueError, match="variable __min0 is not declared"):
                check(a, a, project=["__min0"])


def first_only(left, right, key):
    """(side, model): the least model by ``key`` that only one side has, the
    left side's on a tie; None when the sides agree."""
    only = [(key(m), 0, "left-only", m) for m in set(left) - set(right)]
    only += [(key(m), 1, "right-only", m) for m in set(right) - set(left)]
    if not only:
        return None
    _, _, side, model = min(only, key=lambda c: c[:2])
    return side, model


def projected_stable(thy, names):
    return [v.project(names) for v in stable_models(thy)]


def witness_pairs():
    """Seeded pairs over one spec, then two written out: one whose first
    differing models are empty, and one with a min on one side only."""
    pairs = []
    for i in range(6):
        rng = random.Random(52_000_003 + i)
        pairs.append((gen_program(rng, DEFAULT_SUITE_SPEC), gen_program(rng, DEFAULT_SUITE_SPEC)))
    for i in range(3):
        rng = random.Random(53_000_003 + i)
        a, b = (gen_formula(rng, DEFAULT_SUITE_SPEC, depth=2) for _ in range(2))
        pairs.append((make_theory(DEFAULT_SUITE_SPEC, [a]), make_theory(DEFAULT_SUITE_SPEC, [b])))
    pairs.append((bool_theory(), bool_theory(BoolAtom("p"))))
    pairs.append((
        parse_theory("#int x, y 0..2. x := 0..2. y := 1..2. min{ x ; y } >= 1."),
        parse_theory("#int x, y 0..2. x := 0..2. y := 1..2. x >= 2."),
    ))
    return pairs


class TestWitnessPick:
    """Every check reports the first model, by valuation_key, that only one
    side has, the left side's on a tie; HT pairs order by t, then h."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_witness_is_the_first_model_one_side_has(self, jobs):
        kinds = set()
        for a, b in witness_pairs():
            spec = a.spec
            if desugar_theory(a).spec == desugar_theory(b).spec:
                key = lambda i: (valuation_key(spec, i.t), valuation_key(spec, i.h))
                pick = first_only(ht_models(a), ht_models(b), key)
                report = equivalent(a, b, jobs=jobs)
                assert (report.witness.side, report.witness.interpretation) == pick
                kinds.add("empty-ht" if not pick[1].t else "ht")
            for project in (None, ("x",), ("p", "y")):
                names = spec.variables() if project is None else project
                if not set(names) <= set(spec.variables()):
                    continue
                key = lambda v: valuation_key(spec, v)
                pick = first_only(projected_stable(a, names), projected_stable(b, names), key)
                stable = stable_equivalent(a, b, project, jobs=jobs)
                if pick is None:
                    assert stable.equal
                    continue
                kinds.add("empty" if not pick[1] else "stable")
                kinds.update("min" for n in desugar_theory(a).spec.variables() if "min" in n)
                contexts = context_family(spec, names)
                for report in (
                    stable,
                    strong_equivalent(a, b, project, jobs=jobs),
                    strong_equiv_sampled(a, b, project, contexts=contexts, jobs=jobs),
                ):
                    assert report.witness.context is None
                    assert (report.witness.side, report.witness.valuation) == pick
        assert kinds == {"ht", "empty-ht", "stable", "empty", "min"}

    def test_valuations_are_built_only_for_the_witness(self, monkeypatch):
        # a Valuation is built by its constructor or, from sorted pairs, by
        # Valuation._sorted
        built, init, from_sorted = [], Valuation.__init__, Valuation._sorted.__func__

        def counted_init(self, pairs=()):
            built.append(pairs)
            init(self, pairs)

        def counted_sorted(cls, pairs):
            built.append(pairs)
            return from_sorted(cls, pairs)

        choice = "#int x, y 0..4. #bool p, q. x := 0..4. y := 0..4."
        a = parse_theory(choice + " p | q.")
        assert len(stable_models(a)) == 50
        cases = [  # (b, stable verdict, strong verdict)
            (a, "equal", "equal"),
            (parse_theory(choice + " p | q. x + y <= 8."), "equal", "equal"),
            (parse_theory(choice + " p | q. x + y <= 7."), "different", "different"),
            (parse_theory(choice + " not q -> p. not p -> q."), "equal", "different"),
        ]
        monkeypatch.setattr(Valuation, "__init__", counted_init)
        monkeypatch.setattr(Valuation, "_sorted", classmethod(counted_sorted))
        for b, *verdicts in cases:
            for check, verdict in zip((stable_equivalent, strong_equivalent), verdicts):
                built.clear()
                assert check(a, b).verdict == verdict
                assert len(built) == (verdict == "different"), (check.__name__, b)


STATEMENT_POOL = (
    "x := 0..2.", "y := 1 :- p.", "p | not p.", "x >= 1 -> p.", "not not p.", "p -> def(y).",
    "y := 0..2 :- not p.", "not p -> y >= 1.", ":- x + y > 3.", "def(x) | def(y).",
    "(y | 0 : p) <= 1.",
)


def statement_variants(seed=54_000_003, n=20):
    """Seeded pairs (a, b) of desugared theories over one spec: a holds four
    statements of the pool, and b is a itself, a with its statements
    rotated, a with one dropped, or a with another one added."""
    pairs = []
    for i in range(n):
        rng = random.Random(seed + i)
        pool = list(STATEMENT_POOL)
        rng.shuffle(pool)
        s, k = pool[:4], rng.randrange(4)
        for b in (s, s[k + 1 :] + s[: k + 1], s[:k] + s[k + 1 :], s[:k] + pool[4:5] + s[k:]):
            pairs.append(tuple(
                desugar_theory(parse_theory("#int x, y 0..2. #bool p. " + " ".join(stmts)))
                for stmts in (s, b)
            ))
    return pairs


class TestRowWiseHTComparison:
    """``_ht_difference`` walks two tables row by row and agrees with the
    comparison of their (h, t) pair sets, on the verdict and on the first t
    whose pairs differ, with each side's masks there."""

    def test_agrees_with_the_pair_sets(self):
        from htc.semantics import _ht_difference, _order, _run

        kinds = {}
        for a, b in statement_variants():
            (_, ra), (_, rb) = _run([a, b], None, 1)
            ra, rb = list(ra), list(rb)
            pa, pb = ht_pairs(ra), ht_pairs(rb)
            equal = pa == pb
            difference = _ht_difference(ra, rb)
            assert (difference is None) == equal == (_ht_difference(rb, ra) is None)
            if difference is not None:
                t, ma, mb = difference
                assert t == min({u for _, u in pa ^ pb}, key=_order)
                assert (ma, mb) == ({m for m, u in pa if u == t}, {m for m, u in pb if u == t})
            same_t = [t for t, _ in ra] == [t for t, _ in rb]
            kind = (equal, same_t, ra == rb)
            kinds[kind] = kinds.get(kind, 0) + 1
        # equal tables, some with the same reducts and some with reducts
        # that differ; tables whose total models agree but that differ
        # below some t; and tables whose total models differ
        expected = {(True, True, True), (True, True, False), (False, True, False),
                    (False, False, False)}
        assert kinds.keys() == expected and min(kinds.values()) >= 5, kinds

    def test_readers_take_one_shot_iterators(self):
        # every table reader needs one forward pass over its rows, so a
        # generator, which has no length and no index, gives what a list does
        from htc.semantics import _below, _certificates, _full, _ht_difference, _run, _stable_rows

        def once(rows):
            return (row for row in rows)

        prefixes = 0
        for a, b in statement_variants(n=5):
            (spec, ra), (_, rb) = _run([a, b], None, 1)
            ra, rb = list(ra), list(rb)
            assert _stable_rows(once(ra)) == _stable_rows(ra)
            for names in (spec.variables(), ("p",), ("x", "y")):
                assert _certificates((spec, once(ra)), names) == _certificates((spec, ra), names)
            pairs = [(ra, rb), (rb, ra)]
            # a strict prefix of the other table, in both orders: its first
            # missing row is the difference, with no masks on the short side
            for k in range(0, len(ra), 7):
                pairs += [(ra, ra[:k]), (ra[:k], ra)]
                t, reduct = ra[k]
                masks = {*_below(reduct, t), _full(t)}
                assert _ht_difference(ra, ra[:k]) == (t, masks, set())
                assert _ht_difference(ra[:k], ra) == (t, set(), masks)
                prefixes += 1
            for left, right in pairs:
                assert _ht_difference(once(left), once(right)) == _ht_difference(left, right)
        assert prefixes >= 20, prefixes

    def test_witness_is_the_first_pair_one_side_has(self):
        for a, b in statement_variants():
            spec = a.spec
            key = lambda i: (valuation_key(spec, i.t), valuation_key(spec, i.h))
            pick = first_only(ht_models(a), ht_models(b), key)
            report = equivalent(a, b)
            if pick is None:
                assert report.verdict == "equal" and report.witness is None
            else:
                assert (report.witness.side, report.witness.interpretation) == pick

    def test_a_different_check_stops_at_its_first_difference(self, monkeypatch, tmp_path, capsys):
        # check reads each table as its search yields it, so a difference
        # early in the tables ends both searches there, long before the
        # 90,601 rows of the first table
        from htc import semantics
        from htc.cli import main

        search, read = semantics.total_models, []

        def counted(spec, formulas, prefix=()):
            read.append(0)
            k = len(read) - 1
            for row in search(spec, formulas, prefix):
                read[k] += 1
                yield row

        monkeypatch.setattr(semantics, "total_models", counted)
        (tmp_path / "a.lc").write_text("#int a, b 0..299.\n")
        (tmp_path / "b.lc").write_text("#int a, b 0..299.\n:- a < 1.\n")
        assert main(["check", str(tmp_path / "a.lc"), str(tmp_path / "b.lc")]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["verdict"] == "different"
        assert report["witness"]["interpretation"]["t"] == {"a": 0}
        # the 301 rows with a undefined, then a = 0 on the left, a = 1 on
        # the right
        assert read == [302, 302]


class TestContextFamily:
    def test_deterministic_and_capped(self):
        fam1 = context_family(BOOLS)
        fam2 = context_family(BOOLS)
        assert fam1 == fam2
        # 16 single contexts: facts p and q, three bounds in each direction
        # for x and for y, p -> q and q -> p; with their 120 pairs, 136
        spec = DomainSpec.make({"x": (0, 4), "y": (0, 4)}, ["p", "q"])
        assert len(context_family(spec)) == MAX_CONTEXTS == 48

    def test_repeated_name_counts_once(self):
        assert context_family(BOOLS, ("p", "p", "q")) == context_family(BOOLS, ("p", "q"))

    def test_respects_variable_restriction(self):
        spec = DomainSpec.make({"x": (0, 2)}, ["p"])
        fam = context_family(spec, names=("p",))
        from htc.syntax import free_vars

        assert all(free_vars(f) <= {"p"} for ctx in fam for f in ctx)

    def test_contains_rule_pairs(self):
        fam = context_family(BOOLS)
        p, q = BoolAtom("p"), BoolAtom("q")
        assert (Implies(p, q), Implies(q, p)) in fam


class TestSuites:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_zero_violations(self, suite):
        report = run_property_suite(suite, seed=3, count=8)
        assert report.violations == 0, report.counterexample
        assert report.checked == 8

    def test_deterministic_given_seed(self):
        a = run_property_suite("persistence", seed=5, count=6)
        b = run_property_suite("persistence", seed=5, count=6)
        assert a == b

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_property_suite("nonsense")

    def test_negative_count_rejected(self):
        # as props --count is: a negative count reported "checked": -2
        with pytest.raises(ValueError, match="count must be at least 0, got -2"):
            run_property_suite("persistence", count=-2)
        assert run_property_suite("persistence", count=0).checked == 0

    def test_violation_reporting_and_shrinking(self, monkeypatch):
        # break the checker deliberately by handing it a law that fails:
        # reuse the internal machinery via a tiny fake suite
        import concurrent.futures
        import functools
        import multiprocessing

        from htc import checker as chk

        # the suite is registered in this process only, so the pool's workers
        # must be forked from it, whatever the default start method
        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            functools.partial(
                concurrent.futures.ProcessPoolExecutor,
                mp_context=multiprocessing.get_context("fork"),
            ),
        )

        def generate(rng, spec):
            return desugar_comparisons(gen_formula(rng, spec))

        def broken(phi, spec):
            # claim: every formula is satisfied by the empty interpretation
            from htc.semantics import Interpretation, Valuation

            empty = Interpretation(Valuation(), Valuation())
            if not satisfies(empty, phi):
                return {"formula": pretty_print(phi), "detail": None}
            return None

        chk._SUITES["broken"] = chk._Suite(generate, broken, chk._shrink_formula)
        try:
            report = run_property_suite("broken", seed=1, count=30)
            assert report.violations == 1
            assert report.counterexample["item"] == report.checked - 1
            assert isinstance(report.counterexample["formula"], str)
            # the lowest failing item wins on a pool too
            assert run_property_suite("broken", seed=1, count=30, jobs=2) == report
        finally:
            del chk._SUITES["broken"]

    def test_engine_error_while_shrinking_propagates(self, monkeypatch):
        # the unfolding law sees a violation on the corpus item, and the
        # engine crashes on every shrink candidate but never on the item:
        # a shrink that swallowed the crash would report the item itself
        from htc import checker as chk

        cores = []

        def crashing_run(theories, budget, jobs):
            cores.append(theories[0])
            if theories[0] != cores[0]:
                raise ValueError("engine crash")
            # three different tables: the unfoldings differ from the core
            return [(None, [((k,), (0, ()))]) for k in range(len(theories))]

        monkeypatch.setattr(chk, "_run", crashing_run)
        with pytest.raises(ValueError, match="engine crash"):
            run_property_suite("unfolding", seed=0, count=1)

    def test_a_rejected_shrink_candidate_is_not_a_shrink(self, monkeypatch):
        # the package rejects both subformulas of the failing item, so
        # shrinking keeps the item itself
        from htc import checker as chk
        from htc.errors import TransformError

        item = And(BoolAtom("p"), Not(BoolAtom("p")))
        rejected = []

        def law(phi, spec):
            if phi == item:
                return {"formula": pretty_print(phi), "detail": None}
            rejected.append(phi)
            raise TransformError("rejected")

        suite = chk._Suite(lambda rng, spec: item, law, chk._shrink_formula)
        monkeypatch.setitem(chk._SUITES, "broken", suite)
        report = run_property_suite("broken", seed=0, count=1)
        assert report.counterexample == {"formula": "p & not p", "detail": None, "item": 0}
        assert rejected == [BoolAtom("p"), Not(BoolAtom("p"))]


# With one of delta's five implications left out, the first violation of
# delta-faithfulness at seeds 0-3 (count 40): the corpus item and the context
# Delta_K of the exact check's witness.  Every item is the one the sampled
# check of 48 contexts reported, or an earlier one (dropped 0, seed 3: 5 -> 2).
XY = ["def(x) | def(y)", "def(x) -> def(y)", "def(y) -> def(x)"]
PX = ["p | def(x)", "def(x) -> p"]
DROPPED_DELTA_VIOLATIONS = {
    0: [(3, XY), (10, ["def(x)"]), (0, ["p | def(y)", "p -> def(y)", "def(y) -> p"]),
        (2, ["p | def(x) | def(y)", "p -> def(x) | def(y)", "def(x) -> p | def(y)",
             "p & def(x) -> def(y)", "def(y) -> p | def(x)", "p & def(y) -> def(x)",
             "def(x) & def(y) -> p"])],
    1: [(0, XY), (1, XY), (0, ["def(y)"]), (2, XY)],
    2: [(12, PX), (0, []), (23, PX), (32, ["def(y)"])],
    3: [(16, []), (7, ["p | def(y)", "def(y) -> p"]), (28, ["def(x)"]), (0, ["def(x) -> p"])],
    4: [(2, ["p | def(x) | def(y)", "def(x) -> p | def(y)", "def(y) -> p | def(x)",
             "def(x) & def(y) -> p"]), (3, []), (6, []), (25, [])],
}

# the whole report with the first implication left out, at seed 0
DROPPED_DELTA_REPORT = (
    '{"checked": 4, "count": 40, "counterexample": {"detail": {"context": '
    '["def(x) | def(y)", "def(x) -> def(y)", "def(y) -> def(x)"]}, "item": 3, '
    '"theory": "#int x 0..2.\\n#int y 0..2.\\n'
    '#bool p.\\n2*y <= (2 | 2 : y <= 1 & not 1 <= y | 1 <= y & not y <= 1) - x -> '
    'p & (y + 2*y <= -2*x & not -2*x <= y + 2*y).\\n"}, "seed": 0, '
    '"suite": "delta-faithfulness", "violations": 1}'
)


class TestDeltaFaithfulnessReports:
    @pytest.mark.parametrize("dropped", sorted(DROPPED_DELTA_VIOLATIONS))
    def test_a_dropped_implication_is_reported_with_its_context(self, monkeypatch, dropped):
        from htc import transforms

        delta = transforms.delta

        def partial_delta(tau, name):
            implications = delta(tau, name)
            return implications[:dropped] + implications[dropped + 1 :]

        monkeypatch.setattr(transforms, "delta", partial_delta)
        found = []
        for seed in range(4):
            report = run_property_suite("delta-faithfulness", seed=seed, count=40)
            cex = report.counterexample
            assert report.violations == 1 and report.checked == cex["item"] + 1
            found.append((cex["item"], cex["detail"]["context"]))
            if dropped == 0 and seed == 0:
                assert json.dumps(report.to_json(), sort_keys=True) == DROPPED_DELTA_REPORT
        assert found == DROPPED_DELTA_VIOLATIONS[dropped]


class TestDenotationLaws:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_suite_checks_the_compiled_evaluator(self, monkeypatch, seed):
        # an evaluator that reads 0*x as 0 when x is undefined breaks
        # condition 2: substituting the undefined x by its value gives U
        from htc import semantics
        from htc.syntax import Scaled

        term_code = semantics._term_code

        def zero_times_anything(sign, term, index):
            if type(term) is Scaled and term.coeff == 0:
                return None, 0
            return term_code(sign, term, index)

        monkeypatch.setattr(semantics, "_term_code", zero_times_anything)
        report = run_property_suite("denotation-laws", seed=seed, count=50)
        assert report.violations == 1
        assert report.counterexample["law"] == 2


    def test_suite_reports_an_undefined_sum_read_as_zero(self, monkeypatch):
        # condition 1: an atom whose sum is undefined at v then can hold at
        # v and fail at a t above it
        from htc import semantics

        # every path that finds a term undefined: a U term, a fixed term and
        # the term a conditional term picks
        for old in [
            "(lambda t: False), reads",
            "return False\n            acc += k * v",
            "return False\n                k *= v",
        ]:
            new = old.replace("False", "(0, ())", 1)
            mutate(monkeypatch, semantics, "_compile_le", old, new)
        report = run_property_suite("denotation-laws", seed=0, count=50)
        assert report.violations == 1
        assert report.counterexample["law"] == 1

    def test_suite_reports_undefined_read_as_zero(self, monkeypatch):
        # condition 4: U in place of a conditional term then reads as 0, so
        # an atom can hold with U where it fails with a branch
        from htc import semantics
        from htc.syntax import Undefined

        term_code = semantics._term_code

        def undefined_is_zero(sign, term, index):
            if type(term) is Undefined:
                return None, 0
            return term_code(sign, term, index)

        monkeypatch.setattr(semantics, "_term_code", undefined_is_zero)
        report = run_property_suite("denotation-laws", seed=0, count=50)
        assert report.violations == 1
        assert report.counterexample["law"] == 4

    @pytest.mark.parametrize("seed", [0, 3])
    def test_suite_reports_an_atom_reading_another_variable(self, monkeypatch, seed):
        # condition 3: an evaluator that fails every atom where p is
        # undefined makes atoms over x and y depend on p
        from htc import checker as chk

        compile_ = chk._compile

        def p_undefined_fails(phi, index):
            at, reads = compile_(phi, index)
            p = index["p"]
            return (lambda t: False if t[p] is None else at(t)), reads

        monkeypatch.setattr(chk, "_compile", p_undefined_fails)
        report = run_property_suite("denotation-laws", seed=seed, count=50)
        assert report.violations == 1
        assert report.counterexample["law"] == 3

    @pytest.mark.parametrize("seed", [0, 3])
    def test_suite_reports_terms_of_equal_value_told_apart(self, monkeypatch, seed):
        # condition 5: an evaluator that lets every atom with a negative
        # constant hold tells -1 from -x at x = 1
        from htc import checker as chk

        compile_ = chk._compile

        def negative_constant_holds(phi, index):
            at, reads = compile_(phi, index)
            if type(phi) is Comparison and any(
                type(i) is Const and i.value < 0 for e in children(phi) for i in e.items
            ):
                return (lambda t: ()), reads
            return at, reads

        monkeypatch.setattr(chk, "_compile", negative_constant_holds)
        report = run_property_suite("denotation-laws", seed=seed, count=50)
        assert report.violations == 1
        assert report.counterexample["law"] == 5


class TestSubstitute:
    """The substitution of denotation condition 2: a variable by its value."""

    def test_scaled_becomes_product(self):
        atom = le(LinearExpr((Scaled(2, "x"),)), const_expr(4))
        assert _substitute(atom, "x", 2) == le(const_expr(4), const_expr(4))

    def test_undefined_becomes_marker(self):
        atom = le(var_expr("x"), const_expr(4))
        assert _substitute(atom, "x", None).lhs.items[0] is U

    def test_boolean_atom_freezes(self):
        assert _substitute(BoolAtom("p"), "p", TRUE) == TOP
        assert _substitute(BoolAtom("p"), "p", None) == BOT

    def test_each_occurrence_is_substituted(self):
        atom = le(LinearExpr((Scaled(2, "x"), Scaled(1, "x"))), const_expr(4))
        assert _substitute(atom, "x", 1) == le(LinearExpr((Const(2), Const(1))), const_expr(4))
        assert _substitute(atom, "x", None).lhs.items == (U, U)


class TestSupportednessSuite:
    def test_suite_reports_a_non_minimal_model(self, monkeypatch):
        # every total model then counts as stable, supported or not
        from htc import semantics

        monkeypatch.setattr(semantics, "_proper_model", lambda reduct, full: None)
        report = run_property_suite("supportedness", seed=0, count=50)
        assert report.violations == 1
        assert report.counterexample["detail"]["law"] == "lc-supported"


class TestReductPersistenceSuites:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("suite", ["persistence", "negation", "term-persistence"])
    def test_suites_check_the_clause_algebra(self, monkeypatch, suite, seed):
        # a -> b read as (not a) alone: t's full mask no longer satisfies
        # the reduct of an implication whose sides hold at t
        from htc import semantics

        implies = semantics._implies
        monkeypatch.setattr(semantics, "_implies", lambda a, b: implies(a, (0, ((0, ()),))))
        assert run_property_suite(suite, seed=seed, count=50).violations == 1


class TestSupportednessLaw:
    @pytest.mark.parametrize(
        "text, models",
        [
            # the only rule for x has a false body at {x=2, y=3}
            (
                "#int x, y 0..3. x := 1 :- y <= 2. y := 3.",
                [{"y": 3}, {"x": 2, "y": 3}],
            ),
            # a constraint supports nothing
            ("#int x 0..3. :- x <= 1.", [{"x": 2}]),
        ],
    )
    def test_htc_law_fails_on_an_unsupported_model(self, monkeypatch, text, models):
        from htc import checker as chk

        models = [Valuation(m) for m in models]
        monkeypatch.setattr(chk, "stable_models", lambda core: models)
        monkeypatch.setattr(chk, "is_supported", lambda t, core: True)
        core = desugar_theory(parse_theory(text))
        violation = chk._supportedness_law(core, core.spec)
        assert violation["detail"] == {
            "model": models[-1].to_json(),
            "law": "htc-supported",
        }

    def test_sharp_law_fails_on_a_self_supported_model(self, monkeypatch):
        # x's only rule needs x itself: its body holds at {x=1}, but no
        # longer once x is undefined
        from htc import checker as chk

        model = Valuation({"x": 1})
        monkeypatch.setattr(chk, "stable_models", lambda core: [model])
        monkeypatch.setattr(chk, "is_supported", lambda t, core: True)
        core = desugar_theory(parse_theory("#int x 0..3. x := 1 :- x >= 1."))
        violation = chk._supportedness_law(core, core.spec)
        assert violation == {
            "theory": "#int x 0..3.\nx := 1 :- 1 <= x.\n",
            "detail": {"model": {"x": 1}, "law": "htc-supported-sharp"},
        }


class TestTautologySchemata:
    def test_all_schemata_hold_under_substitution(self):
        spec = DEFAULT_SUITE_SPEC
        for i in range(6):
            rng = random.Random(901_000_003 + i)
            g = desugar_comparisons(gen_formula(rng, spec, depth=1))
            f = desugar_comparisons(gen_formula(rng, spec, depth=1))
            s = desugar_comparisons(gen_formula(rng, spec, depth=1))
            for name, build in ht_tautology_schemata():
                assert is_ht_tautology(build(g, f, s), spec), (name, i)

    def test_running_example_double_negation_instance(self):
        thy = parse_theory("#int x, y 0..3. #bool p. #true.")
        atom = desugar_theory(
            parse_theory("#int x, y 0..3. #bool p. x - (y|3:p) <= 4.")
        ).statements[0]
        assert is_ht_tautology(Implies(atom, Not(Not(atom))), thy.spec)

    def test_non_tautology_detected(self):
        assert not is_ht_tautology(BoolAtom("p"), BOOLS)


class TestTableConsistency:
    def test_table_backed_stable_matches_direct(self):
        from htc.semantics import _certificates, _projected_stable, _run

        from reference import ref_projected_stable, ref_stable_models

        thy = parse_theory(
            "#int x, y 0..2. #bool p. y = 2. sum{ x ; y } > 1 -> p."
        )
        core = desugar_theory(thy)
        assert stable_models(core) == ref_stable_models(core)
        names = core.spec.variables()
        [table] = _run([core], None, 1)
        families = _certificates(table, names)
        for ctx in ((), (BoolAtom("p"),)):
            expected = ref_projected_stable(core, names, ctx)
            assert _projected_stable(families, names, ctx) == expected


class TestShrinking:
    def test_theory_shrink_drops_irrelevant_statements_and_vars(self):
        from htc.checker import _shrink_theory

        spec = DomainSpec.make({"x": (0, 2), "y": (0, 2)}, ["p", "q"])
        p, q = BoolAtom("p"), BoolAtom("q")
        from htc.syntax import le, var_expr, const_expr

        thy = make_theory(spec, [p, q, le(var_expr("x"), const_expr(1))])

        def fails(cand):
            # pretend the violation needs exactly the statement q
            return any(s == q for s in cand.statements)

        out = _shrink_theory(thy, fails)
        assert out.statements == (q,)
        # unused variables were dropped from the spec as well
        assert out.spec.variables() == ("q",)
        # local minimality: removing the last statement stops the failure
        assert not fails(make_theory(out.spec, []))

    def test_formula_shrink_descends_to_the_failing_part(self):
        from htc.checker import _shrink_formula
        from htc.syntax import And, Or

        p, q = BoolAtom("p"), BoolAtom("q")
        phi = And(Or(p, q), Implies(q, p))

        def fails(cand):
            return q in _subtree(cand)

        out = _shrink_formula(phi, fails)
        assert out == q


def _subtree(phi):
    seen = [phi]
    if isinstance(phi, (Implies,)) or hasattr(phi, "lhs"):
        try:
            seen += _subtree(phi.lhs) + _subtree(phi.rhs)
        except AttributeError:
            pass
    return seen


class TestParallelSuites:
    def test_jobs_match_serial(self):
        a = run_property_suite("negation", seed=13, count=6)
        b = run_property_suite("negation", seed=13, count=6, jobs=2)
        assert a == b
