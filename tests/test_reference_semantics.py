"""Differential checks of the engine against the brute-force oracle of
``reference``.

This module holds the seeded corpora (random formulas and programs, theories
with conditional terms, hand-written aggregate programs, the shipped
programs) and the gates that compare the engine's satisfaction,
supportedness, HT and stable models, pruned search, reduct rows,
certificates, projected stable models under contexts and HT witnesses with
what the oracle gives on them.  It defines no evaluator of its own.  Run as
a script, ``python tests/test_reference_semantics.py N`` runs the reduct,
certificate and HT witness gates on the first N items of their corpus.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

from htc import semantics
from htc.checker import (
    DEFAULT_SUITE_SPEC,
    context_family,
    equivalent,
    gen_formula,
    gen_program,
    gen_theory_one_conditional,
)
from htc.parser import parse_theory, pretty_print
from htc.semantics import (
    Interpretation,
    Valuation,
    _below,
    _certificates,
    _compile,
    _full,
    _Index,
    _least_model,
    _open,
    _positions,
    _prefixes,
    _restrict,
    _run,
    _stable_rows,
    _valuation,
    enumerate_valuations,
    ht_models,
    is_supported,
    satisfies,
    stable_models,
    total_models,
)
from htc.syntax import (
    BOT,
    BoolAtom,
    DomainSpec,
    Implies,
    Or,
    conj,
    const_expr,
    desugar_comparisons,
    desugar_theory,
    free_vars,
    le,
    make_theory,
    var_expr,
)
from htc import transforms
from htc.transforms import theory_formulas

from mutants import mutate
import reference
from reference import (
    projections,
    ref_ht_models,
    ref_is_supported,
    ref_projected_stable,
    ref_sat,
    ref_stable_models,
    ref_table,
    subvaluations,
)

SPEC = DEFAULT_SUITE_SPEC
ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"


class TestAgainstReference:
    def test_satisfaction_agrees_on_random_formulas(self):
        for i in range(80):
            rng = random.Random(41_000_003 + i)
            phi = desugar_theory(
                make_theory(SPEC, [gen_formula(rng, SPEC)])
            ).statements[0]
            for t in enumerate_valuations(SPEC):
                for h in subvaluations(t):
                    expected = ref_sat(h, t, phi)
                    assert satisfies(Interpretation(h, t), phi) == expected

    def test_stable_models_agree_on_random_programs(self):
        for i in range(25):
            rng = random.Random(42_000_003 + i)
            prog = gen_program(rng, SPEC)
            assert stable_models(prog) == ref_stable_models(prog)

    def test_supportedness_agrees_without_formula_caches(self, monkeypatch):
        # without the assignment caches every call builds fresh but equal
        # formula objects, and each call compiles them over its own index
        for name in ("assignment_formula", "phi"):
            uncached = getattr(transforms, name).__wrapped__
            monkeypatch.setattr(transforms, name, uncached)
        for i in range(300):
            core = desugar_theory(gen_program(random.Random(i), SPEC, max_rules=4))
            for t in enumerate_valuations(SPEC):
                assert is_supported(t, core) == ref_is_supported(t, core), (i, t)

    def test_stable_models_agree_on_shipped_programs(self):
        for thy in shipped("vicious", "ysum", "ycond", "ycondp", "tax_toy"):
            assert stable_models(thy) == ref_stable_models(thy)


# --------------------------------------------------------------------------
# Seeded corpora

# hand-written programs with every aggregate function, over small domains
AGGREGATE_PROGRAMS = (
    "#int x, y 0..2. #bool p. x := 1 :- p. p | not p. sum{ x ; y : p } >= 1 -> y = 2.",
    "#int x, y 0..2. #bool p. x := 0..2. count{ x > 0 ; p } = 1.",
    "#int x, y 0..2. #bool p. y := 1. x := 2 :- not p. min{ x ; y } <= 1 -> p.",
    "#int x, y 0..2. #bool p. x := 1 ; y := 2. max{ x : p ; y } >= 2.",
)


def conditional_corpus(n=20, seed=43_000_003):
    """Theories of one or two formulas with up to 4 conditional terms each."""
    out = []
    for i in range(n):
        rng = random.Random(seed + i)
        formulas = [
            gen_formula(rng, SPEC, conditional_budget=[4])
            for _ in range(rng.randint(1, 2))
        ]
        out.append(make_theory(SPEC, formulas))
    return out


def program_corpus(n=15, seed=44_000_003):
    return [gen_program(random.Random(seed + i), SPEC) for i in range(n)]


def shipped(*names):
    return [parse_theory((PROGRAMS / f"{n}.lc").read_text()) for n in names]


def aggregate_corpus():
    return [parse_theory(text) for text in AGGREGATE_PROGRAMS]


def small_corpus():
    return (
        conditional_corpus()
        + program_corpus()
        + aggregate_corpus()
        + shipped("vicious", "ysum", "ycond", "ycondp")
    )


def context_mismatches(items):
    """The (theory, context) pairs, the empty context first for each
    theory, under which the projected stable models that
    ``_projected_stable`` reads off the theory's certificates over all its
    variables differ from the reference's."""
    bad = []
    for core, contexts in items:
        names = core.spec.variables()
        [table] = _run([core], None, 1)
        families = _certificates(table, names)
        for ctx in ((), *contexts):
            expected = ref_projected_stable(core, names, ctx)
            if semantics._projected_stable(families, names, ctx) != expected:
                bad.append((core, ctx))
    return bad


def disjunctive_context_items():
    """Theories, each with contexts drawn with "or" and "not"."""
    corpus = conditional_corpus(8) + program_corpus(6) + aggregate_corpus()
    items = []
    for i, thy in enumerate(corpus):
        core = desugar_theory(thy)
        rng = random.Random(47_000_003 + i)
        contexts = [
            (desugar_comparisons(gen_formula(rng, core.spec, conditional_budget=[0])),)
            for _ in range(7)
        ]
        items.append((core, contexts))
    p, q = BoolAtom("p"), BoolAtom("q")
    two = DomainSpec.make({}, ["p", "q"])
    items.append((make_theory(two, []), [(Or(p, q),)]))
    # at T = {p, q} the disjunction leaves K = {{p}, {q}}, both failing the
    # context, so {p, q} is stable under it
    items.append((make_theory(two, [Or(p, q)]), [(Implies(p, q), Implies(q, p))]))
    return items


class TestDifferentialGate:
    def test_stable_models_agree_with_four_conditionals(self):
        for thy in conditional_corpus() + aggregate_corpus():
            assert stable_models(thy) == ref_stable_models(thy)

    def test_ht_models_agree(self):
        for thy in small_corpus():
            assert ht_models(thy) == ref_ht_models(thy)

    def test_parallel_enumeration_agrees(self):
        corpus = small_corpus()
        for thy in corpus[::6]:
            assert ht_models(thy, jobs=2) == ref_ht_models(thy)
            assert stable_models(thy, jobs=2) == ref_stable_models(thy)

    def test_checker_table_under_contexts(self):
        corpus = conditional_corpus(8) + program_corpus(6) + aggregate_corpus()
        items = []
        for thy in corpus:
            core = desugar_theory(thy)
            assert stable_models(core) == ref_stable_models(core)
            items.append((core, context_family(core.spec)))
        assert context_mismatches(items) == []

    def test_checker_table_under_contexts_with_disjunctions(self, monkeypatch):
        # the family above is Horn; contexts with "or" and "not" have
        # reducts with disjunctive heads, tested at each H, and the tabled
        # reduct of p | q keeps one open above its least model, which the
        # certificate reader hands to its table builder
        items = disjunctive_context_items()
        assert context_mismatches(items) == []
        tabled, table = [], semantics._table

        def counted(reduct, where):
            tabled.append(reduct[1])
            return table(reduct, where)

        monkeypatch.setattr(semantics, "_table", counted)
        for core, _ in items:
            _certificates(*_run([core], None, 1), core.spec.variables())
        assert any(len(heads) > 1 for clauses in tabled for _, heads in clauses)

    def test_context_gate_fails_when_the_h_test_is_skipped(self, monkeypatch):
        # a T is kept only when the context fails at every H of some K in
        # F(T); keeping every T whose <T, T> satisfies the context is wrong
        def total_only(families, names, context=()):
            at, _ = _compile(conj(context), _Index(names))
            return {T for T in families if at(T) is not False}

        monkeypatch.setattr(semantics, "_projected_stable", total_only)
        assert context_mismatches(disjunctive_context_items()) != []

    def test_pretty_print_round_trip(self):
        for thy in small_corpus():
            assert parse_theory(pretty_print(thy)) == thy
            core = desugar_theory(thy)
            assert parse_theory(pretty_print(core)) == core


class TestMinMaxProjection:
    def test_projected_stable_models_are_distinct(self):
        # a total model fixes each min/max auxiliary from the declared
        # variables, so solve projects the auxiliaries away without merging
        # stable models
        aux = 0
        for thy in [parse_theory(t) for t in AGGREGATE_PROGRAMS if "min" in t or "max" in t]:
            names = thy.spec.variables()
            models = stable_models(thy)
            projected = [v.project(names) for v in models]
            assert len(set(projected)) == len(projected)
            aux += sum(len(v) > len(p) for v, p in zip(models, projected))
        assert aux > 0


class TestConditionalBranches:
    def test_repeated_conditions_in_one_atom(self):
        # equal conditions occur twice, with other branches each time; each
        # occurrence must get its own branch, so the engine agrees with the
        # reference at each sum the atom takes and just below it
        text = "#int x 0..9. (1|100: x<5) + (2|200: x>5) + (4|400: x<5) + (8|800: x>5) <= "
        for bound in (509, 510, 1004, 1005, 1499, 1500):
            atom = desugar_comparisons(parse_theory(f"{text}{bound}.").statements[0])
            for x in range(10):
                t = Valuation({"x": x})
                for h in subvaluations(t):
                    assert satisfies(Interpretation(h, t), atom) == ref_sat(h, t, atom), bound


# --------------------------------------------------------------------------
# Pruned search and prefix chunks

# the Boolean first variable has two values, so at two jobs the prefixes that
# make eight chunks span all three variables
PRUNE_SPEC = DomainSpec.make({"x": (0, 1), "y": (0, 2)}, ["a"])


def prune_corpus(n=6, seed=45_000_003):
    """A ground false formula, a ground true one beside one over only the
    last variable, and seeded formulas with conditional terms."""
    y = var_expr("y")
    shapes = [
        [BOT],
        [le(const_expr(0), const_expr(1)), le(y, const_expr(1))],
        [Implies(BoolAtom("a"), le(const_expr(1), y))],
    ]
    for i in range(n):
        rng = random.Random(seed + i)
        shapes.append(
            [gen_formula(rng, PRUNE_SPEC, conditional_budget=[2]) for _ in range(rng.randint(1, 3))]
        )
    return [make_theory(PRUNE_SPEC, formulas) for formulas in shapes]


def valuation_table(names, rows):
    """Table rows as ``ref_table`` gives them: each t with the set of the h
    whose masks ``_below`` reads off its reduct."""
    return [
        (
            _valuation(names, t),
            {_valuation(names, _restrict(t, m)) for m in _below(reduct, t)},
        )
        for t, reduct in rows
    ]


class TestPrunedSearch:
    def test_prefixes_span_the_boolean_first_variable(self):
        assert _prefixes(PRUNE_SPEC, 1) == [()]
        assert {len(p) for p in _prefixes(PRUNE_SPEC, 2)} == {3}

    def test_pruned_search_equals_the_unpruned_filter(self):
        for thy in prune_corpus():
            core_thy = desugar_theory(thy)
            spec, names = core_thy.spec, core_thy.spec.variables()
            expected = ref_table(thy)
            formulas = theory_formulas(core_thy)
            for jobs in (1, 2, 3):
                found = [
                    t for p in _prefixes(spec, jobs) for t, _ in total_models(spec, formulas, p)
                ]
                assert [_valuation(names, t) for t in found] == [t for t, _ in expected]
                [(_, rows)] = _run([core_thy], None, jobs)
                assert valuation_table(names, rows) == expected, jobs
                assert stable_models(thy, jobs=jobs) == ref_stable_models(thy)
                assert ht_models(thy, jobs=jobs) == ref_ht_models(thy)


# --------------------------------------------------------------------------
# The reduct: the Horn fixpoint and the mask walk


def reduct_corpus(n=600, seed=46_000_003):
    """A third each: programs, theories of formulas with up to two
    conditional terms, and theories with one conditional term."""
    out = []
    for i in range(n):
        rng = random.Random(seed + i)
        if i % 3 == 0:
            out.append(gen_program(rng, SPEC))
        elif i % 3 == 1:
            formulas = [
                gen_formula(rng, SPEC, conditional_budget=[2])
                for _ in range(rng.randint(1, 2))
            ]
            out.append(make_theory(SPEC, formulas))
        else:
            out.append(gen_theory_one_conditional(rng, SPEC))
    return out


def reduct_mismatches(corpus, jobs=1):
    """Positions of the theories whose stable models or ``_below`` rows
    differ from the reference; the masks below each t must also come in
    increasing order."""
    bad = []
    cores = [desugar_theory(thy) for thy in corpus]
    for i, (thy, table) in enumerate(zip(corpus, _run(cores, None, jobs))):
        spec, rows = table
        rows = list(rows)
        names = spec.variables()
        below = [list(_below(reduct, t)) for t, reduct in rows]
        if (
            [_valuation(names, t) for t in _stable_rows(rows)] != ref_stable_models(thy)
            or valuation_table(names, rows) != ref_table(thy)
            or any(masks != sorted(masks) for masks in below)
        ):
            bad.append(i)
    return bad


def certificate_mismatches(corpus):
    """(position, projection) for each theory and non-empty projection of
    ``SPEC``'s variables under which ``_certificates`` differs from the
    reference walk, and the number of rows the closed form drops: those
    whose reduct leaves no clause open above its least model and whose
    free positions leave the projection."""
    bad, dropped = [], 0
    cores = [desugar_theory(thy) for thy in corpus]
    for i, (spec, rows) in enumerate(_run(cores, None, 1)):
        rows = list(rows)
        table = spec, rows
        for names in projections(SPEC.variables()):
            engine = reference.decoded(semantics._certificates(table, names))
            if engine != reference.certificates(table, names):
                bad.append((i, names))
            keep = sum(1 << p for p in _positions(spec, names))
            for t, reduct in rows:
                low = _least_model(reduct)
                dropped += not _open(reduct, low) and bool(_full(t) & ~low & ~keep)
    return bad, dropped


def ht_witness_mismatches(corpus):
    """Positions of the theories whose HT check against the theory with one
    statement dropped gives another verdict or witness than the first pair
    that only one side's (mask, t) pair set has, and the number of checks
    that say "different"."""
    bad, different = [], 0
    for i, thy in enumerate(corpus):
        core = desugar_theory(thy)  # a dropped min/max side formula keeps its auxiliary
        k = i % len(core.statements)
        variant = make_theory(core.spec, core.statements[:k] + core.statements[k + 1 :])
        (spec, ra), (_, rb) = _run([core, variant], None, 1)
        pick, report = reference.first_pair_only(ra, rb), equivalent(core, variant)
        if pick is not None:
            side, m, t = pick
            names = spec.variables()
            pick = side, Interpretation(_valuation(names, _restrict(t, m)), _valuation(names, t))
        witness = report.witness and (report.witness.side, report.witness.interpretation)
        if witness != pick:
            bad.append(i)
        different += not report.equal
    return bad, different


def load_bench_inputs():
    """``perfbench/inputs.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestReductGate:
    def test_scans_agree_with_the_reference(self):
        assert reduct_mismatches(reduct_corpus()) == []

    def test_certificates_agree_with_the_walk_under_every_projection(self):
        # projections that leave variables out reach the two branches a
        # projection onto all of them never takes: the closed form's drop,
        # and the walk stopping at a model over T
        bad, dropped = certificate_mismatches(reduct_corpus()[::4])
        assert bad == [] and dropped >= 100, (bad[:5], dropped)

    @pytest.mark.parametrize(
        "old, new",
        [
            # each hidden dimension left in K(t) instead of folded away
            ("reversed(range(width, n))", "()"),
            # a row with a proper model over T kept
            ("if not K >> top & 1:", "if True:"),
        ],
        ids=["no-fold", "no-drop"],
    )
    def test_certificate_gate_fails_on_a_faulty_table(self, monkeypatch, old, new):
        corpus = reduct_corpus()[::40]
        assert certificate_mismatches(corpus)[0] == []
        mutate(monkeypatch, semantics, "_certificates", old, new)
        assert certificate_mismatches(corpus)[0] != []

    def test_ht_check_agrees_with_the_pair_sets(self):
        bad, different = ht_witness_mismatches(reduct_corpus())
        assert bad == [] and different >= 300, (bad[:5], different)

    def test_scans_agree_with_the_reference_on_a_pool(self):
        assert reduct_mismatches(reduct_corpus()[::6], jobs=2) == []

    def test_fixpoint_and_walk_each_decide_items(self, monkeypatch):
        # an item counts for the walk when some t needs it, and for the
        # fixpoint when the fixpoint alone settles some t; most reducts are
        # Horn, so the walk runs on about one item in 25
        calls = {"fixpoint": 0, "walk": 0}
        least, submodels = semantics._least_model, semantics._submodels

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(semantics, "_least_model", counted("fixpoint", least))
        monkeypatch.setattr(semantics, "_submodels", counted("walk", submodels))
        fixpoint = walk = 0
        for thy in reduct_corpus():
            calls.update(fixpoint=0, walk=0)
            [(_, rows)] = _run([desugar_theory(thy)], None, 1)
            _stable_rows(rows)
            fixpoint += calls["fixpoint"] > calls["walk"]
            walk += calls["walk"] > 0
        assert fixpoint >= 20 and walk >= 20, (fixpoint, walk)

    @pytest.mark.parametrize(
        "family, size, rows_expected, fixpoints",
        [
            # x_i := 0..2 makes every row's facts define all of it
            ("intchoice", (3, 2), 27, 0),
            # a row with q_i true has the clause q_i -> p_i, not a fact,
            # so 19 of the 27 rows need the fixpoint
            ("choice", (3,), 27, 19),
        ],
    )
    def test_fixpoint_runs_only_where_the_need_is_short(
        self, monkeypatch, family, size, rows_expected, fixpoints
    ):
        # a row whose need mask is its full mask is stable without a
        # fixpoint; every other row takes one
        inp = getattr(load_bench_inputs(), family)(*size, 0)
        [(spec, rows)] = _run([desugar_theory(parse_theory(inp.text))], None, 1)
        rows = list(rows)
        calls, least = [], semantics._least_model
        monkeypatch.setattr(semantics, "_least_model", lambda r: calls.append(r) or least(r))
        stable = [_valuation(spec.variables(), t) for t in _stable_rows(rows)]
        assert {tuple(sorted(v.to_json().items())) for v in stable} == inp.expect
        assert len(rows) == rows_expected and len(calls) == fixpoints
        assert calls == [reduct for t, reduct in rows if reduct[0] != _full(t)]

    def test_gate_fails_when_a_then_branch_drops_its_condition(self, monkeypatch):
        # at <h, t> a then-branch taken at t also needs its condition at h
        item = reduct_corpus(n=1, seed=46_000_003)
        assert reduct_mismatches(item) == []
        with_condition = "mask | reduct[0], conds + reduct[1]"
        mutate(monkeypatch, semantics, "_compile_le", with_condition, "mask, conds")
        assert reduct_mismatches(item) == [0]

    def test_fixpoint_must_not_read_disjunctive_heads_as_horn(self, monkeypatch):
        # dhead(2): each pair a_i := lo ; b_i := lo, so a t defining both
        # of a pair has the disjunctive clause a_i or b_i in its reduct
        dhead = load_bench_inputs().dhead(2, 0)
        thy = parse_theory(dhead.text)
        search = semantics.total_models

        def stable():
            return {tuple(sorted(v.to_json().items())) for v in stable_models(thy)}

        assert stable() == dhead.expect and len(ht_models(thy)) == dhead.ht_count

        def horn(join):
            def read(spec, formulas, prefix=()):
                for t, (need, rest) in search(spec, formulas, prefix):
                    yield t, (need, tuple((b, join(h)) for b, h in rest))

            return read

        # keeping the first disjunct still leaves a model of the clause, and
        # every stable t of dhead has a Horn reduct, so only the HT listing,
        # which walks up from the fixpoint, loses the h that define b_i alone
        monkeypatch.setattr(semantics, "total_models", horn(lambda heads: heads[:1]))
        assert len(ht_models(thy)) < dhead.ht_count
        # joining the disjuncts into one head makes every t stable
        monkeypatch.setattr(
            semantics, "total_models", horn(lambda heads: (sum(heads),) if heads else ())
        )
        assert stable() != dhead.expect


# --------------------------------------------------------------------------
# Compiled once, evaluated once per value of the positions a formula reads


def count_evaluations(monkeypatch):
    """Counts, from now on, the evaluations of every compiled formula node
    and the formulas whose reducts ``total_models(spec, formulas)`` keeps."""
    calls = {"evaluations": 0, "kept": 0}
    compile_, kept = semantics._compile, semantics._reducts_kept

    def counted_compile(phi, index):
        at, reads = compile_(phi, index)

        def counted(t):
            calls["evaluations"] += 1
            return at(t)

        return counted, reads

    def counted_kept(at, reads):
        calls["kept"] += 1
        return kept(at, reads)

    monkeypatch.setattr(semantics, "_compile", counted_compile)
    monkeypatch.setattr(semantics, "_reducts_kept", counted_kept)
    return calls


class TestCompileAndReuse:
    def test_a_shared_subformula_is_compiled_once(self, monkeypatch):
        spec = DomainSpec.make({"x": (0, 2)}, ["a", "b"])
        shared = le(var_expr("x"), const_expr(1))
        comparisons = []
        compile_le = semantics._compile_le

        def counted(signed_items, index):
            comparisons.append(signed_items)
            return compile_le(signed_items, index)

        monkeypatch.setattr(semantics, "_compile_le", counted)
        list(total_models(spec, [Implies(BoolAtom("a"), shared), Or(shared, BoolAtom("b"))]))
        assert len(comparisons) == 1

    def test_level_is_the_last_free_variable(self):
        # the level comes from the positions _compile gathers; the reference
        # is the highest position among the formula's free variables
        formulas_seen = with_unread = 0
        for thy in prune_corpus() + reduct_corpus():
            core_thy = desugar_theory(thy)
            formulas = theory_formulas(core_thy)
            index = _Index(core_thy.spec.variables())
            levels = [max((index[x] for x in free_vars(f)), default=-1) for f in formulas]
            assert [_compile(f, index)[1].bit_length() - 1 for f in formulas] == levels
            formulas_seen += len(formulas)
            with_unread += sum(
                len(free_vars(f)) <= level for f, level in zip(formulas, levels)
            )
        # the reduct gate runs on the same corpus, so it covers kept reducts
        assert with_unread >= formulas_seen // 4, (with_unread, formulas_seen)

    @pytest.mark.parametrize(
        "family, size, expected",
        [
            # 246 evaluations with no reducts kept
            ("choice", (3,), {"evaluations": 54, "kept": 5}),
            # the search prunes every repeat of x1 here: kept, but not reused
            ("chain", (3, 1), {"evaluations": 164, "kept": 1}),
        ],
    )
    def test_evaluations_per_search(self, monkeypatch, family, size, expected):
        # a formula that skips a position below its level is evaluated once
        # per value of what it reads; one that reads every position up to
        # its level cannot repeat, and keeps nothing
        inp = getattr(load_bench_inputs(), family)(*size, 0)
        thy = parse_theory(inp.text)
        calls = count_evaluations(monkeypatch)
        models = stable_models(thy)
        assert {tuple(sorted(v.to_json().items())) for v in models} == inp.expect
        assert calls == expected


if __name__ == "__main__":
    # the reduct, certificate and HT witness gates on the first n items of
    # their corpus (tier-1 reads 600, and every fourth of them for
    # certificates)
    corpus = reduct_corpus(int(sys.argv[1]))
    bad = reduct_mismatches(corpus)
    print(f"{len(bad)} theories differ from the reference", bad[:20])
    certs, dropped = certificate_mismatches(corpus)
    print(f"{len(certs)} (theory, projection) certificates differ from the walk", certs[:20])
    print(f"{dropped} rows dropped by the closed form")
    witnesses, different = ht_witness_mismatches(corpus)
    print(f"{len(witnesses)} HT checks differ from the pair sets", witnesses[:20])
    print(f"{different} HT checks say different")
    sys.exit(bool(bad or certs or witnesses))
