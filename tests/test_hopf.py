from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from ospboson import cli, hopf
from ospboson.errors import StructuralError
from ospboson.hopf import (
    AXIOM_GENERATORS,
    AXIOMS,
    CONVENTIONS,
    Factor,
    ShiftForm,
    SignConvention,
    TensorExpr,
    antipode,
    coproduct,
    coproduct_repr,
    counit,
    generator_expr,
    multiply_slots,
    search_conventions,
    tau,
    verify_axiom,
)

C = ShiftForm.of_central
HALF = Fr(1, 2)


def c_word(n):
    return TensorExpr.generator("c", n)


# ---------------------------------------------------------------------------
# ShiftForm


def test_shiftform_arithmetic():
    s = C(0) + C(1, HALF) + ShiftForm(Fr(3))
    t = C(0, -1) + ShiftForm(Fr(-3))
    total = s + t
    assert total == C(1, HALF)
    assert (-total) + total == ShiftForm()
    assert total.scale(4) == C(1, 2)


def test_shiftform_substitute():
    s = C(0, 2) + C(1) + ShiftForm(Fr(1))
    out = s.substitute(0, C(0) + C(1))
    # 2*(c_0+c_1) + c_1 + 1
    assert out == C(0, 2) + C(1, 3) + ShiftForm(Fr(1))
    assert s.substitute(5, C(9)) == s


def test_shiftform_relabel_and_str():
    s = C(0, HALF) + C(-1, -1)
    assert s.relabel(1) == C(1, HALF) + C(0, -1)
    assert str(C(0, HALF)) == "(1/2)*c_0"
    assert str(ShiftForm()) == "0"


@given(
    a=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    b=st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_shiftform_substitution_is_linear(a, b):
    repl = C(1) + ShiftForm(Fr(1, 3))
    s = C(0, a) + C(2, b)
    t = C(0, b)
    lhs = (s + t).substitute(0, repl)
    rhs = s.substitute(0, repl) + t.substitute(0, repl)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# factors and words


def test_factor_validation():
    with pytest.raises(StructuralError):
        Factor("E", 0, inverted=True)
    with pytest.raises(StructuralError):
        Factor("c", 0, C(0))
    with pytest.raises(StructuralError):
        Factor("X", 0)


def test_inverse_pair_cancellation():
    h = Factor("H+", 0, C(0, HALF))
    h_inv = Factor("H+", 0, C(0, HALF), inverted=True)
    expr = TensorExpr.word((h, h_inv))
    assert expr == TensorExpr.unit(1)
    # each cancellation exposes the next pair: H+ H- H-^-1 H+^-1 collapses
    nested = TensorExpr.word((h, Factor("H-", 0), Factor("H-", 0, inverted=True), h_inv))
    assert nested == TensorExpr.unit(1)
    # unequal shifts must not cancel
    other = TensorExpr.word((h, Factor("H+", 0, C(1, HALF), inverted=True)))
    assert other != TensorExpr(1)
    assert len(other.canonical().terms[0][1][0]) == 2


def test_canonical_idempotent():
    h = Factor("H-", 0)
    h_inv = Factor("H-", 0, inverted=True)
    e = Factor("E", 0)
    messy = TensorExpr(
        1,
        [
            (Fr(1), ((e, h, h_inv),)),
            (Fr(2), ((e,),)),
            (Fr(-3), ((e,),)),
        ],
    )
    once = messy.canonical()
    assert once.terms == once.canonical().terms
    # e*h*h^-1 + 2e - 3e = 0
    assert messy == TensorExpr(1)


def test_koszul_sign_all_parity_combinations():
    # (A1 x A2)(B1 x B2) = (-1)^{parity(A2) parity(B1)} over unit/E words
    odd = (Factor("E", 0),)
    even = ()
    for a2 in (even, odd):
        for b1 in (even, odd):
            for a1 in (even, odd):
                for b2 in (even, odd):
                    left = TensorExpr(2, [(1, (a1, a2))])
                    right = TensorExpr(2, [(1, (b1, b2))])
                    product = left * right
                    sign = -1 if (a2 and b1) else 1
                    coeff, words = product.terms[0]
                    assert coeff == sign
                    assert words == (a1 + b1, a2 + b2)


# ---------------------------------------------------------------------------
# the maps, verbatim


def test_coproduct_central():
    cop = coproduct(c_word(0), 1, n=0)
    expected = TensorExpr(2, [(Fr(1), ((Factor("c", 0),), ()))]) + TensorExpr(
        2, [(Fr(1), ((), (Factor("c", 1),)))]
    )
    assert cop == expected
    assert coproduct(c_word(0), -1, n=0) == TensorExpr(
        2, [(Fr(1), ((Factor("c", -1),), ())), (Fr(1), ((), (Factor("c", 0),)))]
    )


def test_coproduct_E_two_terms():
    cop = coproduct(generator_expr("E"), 1, n=0)
    expected = TensorExpr(2, [(Fr(1), ((Factor("E", 0),), ()))]) + TensorExpr(
        2,
        [
            (
                Fr(-1),
                ((Factor("H-", 0, C(0, HALF)),), (Factor("E", 1, C(0)),)),
            )
        ],
    )
    assert cop == expected


def test_coproduct_F_and_H():
    cop_f = coproduct(generator_expr("F"), 1, n=0)
    expected_f = TensorExpr(2, [(Fr(1), ((), (Factor("F", 1),)))]) + TensorExpr(
        2,
        [
            (
                Fr(1),
                ((Factor("F", 0, C(1)),), (Factor("H+", 1, C(1, HALF)),)),
            )
        ],
    )
    assert cop_f == expected_f
    cop_h = coproduct(generator_expr("H+"), 1, n=0)
    assert cop_h == TensorExpr(
        2,
        [
            (
                Fr(1),
                (
                    (Factor("H+", 0, C(1, HALF)),),
                    (Factor("H+", 1, C(0, -HALF)),),
                ),
            )
        ],
    )
    cop_hm = coproduct(generator_expr("H-"), 1, n=0)
    coeff, words = cop_hm.canonical().terms[0]
    assert coeff == -1
    assert words[0][0].shift == C(1, -HALF)
    assert words[1][0].shift == C(0, HALF)


def test_coproduct_unit_multiplicative():
    assert coproduct(TensorExpr.unit(1), 1, n=0) == TensorExpr.unit(2)


def test_coproduct_reexpands_central_shift():
    # the argument shift of the input is rewritten with c_0 -> c_0 + c_1
    # before the generator formula adds its own shifts
    shifted = TensorExpr.generator("E", 0, C(0))
    cop = coproduct(shifted, 1, n=0)
    reexp = C(0) + C(1)
    expected = TensorExpr(
        2, [(Fr(1), ((Factor("E", 0, reexp),), ()))]
    ) + TensorExpr(
        2,
        [
            (
                Fr(-1),
                (
                    (Factor("H-", 0, reexp + C(0, HALF)),),
                    (Factor("E", 1, reexp + C(0)),),
                ),
            )
        ],
    )
    assert cop == expected


@given(
    const=st.fractions(min_value=-2, max_value=2, max_denominator=3),
    coeff=st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
def test_coproduct_shift_additivity(const, coeff):
    # shifts pass through the coproduct additively after re-expansion
    base = coproduct(TensorExpr.generator("E", 0), 1, n=0).canonical()
    extra = ShiftForm(const) + C(0, coeff)
    shifted = coproduct(TensorExpr.generator("E", 0, extra), 1, n=0).canonical()
    delta = extra.substitute(0, C(0) + C(1))
    for (_, words_b), (_, words_s) in zip(base.terms, shifted.terms):
        for wb, ws in zip(words_b, words_s):
            for fb, fs in zip(wb, ws):
                assert fs.shift == fb.shift + delta


def test_counit_values():
    conv = SignConvention()
    assert counit(generator_expr("E"), conv, n=0) == 0
    assert counit(generator_expr("F"), conv, n=0) == 0
    assert counit(c_word(0), conv, n=0) == 0
    assert counit(TensorExpr.unit(1), conv, n=0) == 1
    assert counit(TensorExpr.generator("H+", 0, C(0, HALF)), conv, n=0) == 1
    assert counit(generator_expr("H-"), conv, n=0) == 1
    assert counit(generator_expr("H-"), SignConvention(1, -1), n=0) == -1
    # multiplicativity: a word with one odd factor dies
    word = TensorExpr.word((Factor("H+", 0), Factor("E", 0)))
    assert counit(word, conv, n=0) == 0


def test_counit_kills_central_in_surviving_slots():
    expr = coproduct(generator_expr("H+"), 1, n=0)
    out = counit(expr, slot=0, n=0)
    assert out == TensorExpr.generator("H+", 1)


def test_antipode_generators():
    assert antipode(c_word(0), 1, n=0) == TensorExpr.generator("c", 1, coeff=-1)
    assert antipode(generator_expr("H+"), 1, n=0) == TensorExpr.generator(
        "H+", 1, inverted=True
    )
    assert antipode(TensorExpr.unit(1), -1, n=0) == TensorExpr.unit(1)
    s_e = antipode(generator_expr("E"), 1, n=0)
    expected = TensorExpr(
        1,
        [
            (
                Fr(-1),
                ((Factor("H-", 1, C(1, -HALF), inverted=True), Factor("E", 1, C(1, -1))),),
            )
        ],
    )
    assert s_e == expected
    s_f = antipode(generator_expr("F"), -1, n=0)
    coeff, words = s_f.canonical().terms[0]
    assert coeff == 1
    assert [f.kind for f in words[0]] == ["F", "H+"]
    assert words[0][1].inverted


def test_antipode_reverses_with_koszul_sign():
    # S(E F) = (-1)^{1*1} S(F) S(E)
    word = TensorExpr.word((Factor("E", 0), Factor("F", 0)))
    image = antipode(word, 1, n=0)
    direct = antipode(TensorExpr.word((Factor("F", 0),)), 1, n=0) * antipode(
        TensorExpr.word((Factor("E", 0),)), 1, n=0
    )
    assert image == direct.scale(-1)


def test_tau_relabels_and_composes():
    e = generator_expr("E", 0)
    assert tau(e, 1, n=0) == TensorExpr.generator("E", 1)
    assert tau(tau(e, 1, n=0), -1, n=1) == e
    # category law tau^{(m,p)} tau^{(p,n)} = tau^{(m,n)} for |m|,|p|,|n| <= 3
    shifted = TensorExpr.generator("H-", 0, C(0, HALF))
    def chain(expr, start, stop):
        step = 1 if stop > start else -1
        cur = expr
        idx = start
        while idx != stop:
            cur = tau(cur, step, n=idx)
            idx += step
        return cur
    for mid in (-3, -1, 2, 3):
        via = chain(chain(shifted, 0, mid), mid, 1)
        assert via == chain(shifted, 0, 1)


def test_tau_rejects_mixed_indices():
    mixed = TensorExpr.word((Factor("E", 0), Factor("F", 1)))
    with pytest.raises(StructuralError):
        tau(mixed, 1, n=0)


def test_maps_act_on_the_named_member():
    # nothing is inferred from the slot: an empty slot is A_1 only when the
    # caller says so, and counit then removes c_1 from the surviving shifts
    e = Factor("E", 0, C(1))
    expr = TensorExpr(2, [(Fr(1), ((e,), ()))])
    with pytest.raises(TypeError):
        counit(expr, slot=1)
    assert counit(expr, slot=1, n=1) == TensorExpr.generator("E", 0)
    g = generator_expr("E")
    for apply in (lambda: tau(g, 1), lambda: coproduct(g, 1),
                  lambda: antipode(g, 1)):
        with pytest.raises(TypeError):
            apply()


# ---------------------------------------------------------------------------
# axioms


def test_a1_on_central_element():
    rep = verify_axiom("a1", "c")
    assert rep["verdict"] == "pass"


def test_a3_matches_expected_three_term_form():
    lhs = coproduct(coproduct(generator_expr("E"), 1, n=0), -1, slot=0, n=0)
    expected = (
        TensorExpr(3, [(Fr(1), ((Factor("E", -1),), (), ()))])
        + TensorExpr(
            3,
            [
                (
                    Fr(-1),
                    (
                        (Factor("H-", -1, C(-1, HALF)),),
                        (Factor("E", 0, C(-1)),),
                        (),
                    ),
                )
            ],
        )
        + TensorExpr(
            3,
            [
                (
                    Fr(1),
                    (
                        (Factor("H-", -1, C(-1, HALF)),),
                        (Factor("H-", 0, C(-1) + C(0, HALF)),),
                        (Factor("E", 1, C(-1) + C(0)),),
                    ),
                )
            ],
        )
    )
    assert lhs == expected


def test_a3_all_generators_all_conventions():
    for convention in CONVENTIONS:
        for gen in AXIOM_GENERATORS:
            rep = verify_axiom("a3", gen, convention)
            assert rep["verdict"] == "pass", (convention.label(), gen)


def test_a3_sides_do_not_read_the_counit():
    # a3 calls only coproduct, which reads only sigma_hminus, so the search
    # takes one a3 row per sigma
    for sigma in (1, -1):
        for gen in AXIOM_GENERATORS:
            plus, minus = (
                [side.canonical() for side in hopf._axiom_sides(
                    "a3", gen, 1, SignConvention(sigma, counit), False)]
                for counit in (1, -1))
            assert plus == minus, (sigma, gen)


def test_a1_convention_dependence():
    for convention in CONVENTIONS:
        expected_pass = convention.sigma_hminus * convention.counit_hminus == -1
        verdicts = [
            verify_axiom("a1", gen, convention)["verdict"]
            for gen in AXIOM_GENERATORS
        ]
        if expected_pass:
            assert all(v == "pass" for v in verdicts)
        else:
            assert "fail" in verdicts


def test_a2_passes_on_even_generators():
    for convention in CONVENTIONS:
        assert verify_axiom("a2", "H+", convention)["verdict"] == "pass"
        assert verify_axiom("a2", "c", convention)["verdict"] == "pass"
        assert verify_axiom("a2", "unit", convention)["verdict"] == "pass"
        hminus = verify_axiom("a2", "H-", convention)["verdict"]
        expected = "pass" if -convention.sigma_hminus == convention.counit_hminus else "fail"
        assert hminus == expected


def test_a2_obstruction_on_odd_generators():
    # m(S x id)D produces twice the cross term instead of zero, under
    # every convention; the witness difference records the doubled word
    for convention in CONVENTIONS:
        for gen in ("E", "F"):
            rep = verify_axiom("a2", gen, convention)
            assert rep["verdict"] == "fail"
            assert rep["witnesses"]
            assert all("2" in w["difference"] for w in rep["witnesses"])


def test_a2_corrected_antipode_annotation():
    good = SignConvention(1, -1)
    for gen in ("E", "F"):
        rep = verify_axiom("a2", gen, good, corrected_antipode=True)
        assert rep["verdict"] == "pass"
    # the correction does not disturb the even generators
    for gen in ("H+", "H-", "c", "unit"):
        rep = verify_axiom("a2", gen, good, corrected_antipode=True)
        assert rep["verdict"] == "pass"


def _a2_holds_on_word(kinds, convention):
    # m(S x id)D(w) = eps(w) 1 in both directions on the word w of the
    # generators kinds at n = 0, under the corrected antipode
    w = generator_expr(kinds[0]) * generator_expr(kinds[1])
    unit = TensorExpr.unit(1).scale(counit(w, convention, n=0))
    for direction, s_slot in ((1, 0), (-1, 1)):
        acted = antipode(coproduct(w, direction, convention, n=0), direction,
                         convention, slot=s_slot, n=0, corrected=True)
        if multiply_slots(acted, 0) != unit:
            return False
    return True


@pytest.mark.parametrize("kinds", [("E", "F"), ("F", "E"), ("E", "E")],
                         ids=["EF", "FE", "EE"])
def test_a2_corrected_antipode_on_odd_words_needs_graded_sign(monkeypatch, kinds):
    # no reported check puts two odd factors through a product; these words
    # do, so they fail when every word is taken as even
    good = SignConvention(1, -1)
    assert _a2_holds_on_word(kinds, good)
    monkeypatch.setattr(hopf, "word_parity", lambda word: 0)
    assert not _a2_holds_on_word(kinds, good)


def test_search_conventions_summary():
    rep = search_conventions()
    assert rep["verdict"] == "fail"
    assert rep["conventions_passing_all"] == []
    assert rep["universal_failures"] == ["a2:E", "a2:F"]
    annotated = rep["corrected_antipode_annotation"]["passing_conventions"]
    assert annotated == ["sigma=+1, counit=-1", "sigma=-1, counit=+1"]
    for table in rep["tables"]:
        assert table["results"]["a3:E"] == "pass"


def _search_with_full_corrected_tables():
    # every axiom on every generator under every convention, uncorrected and
    # corrected, each table rebuilt in full
    def table(convention, corrected):
        return {"%s:%s" % (axiom, gen): verify_axiom(
                    axiom, gen, convention, corrected_antipode=corrected)["verdict"]
                for axiom in sorted(AXIOMS) for gen in sorted(AXIOM_GENERATORS)}

    tables = [table(c, False) for c in CONVENTIONS]
    passing = [c.label() for c, t in zip(CONVENTIONS, tables)
               if all(v == "pass" for v in t.values())]
    return {
        "tables": [{"convention": c.label(), "results": t,
                    "all_pass": c.label() in passing}
                   for c, t in zip(CONVENTIONS, tables)],
        "conventions_passing_all": passing,
        "universal_failures": [k for k in tables[0]
                               if all(t[k] == "fail" for t in tables)],
        "corrected_passing": [c.label() for c in CONVENTIONS
                              if all(v == "pass"
                                     for v in table(c, True).values())],
        "verdict": "pass" if passing else "fail",
    }


def test_search_conventions_matches_full_corrected_tables():
    rep = search_conventions()
    ref = _search_with_full_corrected_tables()
    assert rep["corrected_antipode_annotation"]["passing_conventions"] == (
        ref.pop("corrected_passing"))
    for key, value in ref.items():
        assert rep[key] == value, key


def test_search_conventions_reuses_given_rows():
    # the suite's rows under one convention, handed to the search, give the
    # report that the search makes on its own
    conv = SignConvention(-1, 1)
    rows = [verify_axiom(axiom, gen, conv, trace=True)
            for axiom in AXIOMS for gen in AXIOM_GENERATORS]
    assert search_conventions(rows) == search_conventions()


def test_hopf_suite_verify_axiom_count(monkeypatch, tmp_path):
    # 18 rows of the suite, which the search reuses for the CLI's
    # convention; 42 uncorrected rows of the other three conventions, whose
    # a3 rows are taken once per sigma (6 a3 rows come from the suite's,
    # 6 are run); and the 8 a2 rows on E and F of the corrected-antipode
    # annotation
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return verify_axiom(*args, **kwargs)

    monkeypatch.setattr(hopf, "verify_axiom", counted)
    monkeypatch.setattr(cli, "verify_axiom", counted)
    cli._suite_hopf(cli.RunConfig(suite="hopf", out=str(tmp_path / "r.json")))
    assert len(calls) == 68


def test_hopf_suite_coefficients_are_ints(monkeypatch, tmp_path):
    # the maps make only +-1, +-sigma and counit values, so every
    # coefficient of both sides of the suite's 68 rows is an int; the
    # shifts stay Fractions
    rows, sides = [], []
    axiom_sides = hopf._axiom_sides

    def counted(*args, **kwargs):
        rows.append(args[:2])
        return verify_axiom(*args, **kwargs)

    def recorded(*args):
        lhs, rhs = axiom_sides(*args)
        sides.extend((lhs, rhs))
        return lhs, rhs

    monkeypatch.setattr(hopf, "verify_axiom", counted)
    monkeypatch.setattr(cli, "verify_axiom", counted)
    monkeypatch.setattr(hopf, "_axiom_sides", recorded)
    cli._suite_hopf(cli.RunConfig(suite="hopf", out=str(tmp_path / "r.json")))
    assert len(rows) == 68
    coeffs = [c for side in sides for c, _ in side.terms]
    assert coeffs and all(type(c) is int for c in coeffs)
    shifts = [f.shift.constant for side in sides for _, words in side.terms
              for w in words for f in w]
    assert shifts and all(type(s) is Fr for s in shifts)


@pytest.mark.parametrize("make", [
    lambda: TensorExpr.generator("E", 0, coeff=0.5),
    lambda: TensorExpr(1, [(1.0, ((),))]),
    lambda: generator_expr("H+").scale(1.5),
    lambda: TensorExpr(1).scale(2.0),
    lambda: C(0, 0.5),
])
def test_float_coefficient_refused(make):
    with pytest.raises(StructuralError, match="exact rationals"):
        make()


def test_axiom_reports_are_traceable():
    rep = verify_axiom("a1", "E", SignConvention(1, -1), trace=True)
    assert rep["verdict"] == "pass"
    assert any("lhs" in line for line in rep["trace"])


def test_coproduct_repr_golden():
    text = coproduct_repr("E")
    assert "E(z; 0) (x) 1" in text
    assert "H-(z*p^((1/2)*c_0); 0) (x) E(z*p^(c_0); 1)" in text
