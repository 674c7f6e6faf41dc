"""Unit and property tests for the affine-form algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.affine import Affine, NonAffineError

SYMS = ["i", "j", "k", "n"]


def affine_st():
    return st.builds(
        Affine,
        st.integers(-50, 50),
        st.dictionaries(st.sampled_from(SYMS), st.integers(-5, 5), max_size=3),
    )


def env_st():
    return st.fixed_dictionaries({s: st.integers(-10, 10) for s in SYMS})


class TestConstruction:
    def test_zero_coeffs_dropped(self):
        form = Affine(3, {"i": 0, "j": 2})
        assert form.coeffs == {"j": 2}

    def test_constant(self):
        assert Affine.constant(7).const == 7
        assert Affine.constant(7).is_constant

    def test_symbol(self):
        form = Affine.symbol("i", 3)
        assert form.coeff("i") == 3
        assert not form.is_constant

    def test_symbols_set(self):
        form = Affine(1, {"i": 2, "j": -1})
        assert form.symbols == {"i", "j"}

    def test_equal_forms_hash_equal(self):
        a = Affine(1, {"i": 2, "j": 0})
        b = Affine(1, {"i": 2})
        assert a == b and hash(a) == hash(b)


class TestAlgebra:
    def test_add(self):
        a = Affine(1, {"i": 2})
        b = Affine(3, {"i": -2, "j": 1})
        assert a + b == Affine(4, {"j": 1})

    def test_add_int(self):
        assert Affine(1, {"i": 1}) + 5 == Affine(6, {"i": 1})
        assert 5 + Affine(1, {"i": 1}) == Affine(6, {"i": 1})

    def test_sub(self):
        a = Affine(1, {"i": 2})
        assert a - a == Affine(0)

    def test_rsub(self):
        assert 10 - Affine(1, {"i": 1}) == Affine(9, {"i": -1})

    def test_neg(self):
        assert -Affine(1, {"i": 2}) == Affine(-1, {"i": -2})

    def test_scale(self):
        assert Affine(1, {"i": 2}).scaled(3) == Affine(3, {"i": 6})
        assert Affine(1, {"i": 2}).scaled(0) == Affine(0)

    def test_mul_constant_form(self):
        assert Affine(2, {"i": 1}) * Affine(3) == Affine(6, {"i": 3})

    def test_mul_nonlinear_raises(self):
        with pytest.raises(NonAffineError):
            _ = Affine(0, {"i": 1}) * Affine(0, {"j": 1})

    def test_substitute(self):
        form = Affine(1, {"i": 2, "j": 1})
        out = form.substitute("i", Affine(3, {"k": 1}))
        assert out == Affine(7, {"k": 2, "j": 1})

    def test_substitute_int(self):
        assert Affine(0, {"i": 2}).substitute("i", 4) == Affine(8)

    def test_substitute_absent_symbol_is_identity(self):
        form = Affine(1, {"i": 2})
        assert form.substitute("z", 99) is form


class TestEvaluation:
    def test_evaluate(self):
        form = Affine(1, {"i": 2, "j": -1})
        assert form.evaluate({"i": 3, "j": 4}) == 3

    def test_evaluate_unbound_raises(self):
        with pytest.raises(NonAffineError):
            Affine(0, {"i": 1}).evaluate({})

    def test_interval_positive_coeff(self):
        assert Affine(0, {"i": 2}).interval({"i": (1, 5)}) == (2, 10)

    def test_interval_negative_coeff(self):
        assert Affine(0, {"i": -2}).interval({"i": (1, 5)}) == (-10, -2)

    def test_interval_mixed(self):
        form = Affine(1, {"i": 1, "j": -1})
        assert form.interval({"i": (0, 3), "j": (0, 2)}) == (-1, 4)

    def test_interval_missing_range_raises(self):
        with pytest.raises(NonAffineError):
            Affine(0, {"i": 1}).interval({})

    def test_interval_empty_range_raises(self):
        with pytest.raises(NonAffineError):
            Affine(0, {"i": 1}).interval({"i": (3, 2)})


class TestProperties:
    @given(affine_st(), affine_st(), env_st())
    def test_add_matches_pointwise(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(affine_st(), affine_st(), env_st())
    def test_sub_matches_pointwise(self, a, b, env):
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)

    @given(affine_st(), st.integers(-7, 7), env_st())
    def test_scale_matches_pointwise(self, a, k, env):
        assert a.scaled(k).evaluate(env) == k * a.evaluate(env)

    @given(affine_st(), st.sampled_from(SYMS), affine_st(), env_st())
    def test_substitution_matches_pointwise(self, a, sym, repl, env):
        substituted = a.substitute(sym, repl)
        env2 = dict(env)
        env2[sym] = repl.evaluate(env)
        assert substituted.evaluate(env) == a.evaluate(env2)

    @given(affine_st(), env_st())
    def test_interval_contains_value(self, a, env):
        ranges = {s: (min(v, v + 3), max(v, v + 3)) for s, v in env.items()}
        lo, hi = a.interval(ranges)
        assert lo <= a.evaluate(env) <= hi

    @given(affine_st())
    def test_str_roundtrip_stability(self, a):
        # Display must be deterministic and non-empty.
        assert str(a) == str(Affine(a.const, a.coeffs))
        assert str(a)


# -- the lean value against a plain-dict reference model ----------------------
#
# The model is ``(const, {name: coeff})`` with no canonical form at all:
# zeros may be stored, order is whatever the operations produced.  Only
# ``canon`` (drop zeros, sort) stands between it and an ``Affine``.


def canon(const, coeffs):
    return int(const), {n: int(c) for n, c in sorted(coeffs.items()) if c}


def model_of(form):
    return form.const, dict(form.coeffs)


def model_substitute(model, name, repl):
    const, coeffs = model[0], dict(model[1])
    c = coeffs.pop(name, 0)
    if isinstance(repl, int):
        return const + c * repl, coeffs
    for n, k in repl[1].items():
        coeffs[n] = coeffs.get(n, 0) + c * k
    return const + c * repl[0], coeffs


def disguised(draw, value):
    """``value`` as an ``int``, or as an equal ``bool`` / ``numpy`` integer."""
    kinds = [int, np.int64, np.int32]
    if value in (0, 1):
        kinds.append(bool)
    return draw(st.sampled_from(kinds))(value)


@st.composite
def spelled_twice(draw):
    """One form, its canonical model, and two arbitrary spellings of it:
    terms in any order, zero terms added, values of any integer type."""
    const = draw(st.integers(-50, 50))
    coeffs = draw(
        st.dictionaries(st.sampled_from(SYMS + ["a'd1", "_delta0"]),
                        st.integers(-5, 5), max_size=5)
    )
    spellings = []
    for _ in range(2):
        terms = draw(st.permutations(list(coeffs.items())))
        spellings.append((
            disguised(draw, const),
            {name: disguised(draw, c) for name, c in terms},
        ))
    return canon(const, coeffs), spellings


def binding_st():
    return st.one_of(st.integers(-9, 9), affine_st())


class TestAgainstDictModel:
    @given(spelled_twice())
    def test_spelling_never_shows(self, case):
        (const, coeffs), spellings = case
        a, b = (Affine(c, k) for c, k in spellings)
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
        assert hash(a) == hash((const, tuple(coeffs.items())))
        for form in (a, b):
            assert type(form.const) is int and form.const == const
            assert list(form.coeffs.items()) == list(coeffs.items())
            assert all(type(c) is int for c in form.coeffs.values())

    @given(st.integers(-50, 50))
    def test_constant_forms_share_one_empty_mapping(self, value):
        assert Affine(value).coeffs is Affine(value, {"i": 0}).coeffs
        assert Affine(value).coeffs == {}

    @given(affine_st(), affine_st())
    def test_sub_is_add_of_negation(self, a, b):
        assert a - b == a + (-b)
        assert hash(a - b) == hash(a + (-b)) and str(a - b) == str(a + (-b))
        assert model_of(a - b) == canon(
            a.const - b.const,
            {n: a.coeff(n) - b.coeff(n) for n in a.symbols | b.symbols},
        )

    @given(affine_st(), st.integers(-60, 60))
    def test_int_operands(self, a, k):
        assert a - k == a + (-k) == Affine(a.const - k, a.coeffs)
        assert k - a == (-a) + k == Affine(k - a.const, (-a).coeffs)

    @given(affine_st(), st.integers(-7, 7))
    def test_scaled(self, a, k):
        assert model_of(a.scaled(k)) == canon(
            a.const * k, {n: c * k for n, c in a.coeffs.items()}
        )

    @given(affine_st(), st.sampled_from(SYMS), binding_st())
    def test_substitute(self, a, name, repl):
        expected = model_substitute(
            model_of(a), name, repl if isinstance(repl, int) else model_of(repl)
        )
        assert model_of(a.substitute(name, repl)) == canon(*expected)

    @given(affine_st(),
           st.dictionaries(st.sampled_from(SYMS), binding_st(), max_size=4))
    def test_substitute_all_is_substitute_in_order(self, a, bindings):
        expected, stepwise = model_of(a), a
        for name, repl in bindings.items():
            expected = model_substitute(
                expected, name,
                repl if isinstance(repl, int) else model_of(repl),
            )
            stepwise = stepwise.substitute(name, repl)
        out = a.substitute_all(bindings)
        assert model_of(out) == canon(*expected)
        assert out == stepwise and hash(out) == hash(stepwise)
        if not any(name in a.coeffs for name in bindings):
            assert out is a

    @given(affine_st(), env_st())
    def test_evaluate_and_interval(self, a, env):
        const, coeffs = model_of(a)
        assert a.evaluate(env) == const + sum(c * env[n] for n, c in coeffs.items())
        ranges = {s: (v - 2, v + 3) for s, v in env.items()}
        corners = [
            (c * ranges[n][0], c * ranges[n][1]) for n, c in coeffs.items()
        ]
        assert a.interval(ranges) == (
            const + sum(min(pair) for pair in corners),
            const + sum(max(pair) for pair in corners),
        )
