"""Family construction tests.

Expected values below were derived with an independent sympy/Fraction oracle
(recursions coded separately from the library) before being frozen here.
"""

from fractions import Fraction

import pytest
import sympy as sp

import noricert.family as family_module
from noricert.arith import Poly, _digits10
from noricert.bounds import int_bracket
from noricert.certify import _side_poly, family_root_certificates, proved_recursions
from conftest import retouched
from noricert.family import (
    Family,
    FamilyParamError,
    FamilyParams,
    build_family,
    choose_epsilon,
    default_family,
    eps_upper_bound,
    family_hash,
    make_constants,
    structural_checks,
)

F = Fraction


class TestConstants:
    def test_frozen_tables(self):
        assert make_constants(2) == ((1,), (1,), 8)
        assert make_constants(3) == ((1, 4), (3, 1), 30)
        assert make_constants(4) == ((1, 4, 11), (8, 3, 1), 104)
        assert make_constants(5) == ((1, 4, 11, 29), (21, 8, 3, 1), 340)

    def test_rejects_small_n(self):
        with pytest.raises(FamilyParamError):
            make_constants(1)

    def test_recursions_from_scratch(self):
        # re-derive with an independently written loop and compare
        for n in range(2, 8):
            c, d, N = make_constants(n)
            cc = [1]
            for k in range(2, n):
                cc.append(2 * k - 1 + sum((k - j) * cc[j - 1] for j in range(1, k)))
            dd = [1]
            for k in range(n - 2, 0, -1):
                below = list(reversed(dd))  # d_{k+1}, ..., d_{n-1}
                dd.append(sum((i + 1) * below[i] for i in range(len(below))) + (n - k))
            dd.reverse()
            assert list(c) == cc
            assert list(d) == dd
            assert N == 2 * n * (sum(dd) + 1)


class TestEpsilon:
    def test_frozen_exponents(self):
        assert choose_epsilon(2, F(1, 5)) == F(1, 10**8)
        assert choose_epsilon(3, F(1, 5)) == F(1, 10**25)
        assert choose_epsilon(4, F(1, 5)) == F(1, 10**83)

    def test_minimality_property(self):
        for n in (2, 3, 4):
            for r in (F(1, 5), F(1, 7), F(3, 20)):
                eps = choose_epsilon(n, r)
                bound = eps_upper_bound(n, r)
                assert eps < bound
                assert eps * 10 >= bound  # one digit fewer would break the bound

    def test_exponent_beyond_str_conversion_guard(self):
        # at n = 8 the bound ratio has about 7600 decimal digits, past the
        # interpreter's int-to-str conversion guard of 4300
        bound = eps_upper_bound(8, F(1, 5))
        eps = choose_epsilon(8, F(1, 5))
        m = _digits10(eps.denominator) - 1
        assert m > 4300
        assert eps == F(1, 10**m)
        assert eps < bound <= 10 * eps

    def test_nonincreasing_in_n(self):
        vals = [choose_epsilon(n, F(1, 5)) for n in range(2, 6)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestParams:
    def test_default_equality_case(self):
        p = FamilyParams.build(2)
        # r = 1/5, rho = 1/2 attains equality in r <= (rho/2)(1-r)
        assert p.r == (p.rho / 2) * (1 - p.r)

    def test_r_rho_incompat_rejected(self):
        with pytest.raises(FamilyParamError) as err:
            FamilyParams.build(2, r=F(9, 10), rho=F(1, 2))
        assert err.value.violation == "r-rho-compat"

    def test_unsafe_eps_rejected_without_flag(self):
        eps = choose_epsilon(2, F(1, 5)) * 10 ** make_constants(2)[2]
        with pytest.raises(FamilyParamError) as err:
            FamilyParams.build(2, eps=eps)
        assert err.value.violation == "eps-bound"
        # the flag lets it through for refutation-path testing
        p = FamilyParams.build(2, eps=eps, allow_unsafe_eps=True)
        assert p.eps == eps

    def test_negative_eps_rejected_even_unsafe(self):
        with pytest.raises(FamilyParamError) as err:
            FamilyParams.build(2, eps=F(-1, 10), allow_unsafe_eps=True)
        assert err.value.violation == "eps-positive"

    def test_size_cap_is_configurable(self):
        with pytest.raises(FamilyParamError) as err:
            FamilyParams.build(6)
        assert err.value.violation == "n-range"
        p = FamilyParams.build(6, max_n=6)
        assert p.n == 6

    def test_rho_bounds_strict(self):
        with pytest.raises(FamilyParamError) as err:
            FamilyParams.build(2, r=F(1, 5), rho=F(1))
        assert err.value.violation == "rho-range"

    def test_chart_squares_built_once(self):
        p = FamilyParams.build(2, r=F(1, 7), rho=F(3, 5))
        squares = p.squares
        assert squares is p.squares
        expected = {
            "r2": (1, 49), "r4": (1, 2401), "rho2": (9, 25), "half_rho2": (9, 100)
        }
        for name, (num, den) in expected.items():
            bracketed = (num, den, int_bracket(num), int_bracket(den))
            assert getattr(squares, name) == bracketed
        # the cached value is not a field: equality and hashing are unchanged
        twin = FamilyParams(p.n, p.r, p.rho, p.eps, p.c, p.d, p.N)
        assert p == twin and hash(p) == hash(twin)


class TestBuild:
    def test_n2_closed_forms(self):
        fam = default_family(2)
        eps = fam.params.eps
        assert fam.Pk(1) == Poly([eps, -1])
        assert fam.f1 == Poly([0, 0, eps**2, -eps])
        assert fam.f2 == Poly([0, eps**3, -(eps**2)])
        # P_1 vanishes exactly at eps
        assert fam.Pk(1)(eps) == 0

    def test_n3_closed_forms(self):
        fam = default_family(3)
        eps = fam.params.eps
        assert fam.Pk(2) == Poly([eps**4, -1])
        assert fam.Pk(1) == Poly([eps, 0, -(eps**4), 1])

    def test_product_example_n3(self):
        fam = default_family(3)
        eps = fam.params.eps
        sq = fam.Pk(2) * fam.Pk(2)
        assert sq == Poly([eps**8, -2 * eps**4, 1])

    def test_f_formulas_against_sympy(self):
        lam, e = sp.symbols("lam e")
        for n in (2, 3):
            fam = default_family(n)
            eps = fam.params.eps
            c, d, _ = make_constants(n)
            P = {n - 1: e ** c[n - 2] - lam}
            for k in range(n - 2, 0, -1):
                prod = sp.Integer(1)
                for j in range(k + 1, n):
                    prod *= P[j] ** (j - k)
                P[k] = sp.expand(e ** c[k - 1] - prod * lam ** (n - k))
            f1 = sp.expand(e * sp.prod([P[j] ** j for j in range(1, n)]) * lam**n)
            sub = {e: sp.Rational(eps.numerator, eps.denominator)}
            want = sp.Poly(f1.subs(sub), lam).all_coeffs()[::-1]
            got = [sp.Rational(c_.numerator, c_.denominator) for c_ in fam.f1.coeffs]
            assert want == got

    def test_degree_formulas(self):
        for n in (2, 3, 4):
            fam = default_family(n)
            rep = structural_checks(fam)
            by_name = {c.name: c for c in rep.checks}
            assert by_name["f1-degree"].passed
            assert by_name["f2-degree"].passed
            assert by_name["f1-f2-degree-gap"].passed
        c5, d5, _ = make_constants(5)
        assert sum((k + 1) * d5[k] for k in range(4)) + 5 == 55
        assert sum(d5) + 1 == 34
        # at n = 5 the degrees are read from the form, with f1 and f2 (of
        # about a million bits each) never made
        fam = default_family(5)
        assert (fam.degree("f1"), fam.degree("f2")) == (55, 34)
        assert (fam.trailing_order("f1"), fam.trailing_order("f2")) == (5, 1)
        assert "f1" not in vars(fam) and "f2" not in vars(fam)


class TestStructuralChecks:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_pass_on_honest_family(self, n):
        fam = default_family(n)
        rep = structural_checks(fam)
        assert rep.all_passed, [c.name for c in rep.failed()]

    def test_tampered_leading_coefficient_detected(self):
        fam = default_family(2)
        bad_p = 2 * fam.Pk(1)
        tampered = retouched(fam, P=(bad_p,))
        rep = structural_checks(tampered)
        names = {c.name for c in rep.failed()}
        assert "P1-unit-leading" in names

    def test_tampered_constant_term_detected(self):
        fam = default_family(3)
        bad = fam.Pk(1) + Poly.constant(fam.params.eps)
        tampered = retouched(fam, P=(bad, fam.Pk(2)))
        rep = structural_checks(tampered)
        names = {c.name for c in rep.failed()}
        assert "P1-constant-term" in names


class TestCoprimalityFromRecursions:
    """``gcd-Pj-Pk`` from the recursions the root localizations proved, and
    ``poly_gcd`` wherever they are not given."""

    @staticmethod
    def _gcd_calls(monkeypatch):
        calls, real = [], family_module.poly_gcd

        def spy(p, q):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(family_module, "poly_gcd", spy)
        return calls

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_checks_as_poly_gcd(self, monkeypatch, built_families, root_certs, n):
        fam = built_families[n]
        recursions = proved_recursions(fam, root_certs[n])
        assert recursions == frozenset(range(1, n))
        calls = self._gcd_calls(monkeypatch)
        derived = structural_checks(fam, recursions)
        assert calls == []
        divided = structural_checks(fam)
        assert len(calls) == (n - 1) * (n - 2) // 2
        assert derived == divided
        gcds = [c for c in derived.checks if c.name.startswith("gcd-")]
        assert [(c.name, c.passed, c.detail) for c in gcds] == [
            (f"gcd-P{j}-P{k}", True, "gcd degree 0")
            for j in range(1, n)
            for k in range(j + 1, n)
        ]

    def test_tampered_families_still_divide(self, monkeypatch, built_families, root_certs):
        # P_1 + eps and a repeated factor break the recursion of P_1, so their
        # own localizations prove none for it and every pair is divided; the
        # untampered family's proofs name another object and count for nothing
        fam = built_families[3]
        bumped = retouched(
            fam, P=(fam.Pk(1) + Poly.constant(fam.params.eps), fam.Pk(2))
        )
        repeated = retouched(fam, P=(fam.Pk(1), fam.Pk(1)))
        for tampered in (bumped, repeated):
            own = proved_recursions(tampered, family_root_certificates(tampered))
            assert 1 not in own
            assert proved_recursions(tampered, root_certs[3]) == frozenset()
            calls = self._gcd_calls(monkeypatch)
            assert structural_checks(tampered, own) == structural_checks(tampered)
            assert len(calls) == 2
        failed = {c.name for c in structural_checks(repeated).failed()}
        assert "gcd-P1-P2" in failed


class TestSerialization:
    def test_roundtrip_and_hash(self):
        fam = default_family(3)
        blob = fam.to_json()
        back = Family.from_json(blob)
        assert back.params == fam.params
        assert (back.P, back.f1, back.f2) == (fam.P, fam.f1, fam.f2)
        assert family_hash(back) == family_hash(fam)
        other = default_family(2)
        assert family_hash(other) != family_hash(fam)

    def test_equality_and_hash_contracts(self):
        # a family is equal to another with equal params and form, and hashes
        # by its params; the params are equal, and hash alike, field by field
        fam = default_family(3)
        again = default_family(3)
        assert again is not fam and again == fam and hash(again) == hash(fam)
        assert {fam: "built"}[again] == "built"
        back = Family.from_json(fam.to_json())
        assert back.params is not fam.params
        assert back.params == fam.params and hash(back.params) == hash(fam.params)
        # read back, the polynomials are lam-rows: another form, the same hash
        assert back != fam and hash(back) == hash(fam)
        unsafe = FamilyParams.build(3, eps=fam.params.eps * 10, allow_unsafe_eps=True)
        assert unsafe != fam.params and build_family(unsafe) != fam
        p = fam.params
        assert p != (p.n, p.r, p.rho, p.eps, p.c, p.d, p.N) and fam != p

    @pytest.mark.parametrize(
        "n, digest",
        [
            (2, "e84747b248c9acd9a6ea7d06014f2f95e54bc7fb1c9a011307312bbba8cb8873"),
            (3, "21bcc430cf3eed63d2663978b3e47a760f1519f6d4fb6e267e8c685ab1fb12a5"),
            (4, "0a426c2160baefb0e9c0fe4a49dcb6fd9d862e9b42e341c6398e37f80ae598b1"),
            (5, "a00a47e3d76819cac35e16d70641af6b293bf89185185e87a9dd37f6ee6f63c1"),
        ],
    )
    def test_default_family_hash_is_pinned(self, n, digest, built_families):
        # every reduced coefficient of P_k, f1 and f2 at the default
        # parameters, as serialized; any change to the polynomial algebra
        # that moves one of them moves the digest.  The hash is written
        # from the form: n = 5 never makes f1 or f2
        fam = built_families.get(n) or default_family(n)
        assert family_hash(fam) == digest
        if n == 5:
            assert "f1" not in vars(fam) and "f2" not in vars(fam)

    @staticmethod
    def _fraction_path_hashes(fam, **kwargs):
        """The hashes of two families given by ``fam``'s polynomials, whose
        rows hold ``Fraction`` terms, each coefficient reduced as a
        ``Fraction``: ``fam`` read back from its JSON, and ``Family.of`` of
        the ``Poly``s read from its form."""
        back = Family.from_json(fam.to_json(), **kwargs)
        return family_hash(back), family_hash(retouched(fam))

    @staticmethod
    def _hash_written(monkeypatch, fam):
        """``family_hash(fam)``, and for each coefficient offered to
        ``_decimal_coefficient`` whether it was written in decimal."""
        written, real = [], family_module._decimal_coefficient

        def spy(row, L):
            text = real(row, L)
            written.append(text is not None)
            return text

        with monkeypatch.context() as patch:
            patch.setattr(family_module, "_decimal_coefficient", spy)
            return family_hash(fam), written

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_form_hash_matches_the_fraction_path(self, monkeypatch, n):
        fam = default_family(n)
        digest, written = self._hash_written(monkeypatch, fam)
        assert self._fraction_path_hashes(fam) == (digest,) * 2
        # up to n = 3 every coefficient is below _DECIMAL_DIGITS; at n = 4,
        # 36 of the 43 are written in decimal
        assert written == ([True] * 36 if n == 4 else [])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eps", [F(1, 10), F(1, 100), F(1, 3), F(1)])
    def test_unsafe_eps_hash_matches_the_fraction_path(self, monkeypatch, n, eps):
        # every coefficient offered to decimal: a small L, the fallback where
        # the lowest term of a coefficient is divisible by 2^L or 5^L, and
        # eps other than 10^-L
        monkeypatch.setattr(family_module, "_DECIMAL_DIGITS", 0)
        fam = build_family(FamilyParams.build(n, eps=eps, allow_unsafe_eps=True))
        digest, written = self._hash_written(monkeypatch, fam)
        assert self._fraction_path_hashes(fam, allow_unsafe_eps=True) == (digest,) * 2
        if eps.denominator in (10, 100):
            # at n = 4 both paths run: 26 + 17 coefficients at 1/10, 36 + 7
            # at 1/100
            assert True in written
            assert False in written or n < 4
        else:
            assert written == []

    def test_fraction_rows_are_reduced_as_fractions(self, monkeypatch, built_families):
        # every integer row is offered to decimal; a family read back by
        # from_json offers none, since its rows hold Fraction terms, and
        # hashes as the built family
        monkeypatch.setattr(family_module, "_DECIMAL_DIGITS", 0)
        fam = built_families[4]
        digest, written = self._hash_written(monkeypatch, Family.from_json(fam.to_json()))
        assert written == [] and digest == family_hash(fam)

    @pytest.mark.parametrize("count", [1, 3])
    def test_factor_count_must_be_n_minus_1(self, built_families, count):
        fam = built_families[3]
        blob = fam.to_json()
        P = (blob["P"] * 2)[:count]
        with pytest.raises(FamilyParamError) as err:
            Family.from_json({**blob, "P": P})
        assert err.value.violation == "factor-count"
        with pytest.raises(FamilyParamError) as err:
            retouched(fam, P=(fam.P * 2)[:count])
        assert err.value.violation == "factor-count"

    def test_poly_text_form(self):
        fam = default_family(2)
        eps = fam.params.eps
        assert fam.to_json()["P"][0] == [f"1/{eps.denominator}", "-1/1"]


def _poly_recursion(params, products=True):
    """P_1, ..., P_(n-1) by the recursions of the family module run on
    ``Poly``s and, with ``products``, f1 and f2 as their ``Poly`` products:
    the reference for the stored pairs read from the form, which select the
    image path of ``bounds.abs2_atoms``."""
    n, eps, c = params.n, params.eps, params.c
    lam = Poly.x()
    P = {n - 1: Poly.constant(eps ** c[n - 2]) - lam}
    for k in range(n - 2, 0, -1):
        prod = Poly.one()
        for j in range(k + 1, n):
            prod = prod * P[j] ** (j - k)
        P[k] = Poly.constant(eps ** c[k - 1]) - prod * lam ** (n - k)
    polys = [P[k] for k in range(1, n)]
    if products:
        f1, f2 = Poly.constant(eps) * lam**n, Poly.constant(eps**2) * lam
        for j, p in enumerate(polys, start=1):
            f1, f2 = f1 * p**j, f2 * p
        polys += [f1, f2]
    return [p.scaled() for p in polys]


class TestForm:
    """The family in Z[lam, eps]: P, f1 and f2 read from it on first read."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_factors_have_the_pairs_of_the_poly_recursion(self, n, built_families):
        fam = built_families.get(n) or default_family(n)
        assert [p.scaled() for p in fam.P] == _poly_recursion(fam.params, products=False)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eps", [F(1, 10), F(2, 5), F(1)])
    def test_pairs_at_other_eps(self, n, eps):
        fam = build_family(FamilyParams.build(n, eps=eps, allow_unsafe_eps=True))
        polys = (*fam.P, fam.f1, fam.f2)
        assert [p.scaled() for p in polys] == _poly_recursion(fam.params)

    @staticmethod
    def _sides(fam):
        n, eps = fam.n, fam.params.eps
        return (
            _side_poly(fam, (eps, n, tuple((j, j) for j in range(1, n)))),
            _side_poly(fam, (eps**2, 1, tuple((j, 1) for j in range(1, n)))),
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lazy_sides_are_the_product_forms(self, n):
        fam = default_family(n)
        assert "f1" not in vars(fam) and "f2" not in vars(fam)
        # the stored pairs of the Poly products
        assert [fam.f1.scaled(), fam.f2.scaled()] == _poly_recursion(fam.params)[-2:]
        assert vars(fam)["f1"] is fam.f1 and vars(fam)["f2"] is fam.f2

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eps", [None, F(1, 10), F(1, 3), F(1)])
    def test_degrees_and_orders_from_the_form(self, n, eps):
        fam = build_family(FamilyParams.build(n, eps=eps, allow_unsafe_eps=True))
        for name, poly in zip(("f1", "f2"), self._sides(fam)):
            assert fam.degree(name) == poly.degree
            assert fam.trailing_order(name) == poly.trailing_order
        assert "f1" not in vars(fam) and "f2" not in vars(fam)

    def test_form_terms_are_the_polynomials(self):
        # each term dict, valued at eps, is its polynomial
        fam = default_family(3)
        eps = fam.params.eps
        polys = (*fam.P, *self._sides(fam))
        for terms, poly in zip((*fam.form.P, fam.form.f1, fam.form.f2), polys):
            coeffs = [F(0)] * (poly.degree + 1)
            for (i, m), a in terms.items():
                coeffs[i] += a * eps**m
            assert Poly(coeffs) == poly

    def test_a_family_of_polynomials_holds_lam_rows(self, built_families):
        # from_json and Family.of: each polynomial as rows {(i, 0): c}, with
        # the stored pairs of Poly(coeffs), whose products in the ring are
        # not f1 and f2; a copy shares the built form, and hashes equal
        fam = built_families[3]
        for other in (Family.from_json(fam.to_json()), retouched(fam)):
            assert other.form.f2 == {(i, 0): c for i, c in enumerate(fam.f2.coeffs) if c}
            assert (other.P, other.f1, other.f2) == (fam.P, fam.f1, fam.f2)
            polys = (*fam.P, fam.f1, fam.f2)
            made = (*other.P, other.f1, other.f2)
            assert [p.scaled() for p in made] == [Poly(p.coeffs).scaled() for p in polys]
            assert not other.form.products_hold()
        assert fam.form.products_hold()
        copy = Family(fam.params, fam.form)
        assert copy.form is fam.form and copy == fam and hash(copy) == hash(fam)
