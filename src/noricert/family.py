"""Construction of the polynomial disk family.

The family is parametrized by an integer ``n >= 2``, a chart-size parameter
``r``, a cone-opening parameter ``rho``, and a scale ``eps``.  Two integer
coefficient tables drive the construction:

* ``c``: forward recursion ``c_k = 2k - 1 + sum_{j<k} (k - j) c_j`` (so
  ``c_1 = 1``); these set the constant terms ``P_k(0) = eps^{c_k}``.
* ``d``: backward recursion ``d_k = sum_{j>k} (j - k) d_j + (n - k)`` with
  ``d_{n-1} = 1``; these are the degrees of the ``P_k``.

``N = 2n (d_1 + ... + d_{n-1} + 1)`` controls the admissible scale: ``eps``
must satisfy ``eps < (1/6)^N * r / (n + 2)``; the default is the largest
power of ten below that bound.

The building blocks are

* ``P_{n-1} = eps^{c_{n-1}} - lam`` and, downward for ``k <= n-2``,
  ``P_k = eps^{c_k} - P_{k+1} P_{k+2}^2 ... P_{n-1}^{n-k-1} lam^{n-k}``;
* ``f1 = eps * P_1 P_2^2 ... P_{n-1}^{n-1} * lam^n``;
* ``f2 = eps^2 * P_1 P_2 ... P_{n-1} * lam``.

``(f1, f2)`` is the coordinate pair of the disk map; everything the
certification pipeline verifies is an exact statement about these
polynomials.

A ``Family`` is its parameters and its form in Z[lam, eps]
(``FamilyForm``): P_1, ..., P_(n-1), f1 and f2, each a dict ``{(i, m): a}``
of terms ``a lam^i eps^m``.  ``build_family`` runs the recursions above on
term dicts with small integer ``a``, before ``eps`` is given its value;
``Family.of`` (``from_json``, families made by hand) takes polynomials as
rows ``{(i, 0): c}`` with ``Fraction`` ``c``.  All else is read from it:

* ``P``, ``f1`` and ``f2`` as ``Poly``s, made on first read and kept, with
  the stored pairs of the ``Poly`` products of the recursions (``_poly``);
* the degrees and vanishing orders of f1 and f2, without making them;
* the serialization of ``family_hash``: at ``eps = 10^-L`` each reduced
  coefficient of an integer row is written in ``decimal`` from the terms,
  with no binary integer of the coefficient's size converted; at any other
  ``eps``, or from ``Fraction`` terms, it is reduced as a ``Fraction``;
* whether f1 and f2 are eps lam^n prod P_j^j and eps^2 lam prod P_j in the
  ring (``FamilyForm.products_hold``), the premises ``certify`` takes.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import math
from collections.abc import Collection, Sequence
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from .arith import Poly, _digits10, _int_str, format_rational, parse_rational, poly_gcd
from .bounds import constant_factor


class FamilyParamError(ValueError):
    """A named family parameter invariant is violated."""

    def __init__(self, violation: str, message: str):
        super().__init__(f"{violation}: {message}")
        self.violation = violation


def make_constants(n: int) -> tuple:
    """Return the integer tables ``(c, d, N)`` for a given ``n``."""
    if n < 2:
        raise FamilyParamError("n-range", f"n must be >= 2, got {n}")
    c = []
    for k in range(1, n):
        c.append(2 * k - 1 + sum((k - j) * c[j - 1] for j in range(1, k)))
    d = [0] * (n - 1)
    for k in range(n - 1, 0, -1):
        d[k - 1] = sum((j - k) * d[j - 1] for j in range(k + 1, n)) + (n - k)
    N = 2 * n * (sum(d) + 1)
    return tuple(c), tuple(d), N


def eps_upper_bound(n: int, r: Fraction) -> Fraction:
    """The strict admissibility bound ``(1/6)^N * r / (n + 2)``."""
    _, _, N = make_constants(n)
    return Fraction(1, 6**N) * r / (n + 2)


def choose_epsilon(n: int, r: Fraction) -> Fraction:
    """Largest power of ten strictly below the admissibility bound.

    Returns ``10^(-m)`` for the smallest ``m`` with ``10^(-m) < bound``.
    """
    bound = eps_upper_bound(n, Fraction(r))
    if bound <= 0:
        raise FamilyParamError("r-positive", "r must be positive")
    m = max(1, _digits10(bound.denominator // bound.numerator))
    while Fraction(1, 10**m) >= bound:
        m += 1
    while m > 1 and Fraction(1, 10 ** (m - 1)) < bound:
        m -= 1
    eps = Fraction(1, 10**m)
    assert eps < bound <= Fraction(1, 10 ** (m - 1)) or m == 1
    return eps


def _check_n_range(n: int, max_n: int) -> None:
    # the cap exists because coefficient sizes explode with n; it is a
    # config knob, not a mathematical constraint
    if not 2 <= n <= max_n:
        raise FamilyParamError("n-range", f"n must be in 2..{max_n}, got {n}")


class ChartSquares(NamedTuple):
    """r^2, r^4, rho^2 and (rho/2)^2 for the scaled chart predicates, each a
    ``bounds.constant_factor``: ``(num, den, num_bracket, den_bracket)``."""

    r2: tuple
    r4: tuple
    rho2: tuple
    half_rho2: tuple


class FamilyParams:
    """The parameter block of a family; equal, and hashed, by its fields."""

    def __init__(
        self, n: int, r: Fraction, rho: Fraction, eps: Fraction, c: tuple, d: tuple, N: int
    ):
        self.n, self.r, self.rho, self.eps, self.c, self.d, self.N = n, r, rho, eps, c, d, N

    def _key(self) -> tuple:
        return self.n, self.r, self.rho, self.eps, self.c, self.d, self.N

    def __eq__(self, other):
        if type(other) is not FamilyParams:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def build(
        cls,
        n: int,
        r: Fraction = Fraction(1, 5),
        rho: Fraction = Fraction(1, 2),
        eps: Fraction | None = None,
        *,
        allow_unsafe_eps: bool = False,
        max_n: int = 5,
    ) -> "FamilyParams":
        # first: the tables and the default eps grow fast with n
        _check_n_range(n, max_n)
        r = Fraction(r)
        rho = Fraction(rho)
        c, d, N = make_constants(n)
        if eps is None:
            eps = choose_epsilon(n, r)
        params = cls(n=n, r=r, rho=rho, eps=Fraction(eps), c=c, d=d, N=N)
        params.validate(allow_unsafe_eps=allow_unsafe_eps, max_n=max_n)
        return params

    @cached_property
    def squares(self) -> ChartSquares:
        """The chart parameters' squares with their brackets, built once."""
        r, rho = self.r, self.rho
        return ChartSquares(
            *(constant_factor(q) for q in (r**2, r**4, rho**2, (rho / 2) ** 2))
        )

    def validate(self, *, allow_unsafe_eps: bool = False, max_n: int = 5) -> None:
        _check_n_range(self.n, max_n)
        if not 0 < self.r < 1:
            raise FamilyParamError("r-range", f"r must be in (0, 1), got {self.r}")
        if not 0 < self.rho < 1:
            raise FamilyParamError("rho-range", f"rho must be in (0, 1), got {self.rho}")
        if self.r > (self.rho / 2) * (1 - self.r):
            raise FamilyParamError(
                "r-rho-compat",
                f"r <= (rho/2)(1-r) required, got r={self.r}, rho={self.rho}",
            )
        if self.eps <= 0:
            raise FamilyParamError("eps-positive", f"eps must be positive, got {self.eps}")
        if not allow_unsafe_eps and self.eps >= eps_upper_bound(self.n, self.r):
            raise FamilyParamError(
                "eps-bound",
                f"eps must be < (1/6)^N * r/(n+2) = {eps_upper_bound(self.n, self.r)}, got {self.eps}",
            )
        c, d, N = make_constants(self.n)
        if self.c != c or self.c[0] != 1:
            raise FamilyParamError("c-table", "c table does not match its recursion")
        if self.d != d or self.d[-1] != 1:
            raise FamilyParamError("d-table", "d table does not match its recursion")
        if self.N != N:
            raise FamilyParamError("N-def", "N != 2n(sum d + 1)")


# ---------------------------------------------------------------------------
# The family in Z[lam, eps]
# ---------------------------------------------------------------------------

# A term dict {(i, m): a} is the polynomial sum of a lam^i eps^m, with
# a != 0: an integer in a built family, a ``Fraction`` in one given by its
# polynomials (``Family.of``, always with m = 0).


def _ring_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, m), a in p.items():
        for (j, k), b in q.items():
            key = (i + j, m + k)
            out[key] = out.get(key, 0) + a * b
    return {key: a for key, a in out.items() if a}


class FamilyForm(NamedTuple):
    """P_1, ..., P_(n-1), f1 and f2 as term dicts in Z[lam, eps]."""

    P: tuple
    f1: dict
    f2: dict

    @classmethod
    def build(cls, n: int, c: tuple) -> "FamilyForm":
        """The recursions of the module docstring, run on term dicts."""
        return cls._products(
            n,
            lambda k, R: {(0, c[k - 1]): 1, **{(i + n - k, m): -a for (i, m), a in R.items()}},
        )

    @classmethod
    def _products(cls, n: int, factor) -> "FamilyForm":
        """The P_k = ``factor(k, R)``, and f1, f2 as their products.

        Downward from k = n - 1, with S = prod_(j>k) P_j and R =
        prod_(j>k) P_j^(j-k): P_k is read, then S picks up P_k and R picks
        up the new S, so that after k = 1 they are prod_j P_j and prod_j
        P_j^j: 2(n - 1) products in all.
        """
        P, S, R = {}, {(0, 0): 1}, {(0, 0): 1}
        for k in range(n - 1, 0, -1):
            P[k] = factor(k, R)
            S = _ring_mul(P[k], S)
            R = _ring_mul(R, S)
        return cls(
            tuple(P[k] for k in range(1, n)),
            {(i + n, m + 1): a for (i, m), a in R.items()},
            {(i + 1, m + 2): a for (i, m), a in S.items()},
        )

    def products_hold(self) -> bool:
        """Whether f1 = eps lam^n prod P_j^j and f2 = eps^2 lam prod P_j in
        Z[lam, eps], which proves them at every eps; False proves nothing (a
        form given by its polynomials holds no power of eps)."""
        made = self._products(len(self.P) + 1, lambda k, R: self.P[k - 1])
        return made.f1 == self.f1 and made.f2 == self.f2


def _rows(terms: dict) -> dict:
    """``terms`` by power of lam: {i: {m: a}}, each row the coefficient of
    lam^i as a polynomial in eps."""
    rows: dict = {}
    for (i, m), a in terms.items():
        rows.setdefault(i, {})[m] = a
    return rows


def _numerator(row: dict, p: int, q: int) -> int:
    """sum of a p^m q^(M - m) over ``row``, M its top power: the row at
    eps = p/q times q^M.  ``Fraction`` terms give a ``Fraction``."""
    acc = last = 0
    for m in sorted(row):
        acc = acc * q ** (m - last) + row[m] * p**m
        last = m
    return acc


def _value(row: dict, eps: Fraction) -> Fraction:
    """sum of a eps^m over ``row``, reduced."""
    q = eps.denominator
    return Fraction(_numerator(row, eps.numerator, q), q ** max(row))


def _poly(terms: dict, eps: Fraction) -> Poly:
    """``terms`` at eps = p/q as a ``Poly``: each lam-row is an integer over
    q^M, M the top power of eps, which is the stored pair of the ``Poly``
    products of the recursions (it selects the image path of
    ``bounds.abs2_atoms``); the lcm of any ``Fraction`` terms' denominators
    joins q^M."""
    rows, p, q = _rows(terms), eps.numerator, eps.denominator
    M = max((m for _, m in terms), default=0)
    scale = math.lcm(*(a.denominator for a in terms.values() if isinstance(a, Fraction)))
    ints = [0] * (max(rows, default=-1) + 1)
    for i, row in rows.items():
        ints[i] = int(_numerator(row, p, q) * scale * q ** (M - max(row)))
    return Poly._of(ints, q**M * scale)


def _end(rows: dict, eps: Fraction, top: bool) -> Optional[int]:
    """The highest (``top``) or lowest power of lam whose coefficient is
    nonzero at ``eps``, None where there is none.

    Rows are tried from that end inwards.  One term a eps^m, a != 0, is
    nonzero at eps != 0 with nothing valued, and the end rows of a built
    family are single terms (a unit leading coefficient times eps or eps^2,
    and the product of the constants eps^(c_k)).
    """
    for i in sorted(rows, reverse=top):
        if (len(rows[i]) == 1 and eps) or _value(rows[i], eps):
            return i
    return None


# Exact decimal arithmetic for the coefficients of the family's hash: every
# operation below is an integer sum, product or shift, and ``Inexact`` traps
# any rounding.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact],
)
_ONE = decimal.Decimal(1)

# Over fewer digits than this (L times the top power of eps), a coefficient
# is reduced as a ``Fraction`` in microseconds.  Every coefficient up to
# n = 3 is, so those runs leave the arithmetic of ``decimal`` unused, and
# with it the 0.15 MiB of peak memory its code takes once run.
_DECIMAL_DIGITS = 500


def _v5(a: int) -> int:
    v = 0
    while not a % 5:
        a, v = a // 5, v + 1
    return v


def _decimal_coefficient(row: dict, L: int) -> Optional[str]:
    """``format_rational`` of sum of a 10^(-L m) over ``row``, written in
    ``decimal``, or None where the lowest term cannot give the valuations.

    Over 10^K, K = L M with M the top power, the numerator is N = sum of
    a_m 10^(L (M - m)), which is a_M modulo 10^L.  So where v_2(a_M) and
    v_5(a_M) are below L, they are v_2(N) and v_5(N) (capped at K): N is
    divided by 2^v2 5^v5 as one product by 5^v2 or 2^v5 and a shift, and
    the reduced denominator 2^(K - v2) 5^(K - v5) is written as a small
    power followed by zeros.  No binary integer of N's size is formed.
    """
    top = max(row)
    low = row[top]
    v2, v5 = (low & -low).bit_length() - 1, _v5(low)
    if max(v2, v5) >= L:
        return None
    K = L * top
    v2, v5 = min(v2, K), min(v5, K)
    N = decimal.Decimal(low)
    for m, a in row.items():
        if m != top:
            N = _EXACT.add(N, _EXACT.scaleb(decimal.Decimal(a), L * (top - m)))
    v = min(v2, v5)
    N = _EXACT.multiply(N, 5 ** (v2 - v) * 2 ** (v5 - v))
    N = _EXACT.quantize(_EXACT.scaleb(N, v - v2 - v5), _ONE)
    x, y = K - v2, K - v5
    den = _int_str(1 << (x - y)) + "0" * y if x >= y else _int_str(5 ** (y - x)) + "0" * x
    return f"{N}/{den}"


def _strings(terms: dict, eps: Fraction) -> list:
    """``Poly.to_json`` of ``terms`` at ``eps``: each reduced coefficient of
    lam^0, ..., lam^deg as ``"num/den"``.

    At eps = 10^-L, L >= 1, each with integer terms over at least
    ``_DECIMAL_DIGITS`` digits is written in ``decimal``
    (``_decimal_coefficient``); every other one, and one where that gives no
    answer, is reduced as a ``Fraction``.
    """
    rows = _rows(terms)
    degree = _end(rows, eps, top=True)
    L = _digits10(eps.denominator) - 1
    power_of_ten = L >= 1 and eps.numerator == 1 and eps.denominator == 10**L
    out = []
    for i in range(0 if degree is None else degree + 1):
        row = rows.get(i)
        text = None
        if (
            row
            and power_of_ten
            and L * max(row) >= _DECIMAL_DIGITS
            and all(isinstance(a, int) for a in row.values())
        ):
            text = _decimal_coefficient(row, L)
        out.append(text or format_rational(_value(row, eps) if row else 0))
    return out


class Family:
    """The family: its parameter block and its form in Z[lam, eps].  ``P``
    (P[0] is P_1, ..., P[n-2] is P_(n-1)), ``f1`` and ``f2`` are read from
    the form on first read and kept.  Two families are equal when their
    params and forms are; a family hashes by its params (a form holds
    dicts)."""

    def __init__(self, params: FamilyParams, form: FamilyForm):
        self.params, self.form = params, form

    def __eq__(self, other):
        if type(other) is not Family:
            return NotImplemented
        return self.params == other.params and self.form == other.form

    def __hash__(self) -> int:
        return hash(self.params)

    @classmethod
    def of(cls, params: FamilyParams, P: Sequence[Poly], f1: Poly, f2: Poly) -> "Family":
        """The family with the given polynomials, each a form of lam-rows
        ``{(i, 0): c}``; ``P`` must hold n - 1 factors."""
        if len(P) != params.n - 1:
            raise FamilyParamError(
                "factor-count", f"n = {params.n} needs {params.n - 1} factors P_k, got {len(P)}"
            )
        rows = [{(i, 0): c for i, c in enumerate(poly.coeffs) if c} for poly in (*P, f1, f2)]
        return cls(params, FamilyForm(tuple(rows[:-2]), *rows[-2:]))

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def P(self) -> tuple:
        return tuple(_poly(terms, self.params.eps) for terms in self.form.P)

    @cached_property
    def f1(self) -> Poly:
        return _poly(self.form.f1, self.params.eps)

    @cached_property
    def f2(self) -> Poly:
        return _poly(self.form.f2, self.params.eps)

    def Pk(self, k: int) -> Poly:
        """1-based accessor: ``Pk(k)`` is ``P_k`` for ``1 <= k <= n-1``."""
        if not 1 <= k <= self.params.n - 1:
            raise IndexError(f"P index out of range: {k}")
        return self.P[k - 1]

    def product_form(self, name: str) -> tuple:
        """f1 or f2 (``name``) as a side (``expand_side``): eps z^n prod
        P_j^j and eps^2 z prod P_j."""
        n, eps = self.n, self.params.eps
        if name == "f1":
            return eps, n, tuple((j, j) for j in range(1, n))
        return eps**2, 1, tuple((j, 1) for j in range(1, n))

    def degree(self, name: str) -> int:
        """The degree of f1 or f2 (``name``), -1 for zero."""
        degree = _end(_rows(getattr(self.form, name)), self.params.eps, top=True)
        return -1 if degree is None else degree

    def trailing_order(self, name: str) -> int:
        """The vanishing order of f1 or f2 (``name``) at 0."""
        order = _end(_rows(getattr(self.form, name)), self.params.eps, top=False)
        if order is None:
            raise ValueError("zero polynomial has no vanishing order")
        return order

    def to_json(self) -> dict:
        p, form = self.params, self.form
        return {
            "n": p.n,
            "r": format_rational(p.r),
            "rho": format_rational(p.rho),
            "eps": format_rational(p.eps),
            "c": list(p.c),
            "d": list(p.d),
            "N": p.N,
            "P": [_strings(q, p.eps) for q in form.P],
            "f1": _strings(form.f1, p.eps),
            "f2": _strings(form.f2, p.eps),
        }

    @classmethod
    def from_json(cls, obj: dict, *, allow_unsafe_eps: bool = False) -> "Family":
        params = FamilyParams(
            n=int(obj["n"]),
            r=parse_rational(obj["r"]),
            rho=parse_rational(obj["rho"]),
            eps=parse_rational(obj["eps"]),
            c=tuple(obj["c"]),
            d=tuple(obj["d"]),
            N=int(obj["N"]),
        )
        params.validate(allow_unsafe_eps=allow_unsafe_eps)
        P = [Poly.from_json(item) for item in obj["P"]]
        return cls.of(params, P, Poly.from_json(obj["f1"]), Poly.from_json(obj["f2"]))


def expand_side(fam: Family, side: tuple) -> Poly:
    """The expansion of a side ``(c, m, ((j, e), ...))``, the monomial
    c z^m prod_j P_j^e in the factors of ``fam``."""
    c, m, factors = side
    poly = Poly.monomial(m, c)
    for j, e in factors:
        poly = poly * fam.Pk(j) ** e
    return poly


def family_hash(fam: Family) -> str:
    """Stable sha256 of the canonical family serialization."""
    blob = json.dumps(fam.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_family(params: FamilyParams) -> Family:
    return Family(params, FamilyForm.build(params.n, params.c))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class CheckReport:
    """Named exact checks; two reports of one class are equal when their
    checks are."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple):
        self.checks = checks

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.checks == other.checks

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def passed(self, name: str) -> bool:
        """Whether the check called ``name`` is present and passed."""
        return any(c.passed for c in self.checks if c.name == name)

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
        }


def structural_checks(fam: Family, recursions: Collection[int] = ()) -> CheckReport:
    """Exact structural facts about a built family.

    Covers: unit leading coefficient (|leading| = 1) and degree ``d_k`` of
    each ``P_k``, constant terms ``P_k(0) = eps^{c_k}``, pairwise coprimality
    of the ``P_k``, and the degree formulas for ``f1`` and ``f2``.

    ``recursions`` holds the indices j whose recursion P_j = eps^(c_j) -
    z^(n-j) prod_{i>j} P_i^(i-j) is proved for ``fam`` itself (the
    ``RootLocalization.recursion`` of ``certify.family_root_certificates``).
    For such a j, every P_k with k > j divides the product, so P_j is
    congruent to its constant eps^(c_j) != 0 modulo P_k, and the two have no
    common root: their gcd has degree 0 with nothing divided.  Every other
    pair is decided by ``poly_gcd``.
    """
    p = fam.params
    n, eps = p.n, p.eps
    checks = []

    def add(name, passed, detail=""):
        checks.append(CheckResult(name, bool(passed), detail))

    for k in range(1, n):
        q = fam.Pk(k)
        lead = q.leading if not q.is_zero else Fraction(0)
        add(f"P{k}-unit-leading", abs(lead) == 1, f"leading={lead}")
        add(f"P{k}-degree", q.degree == p.d[k - 1], f"degree={q.degree}, want {p.d[k-1]}")
        add(
            f"P{k}-constant-term",
            q.coeff(0) == eps ** p.c[k - 1],
            f"constant term vs eps^{p.c[k-1]}",
        )
    for j in range(1, n):
        derived = j in recursions and eps ** p.c[j - 1] != 0
        for k in range(j + 1, n):
            degree = 0 if derived else poly_gcd(fam.Pk(j), fam.Pk(k)).degree
            add(f"gcd-P{j}-P{k}", degree == 0, f"gcd degree {degree}")
    want_f1 = sum((k + 1) * p.d[k] for k in range(n - 1)) + n
    want_f2 = sum(p.d) + 1
    deg_f1, deg_f2 = fam.degree("f1"), fam.degree("f2")
    add("f1-degree", deg_f1 == want_f1, f"degree={deg_f1}, want {want_f1}")
    add("f2-degree", deg_f2 == want_f2, f"degree={deg_f2}, want {want_f2}")
    gap = (n - 1) + sum(k * p.d[k] for k in range(n - 1))
    add(
        "f1-f2-degree-gap",
        deg_f1 - deg_f2 == gap,
        f"gap={deg_f1 - deg_f2}, want {gap}",
    )
    return CheckReport(tuple(checks))


def default_family(n: int, **kwargs) -> Family:
    """Convenience: build the family at the default parameters."""
    return build_family(FamilyParams.build(n, **kwargs))
