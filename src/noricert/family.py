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

``build_family`` builds the ``P_k`` as ``Poly``s and, next to them, the
whole family in ``Z[lam, eps]`` (``FamilyForm``): each polynomial as a
dict ``{(i, m): a}`` of terms ``a lam^i eps^m`` with small integer ``a``,
formed by ring products before ``eps`` is given its value.  A built
family reads from that form what the certificates need of ``f1`` and
``f2``:

* ``f1`` and ``f2`` are the products of its own ``P_k``, so they are
  expanded into ``Poly``s only when first read, and the certificates that
  take them as product forms read nothing;
* their degrees and vanishing orders (``Family.degree``,
  ``Family.trailing_order``);
* the serialization of ``family_hash``: at ``eps = 10^-L`` each reduced
  coefficient is written in ``decimal`` from the terms, with no binary
  integer of the coefficient's size converted; at any other ``eps`` it is
  reduced as a ``Fraction``.

A family without the form (``Family.from_json``, ``dataclasses.replace``,
one built directly) holds ``f1`` and ``f2`` as given and reads all of this
from them.
"""

from __future__ import annotations

import decimal
import hashlib
import json
from collections.abc import Collection
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class FamilyParams:
    n: int
    r: Fraction
    rho: Fraction
    eps: Fraction
    c: tuple
    d: tuple
    N: int

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
# integer a != 0: the family before eps is given its value.


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
        """The recursions of the module docstring, run on term dicts.

        Downward from k = n - 1, with S = prod_(j>k) P_j and R =
        prod_(j>k) P_j^(j-k): P_k = eps^(c_k) - lam^(n-k) R, then S picks
        up P_k and R picks up the new S, so that after k = 1 they are
        prod_j P_j and prod_j P_j^j: 2(n - 1) products in all.
        """
        P, S, R = {}, {(0, 0): 1}, {(0, 0): 1}
        for k in range(n - 1, 0, -1):
            P[k] = {(0, c[k - 1]): 1, **{(i + n - k, m): -a for (i, m), a in R.items()}}
            S = _ring_mul(P[k], S)
            R = _ring_mul(R, S)
        return cls(
            tuple(P[k] for k in range(1, n)),
            {(i + n, m + 1): a for (i, m), a in R.items()},
            {(i + 1, m + 2): a for (i, m), a in S.items()},
        )


def _rows(terms: dict) -> dict:
    """``terms`` by power of lam: {i: {m: a}}, each row the coefficient of
    lam^i as a polynomial in eps."""
    rows: dict = {}
    for (i, m), a in terms.items():
        rows.setdefault(i, {})[m] = a
    return rows


def _value(row: dict, eps: Fraction) -> Fraction:
    """sum of a eps^m over ``row``, reduced."""
    p, q = eps.numerator, eps.denominator
    top = max(row)
    return Fraction(sum(a * p**m * q ** (top - m) for m, a in row.items()), q**top)


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

    At eps = 10^-L, L >= 1, each over at least ``_DECIMAL_DIGITS`` digits
    is written in ``decimal`` (``_decimal_coefficient``); every other one,
    and one where that gives no answer, is reduced as a ``Fraction``.
    """
    rows = _rows(terms)
    degree = _end(rows, eps, top=True)
    L = _digits10(eps.denominator) - 1
    power_of_ten = L >= 1 and eps.numerator == 1 and eps.denominator == 10**L
    out = []
    for i in range(0 if degree is None else degree + 1):
        row = rows.get(i)
        text = None
        if row and power_of_ten and L * max(row) >= _DECIMAL_DIGITS:
            text = _decimal_coefficient(row, L)
        out.append(text or format_rational(_value(row, eps) if row else 0))
    return out


class _Expanded:
    """f1 or f2 of a ``Family``: the polynomial it was given or, where it
    was given none, the expansion of the product form of a built family,
    made on first read and kept."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, fam, owner=None):
        if fam is None:
            return None  # the field's default: expand on first read
        poly = fam.__dict__[self.name]
        if poly is None:
            if fam.form is None:
                raise TypeError(f"a family without a form needs {self.name}")
            poly = expand_side(fam, fam.product_form(self.name))
            fam.__dict__[self.name] = poly
        return poly

    def __set__(self, fam, poly) -> None:
        fam.__dict__[self.name] = poly


@dataclass(frozen=True)
class Family:
    """The built family: parameter block plus the polynomials themselves.

    ``form`` is the family in Z[lam, eps] (``FamilyForm``), set by
    ``build_family`` alone: a copy by ``dataclasses.replace``, a family read
    by ``from_json`` and one built directly carry none.  With it, f1 and f2
    are the products eps z^n prod P_j^j and eps^2 z prod P_j of ``P`` by
    construction; they are expanded only when read, and their degrees,
    vanishing orders and serialized coefficients are read from the form.
    """

    params: FamilyParams
    P: tuple  # P[0] is P_1, ..., P[n-2] is P_{n-1}
    f1: Poly = _Expanded()
    f2: Poly = _Expanded()
    form: Optional[FamilyForm] = field(default=None, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.params.n

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
        if self.form is None:
            return getattr(self, name).degree
        degree = _end(_rows(getattr(self.form, name)), self.params.eps, top=True)
        return -1 if degree is None else degree

    def trailing_order(self, name: str) -> int:
        """The vanishing order of f1 or f2 (``name``) at 0."""
        if self.form is None:
            return getattr(self, name).trailing_order
        order = _end(_rows(getattr(self.form, name)), self.params.eps, top=False)
        if order is None:
            raise ValueError("zero polynomial has no vanishing order")
        return order

    def to_json(self) -> dict:
        p = self.params
        if self.form is None:
            P, f1, f2 = ([q.to_json() for q in self.P], self.f1.to_json(), self.f2.to_json())
        else:
            P = [_strings(q, p.eps) for q in self.form.P]
            f1, f2 = _strings(self.form.f1, p.eps), _strings(self.form.f2, p.eps)
        return {
            "n": p.n,
            "r": format_rational(p.r),
            "rho": format_rational(p.rho),
            "eps": format_rational(p.eps),
            "c": list(p.c),
            "d": list(p.d),
            "N": p.N,
            "P": P,
            "f1": f1,
            "f2": f2,
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
        return cls(
            params=params,
            P=tuple(Poly.from_json(item) for item in obj["P"]),
            f1=Poly.from_json(obj["f1"]),
            f2=Poly.from_json(obj["f2"]),
        )


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
    n, eps = params.n, params.eps
    c = params.c
    lam = Poly.x()
    P = {n - 1: Poly.constant(eps ** c[n - 2]) - lam}
    for k in range(n - 2, 0, -1):
        prod = Poly.one()
        for j in range(k + 1, n):
            prod = prod * P[j] ** (j - k)
        P[k] = Poly.constant(eps ** c[k - 1]) - prod * lam ** (n - k)
    fam = Family(params=params, P=tuple(P[k] for k in range(1, n)))
    object.__setattr__(fam, "form", FamilyForm.build(n, c))
    return fam


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class CheckReport:
    checks: tuple

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
