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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import Poly, _digits10, format_rational, parse_rational, poly_gcd


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


@dataclass(frozen=True)
class Family:
    """The built family: parameter block plus the polynomials themselves."""

    params: FamilyParams
    P: tuple  # P[0] is P_1, ..., P[n-2] is P_{n-1}
    f1: Poly
    f2: Poly

    @property
    def n(self) -> int:
        return self.params.n

    def Pk(self, k: int) -> Poly:
        """1-based accessor: ``Pk(k)`` is ``P_k`` for ``1 <= k <= n-1``."""
        if not 1 <= k <= self.params.n - 1:
            raise IndexError(f"P index out of range: {k}")
        return self.P[k - 1]

    def to_json(self) -> dict:
        p = self.params
        return {
            "n": p.n,
            "r": format_rational(p.r),
            "rho": format_rational(p.rho),
            "eps": format_rational(p.eps),
            "c": list(p.c),
            "d": list(p.d),
            "N": p.N,
            "P": [q.to_json() for q in self.P],
            "f1": self.f1.to_json(),
            "f2": self.f2.to_json(),
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


def family_hash(fam: Family) -> str:
    """Stable sha256 of the canonical family serialization."""
    blob = json.dumps(fam.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_family(params: FamilyParams) -> Family:
    n, eps = params.n, params.eps
    c, d = params.c, params.d
    lam = Poly.x()
    P = {n - 1: Poly.constant(eps ** c[n - 2]) - lam}
    for k in range(n - 2, 0, -1):
        prod = Poly.one()
        for j in range(k + 1, n):
            prod = prod * P[j] ** (j - k)
        P[k] = Poly.constant(eps ** c[k - 1]) - prod * lam ** (n - k)
    f1 = Poly.constant(eps)
    f2 = Poly.constant(eps**2)
    for j in range(1, n):
        f1 = f1 * P[j] ** j
        f2 = f2 * P[j]
    f1 = f1 * lam**n
    f2 = f2 * lam
    fam = Family(params=params, P=tuple(P[k] for k in range(1, n)), f1=f1, f2=f2)
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


def structural_checks(fam: Family) -> CheckReport:
    """Exact structural facts about a built family.

    Covers: unit leading coefficient (|leading| = 1) and degree ``d_k`` of
    each ``P_k``, constant terms ``P_k(0) = eps^{c_k}``, pairwise coprimality
    of the ``P_k``, and the degree formulas for ``f1`` and ``f2``.
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
        for k in range(j + 1, n):
            g = poly_gcd(fam.Pk(j), fam.Pk(k))
            add(f"gcd-P{j}-P{k}", g.degree == 0, f"gcd degree {g.degree}")
    want_f1 = sum((k + 1) * p.d[k] for k in range(n - 1)) + n
    want_f2 = sum(p.d) + 1
    add("f1-degree", fam.f1.degree == want_f1, f"degree={fam.f1.degree}, want {want_f1}")
    add("f2-degree", fam.f2.degree == want_f2, f"degree={fam.f2.degree}, want {want_f2}")
    gap = (n - 1) + sum(k * p.d[k] for k in range(n - 1))
    add(
        "f1-f2-degree-gap",
        fam.f1.degree - fam.f2.degree == gap,
        f"gap={fam.f1.degree - fam.f2.degree}, want {gap}",
    )
    return CheckReport(tuple(checks))


def default_family(n: int, **kwargs) -> Family:
    """Convenience: build the family at the default parameters."""
    return build_family(FamilyParams.build(n, **kwargs))
