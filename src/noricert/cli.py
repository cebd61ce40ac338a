"""Command-line front end for the certification pipeline.

``noricert verify`` builds the disk family for a range of sizes, runs every
certificate layer (structural facts, root localization, annulus bounds, the
scalar inequality chains, divisibility, chart geometry, and the per-size
disk trace), and emits a JSON or text report.  Exit codes follow the CI
contract:

* 0 — every certificate proved,
* 1 — at least one refutation,
* 2 — no refutation, but at least one non-answer (budget exhaustion),
* 64 — invalid configuration or usage.

Identical configurations produce byte-identical reports except for the
``meta`` section (timestamps and wall-clock timings).
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .arith import format_rational, parse_rational
from .atlas import (
    IntersectionMatrix,
    disjointness_search,
    negative_definite,
    overlap_polydisk_check,
)
from .certify import (
    DEFAULT_BUDGET,
    Status,
    annulus_bounds_certificate,
    corollary_ineq_certificate,
    exact_identity_checks,
    family_root_certificates,
    lemma_div_check,
    worst,
)
from .disktrace import trace_family
from .family import (
    FamilyParamError,
    FamilyParams,
    build_family,
    family_hash,
    structural_checks,
)

__all__ = ["RunConfig", "UsageError", "build_parser", "main", "run_verify"]

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

BUDGET_ENV_VAR = "NORICERT_BUDGET"
REPORT_SCHEMA = "noricert-report/1"

# the two reference intersection matrices: the contractible configuration
# and the non-exceptional one
_MATRIX_GOOD = IntersectionMatrix(-3, 2, -3)
_MATRIX_BAD = IntersectionMatrix(-2, 2, -2)


class UsageError(ValueError):
    """Invalid command line or configuration; maps to exit code 64."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run parameters for ``run_verify``."""

    n_list: tuple[int, ...]
    r: Fraction = Fraction(1, 5)
    rho: Fraction = Fraction(1, 2)
    eps_override: Optional[Fraction] = None
    allow_unsafe_eps: bool = False
    samples: int = 2048
    subdivision_budget: int = DEFAULT_BUDGET
    seed: int = 0
    output_format: str = "json"
    out_path: Optional[str] = None
    histogram: bool = False
    max_n: int = 5

    def validate(self) -> None:
        """Run-level checks here; family parameters by ``FamilyParams``.

        An inadmissible eps is let through: it refutes the family at run
        time instead of being a usage error.
        """
        if not self.n_list:
            raise UsageError("at least one size n is required")
        if len(set(self.n_list)) != len(self.n_list):
            raise UsageError("duplicate sizes in the n list")
        for n in self.n_list:
            try:
                FamilyParams.build(
                    n,
                    r=self.r,
                    rho=self.rho,
                    eps=self.eps_override,
                    allow_unsafe_eps=True,
                    max_n=self.max_n,
                )
            except FamilyParamError as exc:
                raise UsageError(str(exc)) from exc
        if self.samples < 1:
            raise UsageError("samples must be positive")
        if self.subdivision_budget < 1:
            raise UsageError("budget must be positive")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if self.output_format not in ("json", "text"):
            raise UsageError(f"unknown format: {self.output_format}")

    def to_json(self) -> dict:
        return {
            "n_list": list(self.n_list),
            "r": format_rational(self.r),
            "rho": format_rational(self.rho),
            "eps_override": (
                None
                if self.eps_override is None
                else format_rational(self.eps_override)
            ),
            "allow_unsafe_eps": self.allow_unsafe_eps,
            "samples": self.samples,
            "subdivision_budget": self.subdivision_budget,
            "seed": self.seed,
        }


def parse_n_range(text: str) -> tuple[int, ...]:
    """Parse ``"3"`` or ``"2..4"`` into an explicit tuple of sizes."""
    s = text.strip()
    try:
        if ".." in s:
            lo_s, hi_s = s.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise UsageError(f"empty range: {text!r}")
            return tuple(range(lo, hi + 1))
        return (int(s),)
    except ValueError as exc:
        raise UsageError(f"invalid n or n-range: {text!r}") from exc


def _parse_rational_arg(name: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(f"invalid {name}: {exc}") from exc


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"invalid {BUDGET_ENV_VAR}: {raw!r}") from exc
    if value < 1:
        raise UsageError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as UsageError (exit 64)."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noricert",
        description="Exact-arithmetic certification of the polynomial disk family.",
    )
    sub = parser.add_subparsers(dest="command")
    verify = sub.add_parser(
        "verify",
        help="run the certification pipeline over a range of sizes",
        description=(
            "Build the family for each requested n and certify every layer; "
            "report as JSON or a text table."
        ),
    )
    verify.add_argument(
        "--n",
        default="2..4",
        metavar="N|LO..HI",
        help="size or inclusive size range, e.g. 3 or 2..4 (default 2..4)",
    )
    verify.add_argument(
        "--r", default="1/5", metavar="NUM/DEN", help="chart radius (default 1/5)"
    )
    verify.add_argument(
        "--rho", default="1/2", metavar="NUM/DEN", help="cone opening (default 1/2)"
    )
    verify.add_argument(
        "--eps",
        default=None,
        metavar="NUM/DEN",
        help="override the scale parameter (default: largest admissible power of ten)",
    )
    verify.add_argument(
        "--unsafe-eps",
        action="store_true",
        help="run the pipeline even when --eps violates its admissibility bound",
    )
    verify.add_argument(
        "--samples",
        type=int,
        default=2048,
        help="disk witness sample count; other sample plans scale from it (default 2048)",
    )
    verify.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"subdivision budget (default: ${BUDGET_ENV_VAR} or {DEFAULT_BUDGET})",
    )
    verify.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    verify.add_argument(
        "--format",
        dest="output_format",
        choices=("json", "text"),
        default="json",
        help="report format (default json)",
    )
    verify.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report to a file instead of stdout",
    )
    verify.add_argument(
        "--histogram",
        action="store_true",
        help=(
            "append a text histogram of witness chart indices (text format; "
            "JSON reports always carry the counts)"
        ),
    )
    verify.add_argument(
        "--max-n",
        type=int,
        default=5,
        help="largest size accepted by validation (default 5)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        n_list=parse_n_range(args.n),
        r=_parse_rational_arg("r", args.r),
        rho=_parse_rational_arg("rho", args.rho),
        eps_override=(
            None if args.eps is None else _parse_rational_arg("eps", args.eps)
        ),
        allow_unsafe_eps=args.unsafe_eps,
        samples=args.samples,
        subdivision_budget=(
            _default_budget() if args.budget is None else args.budget
        ),
        seed=args.seed,
        output_format=args.output_format,
        out_path=args.out,
        histogram=args.histogram,
        max_n=args.max_n,
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Pipeline execution
# ---------------------------------------------------------------------------

def _entry(name: str, status: Status, detail: str = "", data=None) -> dict:
    out = {"name": name, "status": status.value, "detail": detail}
    if data is not None:
        out["data"] = data
    return out


def _status_of(entry: dict) -> Status:
    return Status(entry["status"])


def _run_family(config: RunConfig, n: int) -> dict:
    """All certificate layers for one size; returns the per-n report entry.

    This is the one place that orders the stages of a family: each stage
    runs once and receives the earlier stages it uses as arguments.
    """
    budget = config.subdivision_budget
    try:
        params = FamilyParams.build(
            n,
            r=config.r,
            rho=config.rho,
            eps=config.eps_override,
            allow_unsafe_eps=config.allow_unsafe_eps,
            max_n=config.max_n,
        )
    except FamilyParamError as exc:
        if exc.violation == "eps-bound":
            # an inadmissible scale parameter is a mathematical refutation
            # of the configured family, not a usage error
            return {
                "n": n,
                "family": None,
                "certificates": [
                    _entry("scale-admissible", Status.REFUTED, str(exc))
                ],
                "trace": None,
            }
        raise UsageError(str(exc)) from exc

    fam = build_family(params)
    certificates = []

    structural = structural_checks(fam)
    certificates.append(
        _entry(
            "structural",
            Status.PROVED if structural.all_passed else Status.REFUTED,
            f"{len(structural.checks)} exact checks",
            structural.to_json(),
        )
    )

    roots = family_root_certificates(fam, budget=budget)
    certificates.append(
        _entry(
            "root-localization",
            worst(rc.status for rc in roots.values()),
            f"{len(roots)} factors",
            {str(k): rc.to_json() for k, rc in roots.items()},
        )
    )

    annulus = annulus_bounds_certificate(fam, roots)
    certificates.append(
        _entry(
            "annulus-bounds",
            annulus.status,
            annulus.detail,
            annulus.to_json(),
        )
    )

    corollary = corollary_ineq_certificate(fam, annulus)
    certificates.append(
        _entry(
            "modulus-chain",
            corollary.status,
            f"{len(corollary.checks)} inequality checks",
            corollary.to_json(),
        )
    )

    identities = exact_identity_checks(fam)
    certificates.append(
        _entry(
            "exact-identities",
            Status.PROVED if identities.all_passed else Status.REFUTED,
            f"{len(identities.checks)} division identities",
            identities.to_json(),
        )
    )

    divisions = [lemma_div_check(fam, k) for k in range(1, n)]
    for k, witness in enumerate(divisions, start=1):
        certificates.append(
            _entry(f"divisibility-k{k}", witness.status, witness.detail, witness.to_json())
        )

    trace = trace_family(
        fam,
        root_certs=roots,
        corollary=corollary,
        identities=identities,
        divisions=divisions,
        window_samples=max(16, config.samples // 32),
        cone_samples=max(16, config.samples // 8),
        witness_samples=config.samples,
        sup_samples=max(32, config.samples // 4),
        seed=config.seed,
        budget=budget,
    )

    return {
        "n": n,
        "family": {
            "n": n,
            "r": format_rational(params.r),
            "rho": format_rational(params.rho),
            "eps": format_rational(params.eps),
            "c": list(params.c),
            "d": list(params.d),
            "N": params.N,
            "hash": family_hash(fam),
        },
        "certificates": certificates,
        "trace": trace.to_json(),
    }


def _run_atlas(config: RunConfig) -> dict:
    """Chart-geometry checks; they depend on r and the seed only."""
    checks = []
    pairs = ((0, 2), (1, 3), (0, 3))
    for j, k in pairs:
        report = disjointness_search(
            config.r, j, k, config.samples, config.seed
        )
        checks.append(
            _entry(
                f"chart-disjointness-{j}-{k}",
                Status.PROVED if report.disjoint else Status.REFUTED,
                report.detail,
                report.to_json(),
            )
        )
    overlap = overlap_polydisk_check(config.r, max(2, config.samples), config.seed)
    checks.append(
        _entry(
            "overlap-polydisk",
            Status.PROVED if overlap.passed else Status.REFUTED,
            overlap.detail,
            overlap.to_json(),
        )
    )
    definite_ok = negative_definite(_MATRIX_GOOD) and not negative_definite(
        _MATRIX_BAD
    )
    checks.append(
        _entry(
            "intersection-matrices",
            Status.PROVED if definite_ok else Status.REFUTED,
            "contractible configuration accepted, non-exceptional one rejected",
        )
    )
    return {"checks": checks}


def run_verify(config: RunConfig) -> tuple[dict, int]:
    """Execute the full pipeline; returns (report, exit_code)."""
    started = time.time()
    per_n = [_run_family(config, n) for n in sorted(config.n_list)]
    atlas = _run_atlas(config)

    statuses = [
        _status_of(entry)
        for item in per_n
        for entry in item["certificates"]
    ]
    statuses.extend(_status_of(check) for check in atlas["checks"])
    for item in per_n:
        if item["trace"] is not None:
            statuses.append(Status(item["trace"]["status"]))

    counts = {
        "proved": sum(1 for s in statuses if s is Status.PROVED),
        "refuted": sum(1 for s in statuses if s is Status.REFUTED),
        "inconclusive": sum(1 for s in statuses if s is Status.INCONCLUSIVE),
    }
    verdict = worst(statuses)
    report = {
        "schema": REPORT_SCHEMA,
        "params": config.to_json(),
        "per_n": per_n,
        "atlas": atlas,
        "summary": {**counts, "total": len(statuses), "verdict": verdict.value},
        "meta": {
            "generated_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)
            ),
            "elapsed_seconds": round(time.time() - started, 3),
        },
    }
    if verdict is Status.REFUTED:
        code = EXIT_REFUTED
    elif verdict is Status.INCONCLUSIVE:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    return report, code


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _histogram_lines(report: dict) -> list[str]:
    lines = ["", "chart index histogram (witness samples)"]
    for item in report["per_n"]:
        trace = item["trace"]
        if trace is None:
            continue
        stages = trace["condition_i"].get("data", {}).get("stages", [])
        counts = {}
        for stage in stages:
            if stage["name"] == "cone-window-witness":
                counts = stage.get("data", {}).get("index_counts", {})
        total = sum(counts.values())
        lines.append(f"  n={item['n']}  ({total} samples)")
        if not total:
            continue
        width = 40
        for key in sorted(counts, key=int):
            count = counts[key]
            bar = "#" * max(1, round(width * count / total)) if count else ""
            lines.append(f"    chart {key}: {count:>6}  {bar}")
    return lines


def render_text(report: dict) -> str:
    lines = []
    summary = report["summary"]
    lines.append(f"noricert verification report  [{report['schema']}]")
    params = report["params"]
    lines.append(
        "params: n={} r={} rho={} samples={} budget={} seed={}".format(
            ",".join(str(n) for n in params["n_list"]),
            params["r"],
            params["rho"],
            params["samples"],
            params["subdivision_budget"],
            params["seed"],
        )
    )
    name_width = 28
    for item in report["per_n"]:
        lines.append("")
        lines.append(f"n = {item['n']}")
        for entry in item["certificates"]:
            label = "PASS" if entry["status"] == "proved" else entry["status"].upper()
            lines.append(f"  {entry['name']:<{name_width}} {label:<12} {entry['detail']}")
        trace = item["trace"]
        if trace is not None:
            for key in ("condition_i", "condition_ii", "condition_iii", "condition_iv"):
                cert = trace[key]
                label = "PASS" if cert["status"] == "proved" else cert["status"].upper()
                lines.append(
                    f"  {cert['name']:<{name_width}} {label:<12} {cert['detail']}"
                )
    lines.append("")
    lines.append("chart geometry")
    for entry in report["atlas"]["checks"]:
        label = "PASS" if entry["status"] == "proved" else entry["status"].upper()
        lines.append(f"  {entry['name']:<{name_width}} {label:<12} {entry['detail']}")
    lines.append("")
    lines.append(
        "summary: verdict={verdict} proved={proved} refuted={refuted} "
        "inconclusive={inconclusive} total={total}".format(**summary)
    )
    return "\n".join(lines)


def emit_report(report: dict, config: RunConfig) -> str:
    if config.output_format == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    text = render_text(report)
    if config.histogram:
        text = text + "\n" + "\n".join(_histogram_lines(report))
    return text


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "verify":
            raise UsageError("a command is required (try: noricert verify --help)")
        config = config_from_args(args)
        report, code = run_verify(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rendered = emit_report(report, config)
    if config.out_path:
        try:
            with open(config.out_path, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
