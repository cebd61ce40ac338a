"""Command-line front end for the certification pipeline.

``noricert verify`` builds the disk family for a range of sizes, runs every
certificate layer (structural facts, root localization, annulus bounds, the
scalar inequality chains, divisibility, chart geometry, and the per-size
disk trace), and emits a JSON or text report.  Exit codes follow the CI
contract:

* 0 — every certificate proved,
* 1 — at least one refutation,
* 2 — no refutation, but at least one non-answer (a sufficient condition
  that fails with no exact witness against the claim, or a missing
  prerequisite),
* 64 — invalid configuration or usage.

Identical configurations produce byte-identical reports except for the
``meta`` section (timestamps, wall-clock timings, ``stages``: the seconds of
each stage per size, from the family's ``build`` through its certificate
stages to its ``family_hash``, ``deep_scale``: how many image points the
chart-cone ladders bracketed, how many of those needed the exact triples
after all, how many formed a 192-bit product, how many of their atoms
were evaluated exactly because a ball bracket reached 0, how many computed
their atoms at all (``refined``) and how many reused the outcome of an
earlier point with the same |lam|^2 pair (``reused``), ``witness``: the
same six counts for the cone-window witness's sampled image points,
``window``: the same for the chart window's sampled image points,
``boundary``: the points of each loop over exact circle points (the annulus
bounds, the target region, the chart window and the base chart) and its
exact fallbacks, the points where a comparison's brackets overlapped and
exact integers decided.  A loop runs only where its certificate's own
proof is incomplete, so a proved family counts 0 for each.  The boundary
sup metric of condition iii is derived from the target certificate, so it
has no loop and no counts.

Schema ``noricert-report/5``: a ``divisibility-k`` entry states its
argument and the quotient's degree (``DivisionWitness.to_json``: ``method``
``recursion`` or ``long-division``, ``quotient_degree``), not the quotient's
coefficients.  Since ``/4`` the atlas checks ``chart-disjointness-j-k`` and
``overlap-polydisk`` carry their exact arguments (``atlas.ExactArgument``)
instead of sample reports, and the boundary spot-check counts in the
certificates (``spot_checks``, ``boundary_checks``) are 0 where the proof
made the loop unnecessary.
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .arith import format_rational, parse_rational
from .atlas import (
    IntersectionMatrix,
    disjointness_certificate,
    negative_definite,
    overlap_polydisk_certificate,
)
from .certify import (
    Status,
    annulus_bounds_certificate,
    corollary_ineq_certificate,
    exact_identity_checks,
    family_root_certificates,
    lemma_div_check,
    proved_recursions,
    worst,
)
from . import disktrace
from .disktrace import _IMAGE_COUNTS, _WORK_COUNTS, Certificate, trace_family
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

REPORT_SCHEMA = "noricert-report/5"

# the exact-circle-point loops counted in ``meta``: the annulus bounds', then
# the trace's
_BOUNDARY_LOOPS = ("annulus", *disktrace._BOUNDARY_LOOPS)

# the two reference intersection matrices: the contractible configuration
# and the non-exceptional one
_MATRIX_GOOD = IntersectionMatrix(-3, 2, -3)
_MATRIX_BAD = IntersectionMatrix(-2, 2, -2)


class UsageError(ValueError):
    """Invalid command line or configuration; maps to exit code 64."""


class RunConfig(NamedTuple):
    """Validated run parameters for ``run_verify``."""

    n_list: tuple[int, ...]
    r: Fraction = Fraction(1, 5)
    rho: Fraction = Fraction(1, 2)
    eps_override: Optional[Fraction] = None
    allow_unsafe_eps: bool = False
    samples: int = 2048
    seed: int = 0
    output_format: str = "json"
    out_path: Optional[str] = None
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
        if self.max_n < 2:
            raise UsageError(f"max-n must be at least 2, got {self.max_n}")
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
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"invalid n or n-range: {text!r}") from exc


def _parse_rational_arg(name: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(f"invalid {name}: {exc}") from exc


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
        metavar="N",
        help=(
            "cone-window witness sample count (default 2048); the chart window "
            "takes max(16, N/32) points, each chart-cone ladder max(16, N/8) and "
            "the base chart's boundary loop, where it runs, max(256, N/8)"
        ),
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
        seed=args.seed,
        output_format=args.output_format,
        out_path=args.out,
        max_n=args.max_n,
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Pipeline execution
# ---------------------------------------------------------------------------

def _status_of(entry: dict) -> Status:
    return Status(entry["status"])


def _run_family(config: RunConfig, n: int) -> tuple[dict, dict]:
    """All certificate layers for one size.

    Returns the per-n report entry and what the size adds to ``meta``: the
    trace's deep-scale ladder counts (``deep_scale``), the cone-window
    witness's counts (``witness``), the chart window's (``window``), the
    points and exact fallbacks of each exact-circle-point loop
    (``boundary``) and the seconds of each stage (``stages``, the build and
    the family hash included); that is empty when the family is refuted
    before it is built.  This is the one place that orders the stages of a
    family: each stage runs once and receives the earlier stages it uses as
    arguments.  They run as build, roots, structural (which reads the
    recursions the roots proved), annulus, corollary, identities,
    divisions, trace and family hash; the report still lists the
    structural certificate first.
    """
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
                    Certificate("scale-admissible", Status.REFUTED, str(exc)).to_json()
                ],
                "trace": None,
            }, {}
        raise UsageError(str(exc)) from exc

    certificates = []
    stages: dict[str, float] = {}

    def timed(stage: str, run, *args, **kwargs):
        started = time.perf_counter()
        result = run(*args, **kwargs)
        stages[stage] = round(time.perf_counter() - started, 6)
        return result

    fam = timed("build", build_family, params)
    # the roots first: their proved recursions decide the coprimality of the
    # factors, so the structural checks divide nothing where they hold
    roots = timed("roots", family_root_certificates, fam)
    structural = timed(
        "structural", structural_checks, fam, proved_recursions(fam, roots)
    )
    certificates.append(
        Certificate(
            "structural",
            Status.PROVED if structural.all_passed else Status.REFUTED,
            f"{len(structural.checks)} exact checks",
            structural.to_json(),
        )
    )
    certificates.append(
        Certificate(
            "root-localization",
            worst(rc.status for rc in roots.values()),
            f"{len(roots)} factors",
            {str(k): rc.to_json() for k, rc in roots.items()},
        )
    )

    annulus = timed("annulus", annulus_bounds_certificate, fam, roots)
    certificates.append(
        Certificate(
            "annulus-bounds",
            annulus.status,
            annulus.detail,
            annulus.to_json(),
        )
    )

    corollary = timed("corollary", corollary_ineq_certificate, fam, annulus)
    certificates.append(
        Certificate(
            "modulus-chain",
            corollary.status,
            f"{len(corollary.checks)} inequality checks",
            corollary.to_json(),
        )
    )

    identities = timed("identities", exact_identity_checks, fam, roots)
    certificates.append(
        Certificate(
            "exact-identities",
            Status.PROVED if identities.all_passed else Status.REFUTED,
            f"{len(identities.checks)} division identities",
            identities.to_json(),
        )
    )

    divisions = timed(
        "divisions", lambda: [lemma_div_check(fam, k, roots) for k in range(1, n)]
    )
    for k, witness in enumerate(divisions, start=1):
        certificates.append(
            Certificate(
                f"divisibility-k{k}", witness.status, witness.detail, witness.to_json()
            )
        )

    trace = timed(
        "trace",
        trace_family,
        fam,
        root_certs=roots,
        corollary=corollary,
        identities=identities,
        divisions=divisions,
        samples=config.samples,
        seed=config.seed,
    )

    entry = {
        "n": n,
        "family": {
            "n": n,
            "r": format_rational(params.r),
            "rho": format_rational(params.rho),
            "eps": format_rational(params.eps),
            "c": list(params.c),
            "d": list(params.d),
            "N": params.N,
            "hash": timed("family_hash", family_hash, fam),
        },
        "certificates": [cert.to_json() for cert in certificates],
        "trace": trace.to_json(),
    }
    return entry, {
        "deep_scale": trace.ladder,
        "witness": trace.witness,
        "window": trace.window,
        "boundary": {"annulus": annulus.counts(), **trace.boundary},
        "stages": stages,
    }


def _run_atlas(config: RunConfig) -> dict:
    """Chart-geometry checks; they depend on r only.

    Disjointness and the overlap polydisk are reported from their exact
    arguments; no sampler runs.
    """
    arguments = [
        (f"chart-disjointness-{j}-{k}", disjointness_certificate(config.r, j, k))
        for j, k in ((0, 2), (1, 3), (0, 3))
    ]
    arguments.append(("overlap-polydisk", overlap_polydisk_certificate(config.r)))
    checks = [
        Certificate(
            name,
            Status.PROVED if argument.proved else Status.INCONCLUSIVE,
            argument.detail,
            argument.to_json(),
        )
        for name, argument in arguments
    ]
    definite_ok = negative_definite(_MATRIX_GOOD) and not negative_definite(
        _MATRIX_BAD
    )
    checks.append(
        Certificate(
            "intersection-matrices",
            Status.PROVED if definite_ok else Status.REFUTED,
            "contractible configuration accepted, non-exceptional one rejected",
        )
    )
    return {"checks": [check.to_json() for check in checks]}


def run_verify(config: RunConfig) -> tuple[dict, int]:
    """Execute the full pipeline; returns (report, exit_code)."""
    started = time.time()
    runs = [_run_family(config, n) for n in sorted(config.n_list)]
    per_n = [entry for entry, _ in runs]
    built = {str(entry["n"]): meta for entry, meta in runs if meta}

    def totals(part: str, keys: Sequence[str]) -> dict:
        counts = {n: meta[part] for n, meta in built.items()}
        return {
            **{key: sum(c[key] for c in counts.values()) for key in keys},
            "per_n": counts,
        }

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
            "deep_scale": totals("deep_scale", _IMAGE_COUNTS),
            "witness": totals("witness", _IMAGE_COUNTS),
            "window": totals("window", _IMAGE_COUNTS),
            "boundary": {
                **{
                    loop: {
                        key: sum(m["boundary"][loop][key] for m in built.values())
                        for key in _WORK_COUNTS
                    }
                    for loop in _BOUNDARY_LOOPS
                },
                "per_n": {n: meta["boundary"] for n, meta in built.items()},
            },
            "stages": {n: meta["stages"] for n, meta in built.items()},
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
        "params: n={} r={} rho={} samples={} seed={}".format(
            ",".join(str(n) for n in params["n_list"]),
            params["r"],
            params["rho"],
            params["samples"],
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
    lines.extend(_histogram_lines(report))
    return "\n".join(lines)


def emit_report(report: dict, config: RunConfig) -> str:
    if config.output_format == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    return render_text(report)


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
