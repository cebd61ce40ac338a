"""Workload definitions, the correctness gate and the report-derived counts.

Shared by the runner (``run.py``) and the per-iteration worker
(``worker.py``).  Everything here is a pure function of a report, so the
self-test can exercise the gate without running the pipeline.
"""

import hashlib
import json

# The program arguments of each workload; the runner appends
# ``--seed S --out PATH``.  ``smoke`` is the self-test's tiny configuration
# and is not listed in BENCHMARK.json.
WORKLOADS = {
    "verify-default": ["verify", "--n", "2..4"],
    "witness-dense": ["verify", "--n", "2..3", "--samples", "16384"],
    "smoke": ["verify", "--n", "2", "--samples", "64"],
}

# sha256 of the canonical family serialization at the default parameters.
# The hashes do not depend on the seed and must stay byte-identical across
# refactors.  n = 5 is checked whenever a report contains it.
FAMILY_HASHES = {
    2: "e84747b248c9acd9a6ea7d06014f2f95e54bc7fb1c9a011307312bbba8cb8873",
    3: "21bcc430cf3eed63d2663978b3e47a760f1519f6d4fb6e267e8c685ab1fb12a5",
    4: "0a426c2160baefb0e9c0fe4a49dcb6fd9d862e9b42e341c6398e37f80ae598b1",
    5: "a00a47e3d76819cac35e16d70641af6b293bf89185185e87a9dd37f6ee6f63c1",
}


def cli_argv(workload: str, seed: int, out_path: str) -> list:
    return WORKLOADS[workload] + ["--seed", str(seed), "--out", out_path]


def canonical_bytes(report: dict) -> bytes:
    """The report minus ``meta``, serialized the way ``emit_report`` does."""
    body = {key: value for key, value in report.items() if key != "meta"}
    return json.dumps(body, sort_keys=True, indent=2).encode()


def report_digest(report: dict) -> str:
    return hashlib.sha256(canonical_bytes(report)).hexdigest()


def unproved_frac(summary: dict) -> float:
    """Refuted plus inconclusive entries as a share of all entries."""
    return (summary["refuted"] + summary["inconclusive"]) / summary["total"]


def gate(report: dict, code: int, hashes: dict = FAMILY_HASHES) -> list:
    """Every reason the run is not a correct proof; empty when it is."""
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    summary = report["summary"]
    if summary["verdict"] != "proved":
        failures.append(f"verdict {summary['verdict']}")
    if summary["proved"] + summary["refuted"] + summary["inconclusive"] != summary["total"]:
        failures.append("summary counts do not add up to its total")
    elif unproved_frac(summary) != 0:
        failures.append(f"unproved_frac {unproved_frac(summary)}")
    for item in report["per_n"]:
        n = item["n"]
        got = (item["family"] or {}).get("hash")
        want = hashes.get(n)
        if want is None:
            failures.append(f"no committed family hash for n={n}")
        elif got != want:
            failures.append(f"family hash for n={n} is {got}, want {want}")
    return failures


def _find(obj, key):
    """Every value stored under ``key`` anywhere in a JSON tree."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == key:
                yield v
            yield from _find(v, key)
    elif isinstance(obj, list):
        for v in obj:
            yield from _find(v, key)


def report_counts(report: dict) -> dict:
    """Work counts read from the report; they repeat exactly for one seed."""
    index_counts = {}
    for counts in _find(report["per_n"], "index_counts"):
        for key, value in counts.items():
            index_counts[int(key)] = index_counts.get(int(key), 0) + value
    witnessed = sum(index_counts.values())
    deep = sum(v for k, v in index_counts.items() if k >= 1)
    return {
        "certify.arcs": sum(_find(report["per_n"], "arcs")),
        "certify.subdivisions": sum(_find(report["per_n"], "subdivisions")),
        "disktrace.witness_deep_frac": deep / witnessed if witnessed else 0.0,
        "atlas.samples": sum(
            check["data"]["samples"]
            for check in report["atlas"]["checks"]
            if "samples" in check.get("data", {})
        ),
        "cli.report_bytes": len(canonical_bytes(report)),
        "unproved_frac": unproved_frac(report["summary"]),
    }
