"""The noricert benchmark: time to a proved report, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

One client, one process at a time, no threads: each iteration is a fresh
interpreter (``worker.py``), and the next starts only when the last has
ended.  Iterations repeat until ``--seconds`` have passed (at least one).

* ``--trace 0`` prints the end-to-end metrics: the median ``wall_s`` and
  ``peak_rss_mib`` of the iterations, and the median ``setup_s`` of several
  set-up-only interpreters started before them.  Both times are rescaled to
  the nominal machine speed by references timed next to them (``speed.py``).
* ``--trace 1`` runs the same loop, then one traced iteration with the same
  seed, writes its spans to ``perfbench/out/`` and prints the per-layer
  metrics.  ``trace.overhead_s`` is the traced ``wall_s`` minus the median
  untraced one.

Every iteration is checked: exit code 0, verdict ``proved``, no refuted or
inconclusive entry, the committed family hashes, and one report digest per
workload and seed -- across the iterations of this run and across earlier
runs in the same checkout (kept in ``perfbench/out/digests.json``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
# a run is refused rather than left hanging on a stuck iteration
ITERATION_TIMEOUT_S = 170


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.report_path = out_dir / f"report-{workload}.json"
        self.spans_path = out_dir / f"spans-{workload}-s{seed}.jsonl"
        # the budget variable would change the program's work; cached bytecode
        # is what an installed package imports, so set-up is timed with it
        dropped = ("NORICERT_BUDGET", "PYTHONDONTWRITEBYTECODE")
        env = {k: v for k, v in os.environ.items() if k not in dropped}
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.env = env

    def spawn(self, mode: str, run_id: str = "-") -> dict:
        """Start one worker, wait for it, and return its result line."""
        argv = [
            sys.executable,
            str(HERE / "worker.py"),
            mode,
            run_id,
            str(self.spans_path),
            "--",
            *workloads.cli_argv(self.workload, self.seed, str(self.report_path)),
        ]
        spawned_at = _now()
        try:
            proc = subprocess.run(
                argv,
                env=self.env,
                stdout=subprocess.PIPE,
                timeout=ITERATION_TIMEOUT_S,
                text=True,
            )
        except subprocess.TimeoutExpired:
            return {"failures": [f"worker killed after {ITERATION_TIMEOUT_S} s"]}
        if proc.returncode != 0:
            return {"failures": [f"worker exited with {proc.returncode}"]}
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready_at"] - spawned_at
        return result


def _median(results: list, key: str) -> float:
    return statistics.median(r[key] for r in results)


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    runner = Runner(workload, seed, out_dir)
    setups = []
    before = speed.start_reference(runner.env)
    # the first probe warms the bytecode cache and is not measured
    for _ in range(SETUP_PROBES + 1):
        probe = runner.spawn("setup")
        if "setup_s" not in probe:
            raise SystemExit(f"set-up failed: {probe['failures']}")
        after = speed.start_reference(runner.env)
        setups.append(speed.rescale(probe["setup_s"], [before, after], speed.NOMINAL_START_S))
        before = after
    setups.pop(0)

    results = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        result = runner.spawn("run")
        results.append(result)
        if "wall_s" in result:
            print(
                f"iteration: wall {result['raw_wall_s']:.3f} s measured,"
                f" {result['wall_s']:.3f} s rescaled (chunk {result['chunk_ms']:.3f} ms)"
            )
    if trace:
        traced = runner.spawn("trace", f"{workload}-s{seed}-{os.getpid()}")
        results.append(traced)

    digest_file = out_dir / "digests.json"
    known = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    key = f"{workload}:{seed}"
    for result in results:
        digest = result.get("digest")
        if digest is None:
            continue
        known.setdefault(key, digest)
        if digest != known[key]:
            result["failures"].append(f"report digest {digest} != {known[key]}")
    digest_file.write_text(json.dumps(known, indent=1, sort_keys=True))

    measured = [r for r in results if "wall_s" in r]
    for result in results:
        for failure in result["failures"]:
            print(f"FAIL {workload} seed={seed}: {failure}", file=sys.stderr)
    if not measured:
        raise SystemExit("no iteration produced a result")
    if trace:
        if "stats" not in traced:
            raise SystemExit(f"traced iteration failed: {traced['failures']}")
        untraced = [r for r in measured if r is not traced]
        counts = dict(traced["counts"])
        counts["trace.overhead_s"] = traced["raw_wall_s"] - _median(untraced, "raw_wall_s")
        values, absent = metrics.per_layer_values(
            {name: tuple(v) for name, v in traced["stats"].items()},
            set(traced["patched"]),
            counts,
        )
        absent = sorted(set(absent) | set(traced["absent"]))
        if absent:
            print("absent: " + ", ".join(absent), file=sys.stderr)
        specs = metrics.PER_LAYER
    else:
        values = {
            "wall_s": _median(measured, "wall_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": _median(measured, "peak_rss_mib"),
        }
        specs = metrics.END_TO_END
    print(f"digest {workload} seed={seed}: {known.get(key)}")
    failed = sum(1 for r in results if r["failures"])
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out-dir", type=Path, default=HERE / "out", help="reports, spans and digests"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (Path.cwd() / "src" / "noricert" / "__init__.py").is_file():
        print("error: run from the root of a noricert checkout (no src/noricert)", file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
