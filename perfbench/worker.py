"""One iteration of a workload in a fresh interpreter.

Usage (the runner starts it; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/worker.py MODE RUN_ID SPANS_PATH -- CLI_ARGS...

MODE is ``setup`` (stop once the pipeline is ready to start), ``run`` or
``trace``.  The worker first does what ``noricert verify`` does before its
first layer call -- import the package, parse the arguments, validate the
``RunConfig`` -- and records the time it got there.  It then times
``run_verify``, ``emit_report`` and the write of the report, checks the
written report, and prints one JSON line.

Times that cross the process boundary use CLOCK_MONOTONIC, which all
processes of the machine share.
"""

import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list) -> int:
    mode, run_id, spans_path, sep, *cli_args = argv
    if mode not in ("setup", "run", "trace") or sep != "--":
        print(f"usage: {__doc__}", file=sys.stderr)
        return 64

    from noricert import cli

    config = cli.config_from_args(cli.build_parser().parse_args(cli_args))
    ready_at = _now()

    import json  # already loaded by noricert

    if mode == "setup":
        print(json.dumps({"ready_at": ready_at}))
        return 0

    import resource

    import speed
    import workloads

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer(run_id)
        tracer.install()

    def work():
        report, code = cli.run_verify(config)
        rendered = cli.emit_report(report, config)
        with open(config.out_path, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        return code

    # the traced iteration runs without the sampler, whose chunks would land
    # in the self time of whichever span is open
    speed.chunk()  # the first chunk in a process runs cold
    chunks = [speed.chunk()]
    if tracer:
        started = time.perf_counter()
        code = tracer.wrap(spans.ROOT, work)()
        raw_wall = time.perf_counter() - started
    else:
        with speed.Sampler() as sampler:
            started = time.perf_counter()
            code = work()
            raw_wall = sampler.work_seconds(time.perf_counter() - started)
        chunks += sampler.chunks
    chunks.append(speed.chunk())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with open(config.out_path, encoding="utf-8") as handle:
        report = json.load(handle)
    result = {
        "ready_at": ready_at,
        "wall_s": speed.rescale(raw_wall, chunks),
        "raw_wall_s": raw_wall,
        "chunk_ms": 1000 * sum(chunks) / len(chunks),
        "peak_rss_mib": peak_rss_mib,
        "failures": workloads.gate(report, code),
        "digest": workloads.report_digest(report),
    }
    if tracer:
        tracer.uninstall()
        counts = workloads.report_counts(report)
        counts["family.max_coeff_bits"] = max(
            (
                max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for fam in tracer.kept.get("family.build_family", ())
                for poly in (*fam.P, fam.f1, fam.f2)
                for c in poly.coeffs
            ),
            default=0,
        )
        counts["trace.wall_s"] = raw_wall
        counts["trace.spans"] = len(tracer.spans)
        tracer.write(spans_path, {"cli_args": cli_args})
        result["stats"] = tracer.self_times()
        result["patched"] = sorted(tracer.patched)
        result["absent"] = tracer.absent
        result["counts"] = counts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
