"""Metric names, units and directions, and how per-layer values are derived.

``END_TO_END`` and ``PER_LAYER`` must match ``BENCHMARK.json``; the
self-test checks that they do.  Per-layer names follow three patterns:

* ``<span>.calls`` and ``<span>.s``: call count and summed self time of the
  spans of one traced function (see ``spans.py``);
* ``<layer>.self_s``: the self time of every span of that layer;
* anything else: a count read from the report or the returned objects, or a
  figure of the traced run itself (``trace.*``).
"""

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

PER_LAYER = (
    ("arith.poly_mul.calls", "count", "lower"),
    ("arith.poly_mul.s", "s", "lower"),
    ("arith.poly_divmod.calls", "count", "lower"),
    ("arith.poly_divmod.s", "s", "lower"),
    ("arith.poly_gcd.calls", "count", "lower"),
    ("arith.poly_gcd.s", "s", "lower"),
    ("arith.horner.calls", "count", "lower"),
    ("arith.horner.s", "s", "lower"),
    ("arith.eval_scaled.calls", "count", "lower"),
    ("arith.eval_scaled.s", "s", "lower"),
    ("arith.self_s", "s", "lower"),
    ("family.build_family.s", "s", "lower"),
    ("family.family_hash.s", "s", "lower"),
    ("family.structural_checks.s", "s", "lower"),
    ("family.max_coeff_bits", "bits", "lower"),
    ("family.self_s", "s", "lower"),
    ("certify.certify_dominance.calls", "count", "lower"),
    ("certify.certify_dominance.s", "s", "lower"),
    ("certify.arcs", "count", "lower"),
    ("certify.subdivisions", "count", "lower"),
    ("certify.family_root_certificates.s", "s", "lower"),
    ("certify.annulus_bounds_certificate.s", "s", "lower"),
    ("certify.cone_factor_certificate.s", "s", "lower"),
    ("certify.exact_identity_checks.calls", "count", "lower"),
    ("certify.exact_identity_checks.s", "s", "lower"),
    ("certify.lemma_div_check.calls", "count", "lower"),
    ("certify.lemma_div_check.s", "s", "lower"),
    ("certify.corollary_ineq_certificate.calls", "count", "lower"),
    ("certify.self_s", "s", "lower"),
    ("disktrace.chart_cone_certificate.s", "s", "lower"),
    ("disktrace.base_chart_certificate.s", "s", "lower"),
    ("disktrace.image_in_chart_window.s", "s", "lower"),
    ("disktrace.uniform_convergence_witness.s", "s", "lower"),
    ("disktrace.annulus_into_target.s", "s", "lower"),
    ("disktrace.cone_window_witness.s", "s", "lower"),
    ("disktrace.witness_deep_frac", "ratio", "higher"),
    ("disktrace.self_s", "s", "lower"),
    ("atlas.disjointness_search.s", "s", "lower"),
    ("atlas.overlap_polydisk_check.s", "s", "lower"),
    ("atlas.samples", "count", "higher"),
    ("atlas.self_s", "s", "lower"),
    ("cli.emit_report.s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("unproved_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer_values(stats: dict, patched: set, counts: dict) -> tuple:
    """``(values, absent)`` for every per-layer metric.

    ``stats`` maps a span name to ``(calls, self seconds)``, ``patched``
    holds the span names the tracer could install and ``counts`` the
    remaining figures.  A metric whose function or count is missing is
    reported as 0 and listed in ``absent``.
    """
    values, absent = {}, []
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s"):
            if span not in patched:
                absent.append(name)
            calls, seconds = stats.get(span, (0, 0.0))
            values[name] = calls if field == "calls" else seconds
        elif field == "self_s":
            values[name] = sum(
                seconds
                for key, (_, seconds) in stats.items()
                if key.startswith(span + ".")
            )
        elif name in counts:
            values[name] = counts[name]
        else:
            absent.append(name)
            values[name] = 0
    return values, absent
