"""Command-line pipeline tests: exit codes, report schema, determinism.

Runs stay on small sizes and reduced sample plans, except the class-scoped
default run of the meta tests.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

from noricert import certify, cli, disktrace
from noricert.certify import annulus_spot_checks
from noricert.disktrace import base_spot_checks, target_spot_checks, window_spot_checks
from noricert.family import build_family, default_family
from noricert.cli import (
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    REPORT_SCHEMA,
    RunConfig,
    UsageError,
    build_parser,
    config_from_args,
    main,
    parse_n_range,
    run_verify,
)


# verify --n 2..3 --samples 256 --seed 0
GOLDEN_REPORT_SHA256 = "9cb5e78ccf12b33cb95ac9b835bc598ba7c087602b0b93a2f694513c8e1d5030"
# verify --n 2..4 --seed 0 (also pinned in CI)
DEFAULT_REPORT_SHA256 = "3a3d0ed994f7d6539255bb8e21a68fa0cc4db4a94a00cbfd582894fced7df88c"
# verify --n 2 --eps 1 --unsafe-eps --seed 0, which exits 1 (also pinned in CI)
REFUTED_REPORT_SHA256 = "115293347e13ec0af47b005a942f0cbcd843ae5d5fa58313afb93666fc7cb668"
# the standard output of verify --n 2..3 --seed 0 --format text, which holds
# no timings
TEXT_REPORT_SHA256 = "698196242f3620c1c094686da12bf95918d4109cb020a018ad1716c9a3d690ae"


def _strip_meta(report: dict) -> dict:
    out = dict(report)
    out.pop("meta", None)
    return out


@pytest.fixture(scope="module")
def small_config():
    return RunConfig(n_list=(2,), samples=64, seed=3)


@pytest.fixture(scope="module")
def small_report(small_config):
    report, code = run_verify(small_config)
    assert code == EXIT_OK
    return report


class TestParsing:
    def test_single_size(self):
        assert parse_n_range("3") == (3,)

    def test_inclusive_range(self):
        assert parse_n_range("2..4") == (2, 3, 4)

    def test_whitespace_tolerated(self):
        assert parse_n_range(" 2..3 ") == (2, 3)

    @pytest.mark.parametrize("text", ["", "x", "2..", "..3", "2..x", "1.5", "4..2"])
    def test_bad_ranges_rejected(self, text):
        with pytest.raises(UsageError):
            parse_n_range(text)

    def test_empty_range_keeps_its_message(self, capsys):
        # the empty range is a well-formed one: its own message, not the
        # generic "invalid n or n-range" of a malformed one
        with pytest.raises(UsageError, match="empty range: '2..1'"):
            parse_n_range("2..1")
        assert main(["verify", "--n", "2..1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "empty range" in err and "invalid n or n-range" not in err

    def test_decimal_rational_rejected(self, capsys):
        assert main(["verify", "--n", "2", "--r", "0.2"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_parser_collects_defaults(self):
        args = build_parser().parse_args(["verify"])
        config = config_from_args(args)
        assert config.n_list == (2, 3, 4)
        assert config.r == F(1, 5)
        assert config.rho == F(1, 2)
        assert config.samples == 2048
        assert config.output_format == "json"

    def test_budget_flag_is_a_usage_error(self, capsys):
        # dominances are proved from root products, with no subdivision
        assert main(["verify", "--n", "2", "--budget", "12"]) == EXIT_USAGE
        assert "--budget" in capsys.readouterr().err

    def test_budget_env_is_ignored(self, monkeypatch, small_config, small_report):
        monkeypatch.setenv("NORICERT_BUDGET", "8")
        report, code = run_verify(small_config)
        assert code == EXIT_OK
        assert _strip_meta(report) == _strip_meta(small_report)

    def test_budget_env_invalid(self, monkeypatch, capsys, tmp_path, small_report):
        # the variable is no longer read, so a value it could not parse is no
        # usage error either
        monkeypatch.setenv("NORICERT_BUDGET", "many")
        out = tmp_path / "report.json"
        argv = ["verify", "--n", "2", "--samples", "64", "--seed", "3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert "NORICERT_BUDGET" not in capsys.readouterr().err
        assert _strip_meta(json.loads(out.read_text())) == _strip_meta(small_report)


class TestConfigValidation:
    def _cfg(self, **kw):
        base = dict(n_list=(2,))
        base.update(kw)
        return RunConfig(**base)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_list=()),
            dict(n_list=(1,)),
            dict(n_list=(6,)),
            dict(n_list=(2, 2)),
            dict(r=F(0)),
            dict(r=F(1)),
            dict(rho=F(0)),
            dict(rho=F(1)),
            dict(r=F(9, 10)),  # violates r <= (rho/2)(1-r)
            dict(eps_override=F(0)),
            dict(eps_override=F(-1, 10)),
            dict(samples=0),
            dict(n_list=(3,), max_n=2),
            dict(seed=-1),
            dict(output_format="yaml"),
        ],
    )
    def test_rejections(self, kw):
        with pytest.raises(UsageError):
            self._cfg(**kw).validate()

    def test_default_config_valid(self):
        self._cfg().validate()

    def test_max_n_widens_range(self):
        self._cfg(n_list=(5,), max_n=5).validate()
        with pytest.raises(UsageError):
            self._cfg(n_list=(5,), max_n=4).validate()


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["verify", "--bogus"]) == EXIT_USAGE
        capsys.readouterr()

    def test_size_below_range(self, capsys):
        assert main(["verify", "--n", "1"]) == EXIT_USAGE
        capsys.readouterr()

    def test_incompatible_radius(self, capsys):
        assert main(["verify", "--n", "2", "--r", "9/10", "--rho", "1/2"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("max_n", [1, 0, -3])
    def test_max_n_below_two(self, capsys, max_n):
        # a usage error of its own, not an empty range 2..max_n for every n
        assert main(["verify", "--n", "2", "--max-n", str(max_n)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: max-n must be at least 2, got {max_n}\n"

    def test_inadmissible_eps_refutes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--n", "2", "--eps", "1/2", "--out", str(out)]
        )
        assert code == EXIT_REFUTED
        report = json.loads(out.read_text())
        entry = report["per_n"][0]
        assert entry["family"] is None
        assert entry["trace"] is None
        names = [c["name"] for c in entry["certificates"]]
        assert names == ["scale-admissible"]
        assert entry["certificates"][0]["status"] == "refuted"
        assert report["summary"]["verdict"] == "refuted"

    def test_unsafe_eps_runs_and_refutes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--n",
                "2",
                "--eps",
                "1/2",
                "--unsafe-eps",
                "--samples",
                "32",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_REFUTED
        report = json.loads(out.read_text())
        entry = report["per_n"][0]
        assert entry["family"] is not None  # the pipeline really ran
        statuses = {c["name"]: c["status"] for c in entry["certificates"]}
        assert "refuted" in statuses.values()
        assert report["summary"]["refuted"] >= 1

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        code = main(["verify", "--n", "2", "--samples", "16", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_clean_small_run(self, small_report):
        assert small_report["summary"]["verdict"] == "proved"
        assert small_report["summary"]["refuted"] == 0
        assert small_report["summary"]["inconclusive"] == 0


class TestStages:
    def test_each_stage_runs_once_per_family(self, monkeypatch):
        names = (
            "exact_identity_checks",
            "lemma_div_check",
            "corollary_ineq_certificate",
        )
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(certify, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (certify, cli, disktrace):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        _, code = run_verify(RunConfig(n_list=(2, 3), samples=64))
        assert code == EXIT_OK
        # one call per family, and one division witness per factor (n - 1)
        assert calls == {
            "exact_identity_checks": 2,
            "lemma_div_check": 3,
            "corollary_ineq_certificate": 2,
        }

    def test_recursion_of_p1_proved_once_per_family(self, monkeypatch):
        # _side_poly expands, at n = 3, the two sides of P_1's recursion
        # once, in the root localization; at n = 2 that recursion is the
        # linear form the localization compares, and f1 and f2 of a built
        # family are their product forms by construction
        expanded = []
        original = certify._side_poly

        def counted(fam, side):
            expanded.append((fam.n, side))
            return original(fam, side)

        monkeypatch.setattr(certify, "_side_poly", counted)
        _, code = run_verify(RunConfig(n_list=(2, 3), samples=64))
        assert code == EXIT_OK

        dominant, constant = certify._localization_sides(default_family(3), 1)
        assert expanded == [(3, constant), (3, dominant)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_run_never_expands_f1_or_f2(self, monkeypatch, n):
        # every stage of a run reads f1 and f2 of the built family through
        # its form: they are never read as polynomials
        built = []

        def recorded(params):
            built.append(build_family(params))
            return built[-1]

        monkeypatch.setattr(cli, "build_family", recorded)
        entry, _ = cli._run_family(RunConfig(n_list=(n,)), n)
        assert {c["status"] for c in entry["certificates"]} == {"proved"}
        (fam,) = built
        assert "f1" not in vars(fam) and "f2" not in vars(fam)


class TestReportShape:
    def test_top_level_keys(self, small_report):
        assert set(small_report) == {
            "schema",
            "params",
            "per_n",
            "atlas",
            "summary",
            "meta",
        }
        assert small_report["schema"] == REPORT_SCHEMA

    def test_params_echo(self, small_report):
        params = small_report["params"]
        assert set(params) == {
            "n_list", "r", "rho", "eps_override", "allow_unsafe_eps", "samples", "seed",
        }
        assert params["n_list"] == [2]
        assert params["r"] == "1/5"
        assert params["rho"] == "1/2"
        assert params["samples"] == 64
        assert params["seed"] == 3

    def test_per_n_entry(self, small_report):
        (entry,) = small_report["per_n"]
        assert entry["n"] == 2
        fam = entry["family"]
        assert fam["n"] == 2
        assert fam["N"] == 8
        assert fam["c"] == [1]
        assert fam["d"] == [1]
        assert len(fam["hash"]) == 64
        names = [c["name"] for c in entry["certificates"]]
        assert names == [
            "structural",
            "root-localization",
            "annulus-bounds",
            "modulus-chain",
            "exact-identities",
            "divisibility-k1",
        ]
        assert all(c["status"] == "proved" for c in entry["certificates"])

    @pytest.mark.parametrize(
        "samples, plan",
        [
            # the chart window and the ladder at their floor of 16
            (1, [("image-in-chart-window", 16), ("chart-cone", 16), ("cone-window-witness", 1)]),
            (64, [("image-in-chart-window", 16), ("chart-cone", 16), ("cone-window-witness", 64)]),
        ],
    )
    def test_sample_plan(self, samples, plan):
        # the sampled certificates of condition i take the plan that
        # --samples sets, at n = 2
        report, code = run_verify(RunConfig(n_list=(2,), samples=samples, seed=0))
        assert code == EXIT_OK
        stages = report["per_n"][0]["trace"]["condition_i"]["data"]["stages"]
        got = [(s["name"], s["data"]["samples"]) for s in stages if "samples" in s["data"]]
        assert got == plan

    def test_trace_entry(self, small_report):
        trace = small_report["per_n"][0]["trace"]
        for key in ("condition_i", "condition_ii", "condition_iii", "condition_iv"):
            assert trace[key]["status"] == "proved"
        assert trace["status"] == "proved"
        assert trace["n"] == 2
        assert trace["seed"] == 3

    def test_atlas_runs_once_per_config(self, small_report):
        names = [c["name"] for c in small_report["atlas"]["checks"]]
        assert names == [
            "chart-disjointness-0-2",
            "chart-disjointness-1-3",
            "chart-disjointness-0-3",
            "overlap-polydisk",
            "intersection-matrices",
        ]
        checks = small_report["atlas"]["checks"]
        assert all(c["status"] == "proved" for c in checks)
        # reported from their exact arguments: no sampled point, and every
        # data entry is a dict or absent
        for check in checks[:4]:
            assert check["data"]["proved"] is True
            assert all(h["holds"] for h in check["data"]["hypotheses"])
            assert "samples" not in check["data"]
        assert "data" not in checks[4]

    def test_summary_counts_add_up(self, small_report):
        summary = small_report["summary"]
        assert (
            summary["proved"] + summary["refuted"] + summary["inconclusive"]
            == summary["total"]
        )


class TestDeterminism:
    def test_reports_identical_without_meta(self, small_config, small_report):
        again, code = run_verify(small_config)
        assert code == EXIT_OK
        assert _strip_meta(again) == _strip_meta(small_report)

    def test_serialization_is_byte_stable(self, small_config, small_report):
        again, _ = run_verify(small_config)
        first = json.dumps(_strip_meta(small_report), sort_keys=True, indent=2)
        second = json.dumps(_strip_meta(again), sort_keys=True, indent=2)
        assert first == second

    def test_golden_report_digest(self):
        # sha256 of the report minus meta, pinned so that every refactor of
        # the evaluation and bounds paths keeps the report byte-identical
        report, code = run_verify(RunConfig(n_list=(2, 3), samples=256, seed=0))
        assert code == EXIT_OK
        body = json.dumps(_strip_meta(report), sort_keys=True, indent=2)
        assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN_REPORT_SHA256

    def test_refuted_report_digest(self, tmp_path):
        # a refuted family end to end: the sampled refutations render their
        # witnesses from the lazily evaluated exact triples
        out = tmp_path / "report.json"
        args = "verify --n 2 --eps 1 --unsafe-eps --seed 0 --out"
        assert main([*args.split(), str(out)]) == EXIT_REFUTED
        report = json.loads(out.read_text())
        summary = report["summary"]
        assert (summary["refuted"], summary["total"]) == (4, 12)
        body = json.dumps(_strip_meta(report), sort_keys=True, indent=2)
        assert hashlib.sha256(body.encode()).hexdigest() == REFUTED_REPORT_SHA256

    def test_seed_changes_witness_data(self, small_config, small_report):
        other, code = run_verify(
            RunConfig(n_list=(2,), samples=64, seed=4)
        )
        assert code == EXIT_OK
        assert _strip_meta(other) != _strip_meta(small_report)


@pytest.fixture(scope="class")
def default_run():
    """``verify --n 2..4 --seed 0``, run once for the meta tests."""
    return run_verify(RunConfig(n_list=(2, 3, 4), seed=0))


STAGES = {
    "build", "structural", "roots", "annulus", "corollary", "identities", "divisions",
    "trace", "family_hash",
}


class TestMeta:
    def test_deep_scale_counters(self, default_run):
        # the chart-cone ladders at n = 2..4: every count is in meta, and
        # under 1 % of the bracketed points need the exact triples;
        # the net exponents leave 40 of them to 192-bit products (663
        # when the two sides' exponents were summed uncancelled): cone
        # tests at n = 4 whose net exponents straddle 1.  The entry probe's
        # neighbour of the root of P_(n-1) is decided on exponents at
        # n = 2, 3, since every exact atom, of |lam|^2 and of the exact
        # |P_j|^2, takes the tightest powers of two (with the bit-length
        # pair of its bracket, two apart, the n = 3 neighbour and 16 more
        # of the n = 4 cone tests went to the products).  The
        # probe at the root of P_(n-1)
        # is decided on an exact zero atom by sign alone, with no product:
        # at n = 2, 3 the factors' atoms are exact, and at n = 4 the ball
        # of P_3 reaches 0 there and is replaced by its exact value (the
        # one zero-rule atom), so no point reads the triples
        report, code = default_run
        assert code == EXIT_OK
        deep = report["meta"]["deep_scale"]
        counts = ("points", "exact_fallbacks", "products", "zero_atoms", "refined", "reused")
        assert set(deep) == {*counts, "per_n"}
        assert set(deep["per_n"]) == {"2", "3", "4"}
        for key in counts:
            assert deep[key] == sum(c[key] for c in deep["per_n"].values())
        assert deep["per_n"]["4"]["points"] > 768
        assert deep["exact_fallbacks"] * 100 < deep["points"]
        # the entry probe of each chart is two images, at the valuation
        # model's scale and one decade shallower (the doubling probe and
        # its bisection took 1608 points in all)
        assert (deep["points"], deep["exact_fallbacks"]) == (1548, 0)
        assert [deep["per_n"][n]["products"] for n in "234"] == [0, 0, 40]
        assert [deep["per_n"][n]["zero_atoms"] for n in "234"] == [0, 0, 1]
        # the points whose atoms were computed: where the recursion
        # exponents of the factors left a test open, or gave up
        assert [deep["per_n"][n]["refined"] for n in "234"] == [1, 24, 76]
        # the ladder points whose |lam|^2 pair an earlier point of the same
        # chart had decided on the recursion exponents alone
        assert [deep["per_n"][n]["reused"] for n in "234"] == [224, 431, 615]
        body = json.dumps(_strip_meta(report), sort_keys=True, indent=2)
        assert hashlib.sha256(body.encode()).hexdigest() == DEFAULT_REPORT_SHA256

    def test_witness_counters(self, default_run):
        # the cone-window witness at n = 2..4 draws 2048 points per size,
        # bracketed through the factors and decided by their net exponents,
        # with no exact triple, no 192-bit product and no ball reaching 0;
        # the atoms are computed only at the points where the recursion
        # exponents leave a test open (the band |lam| ~ 1e-8 at n = 2), and
        # all but a few hundred points reuse the cone index of an earlier
        # point with the same |lam|^2 pair
        report, code = default_run
        assert code == EXIT_OK
        witness = report["meta"]["witness"]
        zero = {"exact_fallbacks": 0, "products": 0, "zero_atoms": 0}
        refined = {"2": 97, "3": 23, "4": 12}
        reused = {"2": 1877, "3": 1948, "4": 1959}
        assert witness == {
            "points": 6144,
            **zero,
            "refined": sum(refined.values()),
            "reused": sum(reused.values()),
            "per_n": {
                n: {"points": 2048, **zero, "refined": refined[n], "reused": reused[n]}
                for n in ("2", "3", "4")
            },
        }
        body = json.dumps(_strip_meta(report), sort_keys=True, indent=2)
        assert hashlib.sha256(body.encode()).hexdigest() == DEFAULT_REPORT_SHA256

    def test_window_counters(self, default_run):
        # the chart window's 64 sampled disk points per size, booked like
        # the witness's: every cover is decided on the recursion exponents,
        # with no atom computed, and all but 5 or 6 points per size reuse
        # the cover of an earlier point with the same |lam|^2 pair
        report, code = default_run
        assert code == EXIT_OK
        window = report["meta"]["window"]
        zero = {"exact_fallbacks": 0, "products": 0, "zero_atoms": 0, "refined": 0}
        reused = {"2": 58, "3": 59, "4": 58}
        assert window == {
            "points": 192,
            **zero,
            "reused": sum(reused.values()),
            "per_n": {
                n: {"points": 64, **zero, "reused": reused[n]} for n in ("2", "3", "4")
            },
        }
        body = json.dumps(_strip_meta(report), sort_keys=True, indent=2)
        assert hashlib.sha256(body.encode()).hexdigest() == DEFAULT_REPORT_SHA256

    def test_boundary_counters(self, default_run, built_families):
        # the four loops over exact circle points at n = 2..4 run only where
        # a certificate's proof is missing, so meta counts none of them; the
        # split-out loops at the pipeline's loads pass, every point decided
        # on ball brackets.  The sup metric of condition iii is derived from
        # the target certificate and has no loop
        report, code = default_run
        assert code == EXIT_OK
        boundary = report["meta"]["boundary"]
        zero = {"points": 0, "exact_fallbacks": 0}
        loops = ("annulus", "target", "window", "base")
        assert boundary == {
            **dict.fromkeys(loops, zero),
            "per_n": {n: dict.fromkeys(loops, zero) for n in ("2", "3", "4")},
        }
        for n, fam in built_families.items():
            split = {
                "annulus": [annulus_spot_checks(fam, k) for k in range(1, n)],
                "target": [target_spot_checks(fam)],
                "window": [window_spot_checks(fam)],
                "base": [base_spot_checks(fam)],
            }
            assert {name: [(s.points, s.exact_fallbacks, s.witness) for s in runs]
                    for name, runs in split.items()} == {
                "annulus": [(512, 0, None)] * (n - 1),
                "target": [(128, 0, None)],
                "window": [(64, 0, None)],
                "base": [(256, 0, None)],
            }
        body = json.dumps(_strip_meta(report), sort_keys=True, indent=2)
        assert hashlib.sha256(body.encode()).hexdigest() == DEFAULT_REPORT_SHA256

    def test_dominance_counters(self, default_run):
        # root-product dominances refine no arcs, so meta counts none
        report, code = default_run
        assert code == EXIT_OK
        assert set(report["meta"]) == {
            "generated_at", "elapsed_seconds", "deep_scale", "witness", "window", "boundary",
            "stages",
        }

    def test_stage_seconds(self, default_run):
        report, code = default_run
        assert code == EXIT_OK
        stages = report["meta"]["stages"]
        assert set(stages) == {"2", "3", "4"}
        for seconds in stages.values():
            assert set(seconds) == STAGES
            assert all(isinstance(s, float) and s >= 0 for s in seconds.values())
        # timings stay out of the deterministic part of the report
        body = json.dumps(_strip_meta(report), sort_keys=True, indent=2)
        assert hashlib.sha256(body.encode()).hexdigest() == DEFAULT_REPORT_SHA256

    def test_no_stages_for_a_family_refuted_before_its_build(self):
        report, code = run_verify(
            RunConfig(n_list=(2,), eps_override=F(1, 2), samples=32)
        )
        assert code == EXIT_REFUTED
        assert report["meta"]["stages"] == {}
        assert report["meta"]["boundary"] == {
            **{
                loop: {"points": 0, "exact_fallbacks": 0}
                for loop in ("annulus", "target", "window", "base")
            },
            "per_n": {},
        }


class TestRendering:
    def test_text_format(self, capsys):
        code = main(["verify", "--n", "2", "--samples", "32", "--format", "text"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "noricert verification report" in out
        assert "summary: verdict=proved" in out
        assert "chart geometry" in out
        assert "PASS" in out

    def test_text_histogram(self, capsys):
        # the text report always ends with the witness's chart histogram
        code = main(["verify", "--n", "2", "--samples", "32", "--format", "text"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert [line.rstrip() for line in out.splitlines()[-4:]] == [
            "chart index histogram (witness samples)",
            "  n=2  (32 samples)",
            "    chart 0:     32  " + "#" * 40,
            "    chart 1:      0",
        ]

    def test_text_report_digest(self, capsys):
        # records reach the text through their to_json and through the str of
        # a record in a detail string (an exact point); its bytes are pinned
        # whole
        assert main(["verify", "--n", "2..3", "--seed", "0", "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == TEXT_REPORT_SHA256

    def test_out_file_suppresses_stdout(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(
            ["verify", "--n", "2", "--samples", "32", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["summary"]["verdict"] == "proved"


class TestStartup:
    def test_import_loads_no_dataclasses(self):
        # the records are NamedTuples and plain classes: importing the CLI
        # loads neither dataclasses nor the modules it pulls in.  -S keeps
        # the site-packages' .pth files, which are not the package's, out
        src = pathlib.Path(cli.__file__).parents[1]
        heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
        code = f"import noricert.cli, sys; print(*(m for m in {heavy!r} if m in sys.modules))"
        run = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stdout.split() == []
