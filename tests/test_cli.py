"""Command-line pipeline tests: exit codes, report schema, determinism.

Runs stay on small sizes and reduced sample plans; the one deliberately
expensive case is the budget-starved n=4 run that must exit 2.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from noricert import certify, cli, disktrace
from noricert.cli import (
    BUDGET_ENV_VAR,
    EXIT_INCONCLUSIVE,
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
GOLDEN_REPORT_SHA256 = "673b18243de4f6539ae4ecbd399510ad00b047f912cc8ece7c9d3221b3c545fc"


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

    def test_budget_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "77")
        args = build_parser().parse_args(["verify", "--budget", "99"])
        assert config_from_args(args).subdivision_budget == 99

    def test_budget_env_used_when_flag_absent(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "77")
        args = build_parser().parse_args(["verify"])
        assert config_from_args(args).subdivision_budget == 77

    def test_budget_env_invalid(self, monkeypatch, capsys):
        monkeypatch.setenv(BUDGET_ENV_VAR, "many")
        assert main(["verify", "--n", "2"]) == EXIT_USAGE
        assert BUDGET_ENV_VAR in capsys.readouterr().err


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
            dict(subdivision_budget=0),
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

    def test_budget_starved_run_is_inconclusive(self, tmp_path):
        # only n=4 needs subdivision depth; a tiny budget must surface as
        # exit 2, never as a clean pass and never as a refutation
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--n",
                "4",
                "--samples",
                "32",
                "--budget",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_INCONCLUSIVE
        report = json.loads(out.read_text())
        assert report["summary"]["verdict"] == "inconclusive"
        assert report["summary"]["refuted"] == 0
        assert report["summary"]["inconclusive"] >= 1

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
        assert all(c["status"] == "proved" for c in small_report["atlas"]["checks"])

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

    def test_seed_changes_witness_data(self, small_config, small_report):
        other, code = run_verify(
            RunConfig(n_list=(2,), samples=64, seed=4)
        )
        assert code == EXIT_OK
        assert _strip_meta(other) != _strip_meta(small_report)


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
        code = main(
            [
                "verify",
                "--n",
                "2",
                "--samples",
                "32",
                "--format",
                "text",
                "--histogram",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "chart index histogram" in out
        assert "chart 0:" in out

    def test_out_file_suppresses_stdout(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(
            ["verify", "--n", "2", "--samples", "32", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["summary"]["verdict"] == "proved"
