"""Config parsing/validation contracts and the CLI surface."""

import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import stablesub.experiments as experiments
import stablesub.subordinator as subordinator
from stablesub import ConfigError, parse_config, render_config
from stablesub.cli import main
from stablesub.config import config_from_mapping
from stablesub.reporting import ResultRecord, comparable_record_json, record_to_json


_SAMPLING = ("n_replicates", "master_seed", "workers")
_GRID = ("grid.kind", "grid.levels", "grid.q", "grid.epsilon")
# The keys each experiment's run reads, besides output_path, which every run reads.
_READS = {
    "laplace_check": ("alpha", *_SAMPLING),
    "cdf_check": _SAMPLING,
    "scaling": ("alpha", "p", "times", *_SAMPLING),
    "moment_bound_theta": ("alpha", "theta", "p", "T", *_GRID, *_SAMPLING),
    "moment_bound_exp": ("alpha", "lambda", "p", "T", *_GRID, *_SAMPLING),
    "blowup": ("alpha", "theta", "T", "grid.levels", *_SAMPLING),
    "ibp_consistency": ("alpha", "theta", "T", *_GRID, "n_replicates", "master_seed"),
    "kernel_classify": ("alpha", "theta"),
    "verify_all": _SAMPLING,
}
_REQUIRED = {
    "scaling": {"alpha": 0.5},
    "moment_bound_theta": {"alpha": 0.5, "theta": 1.0},
    "moment_bound_exp": {"alpha": 0.5},
    "blowup": {"alpha": 0.5, "theta": 3.0},
    "ibp_consistency": {"alpha": 0.5},
    "kernel_classify": {"alpha": 0.5, "theta": 2.0},
}
# A valid value of each key that differs from every experiment's default.
_NON_DEFAULT = {
    "alpha": 0.6, "theta": 1.2, "p": 0.1, "lambda": 2.0, "T": 2.0, "times": [0.5, 2.0],
    "n_replicates": 500, "master_seed": 7, "workers": 2, "output_path": "runs/x",
    "grid.levels": 20, "grid.q": 0.25, "grid.epsilon": 1e-6,
}
# Flags of every subcommand, then each subcommand's own, in --help order.
_COMMON_FLAGS = ["--config", "--seed", "--replicates", "--workers", "--out"]
_GRID_FLAGS = ["--grid-kind", "--grid-levels", "--grid-q", "--grid-epsilon"]
_FLAGS = {
    "laplace": ["--alpha"],
    "cdf": [],
    "scaling": ["--alpha", "--p", "--times"],
    "bound-theta": [*_GRID_FLAGS, "--alpha", "--theta", "--p", "--T"],
    "bound-exp": [*_GRID_FLAGS, "--alpha", "--lambda", "--p", "--T"],
    "blowup": ["--alpha", "--theta", "--levels"],
    "ibp": ["--alpha", "--theta"],
    "classify": ["--alpha", "--theta"],
    "verify-all": [],
}


def _help(command):
    result = CliRunner().invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    return result.output


def _reject_constant(token):
    raise AssertionError(f"record holds the non-JSON token {token}")


class TestParseConfig:
    def test_minimal_defaults_filled(self):
        config = parse_config('{"experiment": "laplace_check", "alpha": 0.5}')
        assert config.alpha == 0.5
        assert config.grid.kind == "geometric"
        assert config.grid.levels == 40
        assert config.grid.q == 0.5
        assert config.n_replicates == 100_000
        assert config.T == 1.0
        assert config.grid.build(config.T).epsilon == pytest.approx(2.0**-40)

    def test_alpha_constraint_message(self):
        with pytest.raises(ConfigError, match=r"alpha must lie in \(0, 1\), got 1\.2"):
            parse_config('{"experiment": "laplace_check", "alpha": 1.2}')

    def test_theta_threshold_message(self):
        message = r"theta must lie in \(0, 1/alpha\): got theta=2\.5, alpha=0\.5"
        with pytest.raises(ConfigError, match=message):
            parse_config('{"experiment": "moment_bound_theta", "alpha": 0.5, "theta": 2.5}')

    def test_order_message(self):
        message = r"p must lie in \(0, alpha\): got p=0\.6, alpha=0\.5"
        with pytest.raises(ConfigError, match=message):
            parse_config('{"experiment": "scaling", "alpha": 0.5, "p": 0.6}')

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="unknown key: 'bogus'"):
            parse_config('{"experiment": "cdf_check", "bogus": 1}')
        with pytest.raises(ConfigError, match="grid.'depth'"):
            parse_config('{"experiment": "cdf_check", "grid": {"depth": 3}}')

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="missing required field: experiment"):
            parse_config("{}")

    def test_missing_required_parameter(self):
        with pytest.raises(ConfigError, match="missing required field: theta"):
            parse_config('{"experiment": "blowup", "alpha": 0.5}')

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("experiment: laplace")

    def test_scalar_alpha_defaults(self):
        config = parse_config('{"experiment": "cdf_check"}')
        assert config.alpha == 0.5
        config = parse_config('{"experiment": "scaling", "alpha": 0.6}')
        assert config.p == 0.3  # alpha / 2 default
        assert config.times == (0.25, 1.0, 4.0)

    def test_round_trip(self):
        documents = [
            '{"experiment": "laplace_check"}',
            '{"experiment": "laplace_check", "alpha": [0.3, 0.6]}',
            '{"experiment": "cdf_check", "n_replicates": 5000, "master_seed": 7}',
            '{"experiment": "moment_bound_theta", "alpha": 0.5, "theta": 1.0, "p": 0.25}',
            '{"experiment": "moment_bound_exp", "alpha": 0.5, "lambda": 2.0, "p": 0.1, "T": 5.0,'
            ' "grid": {"kind": "uniform", "levels": 64}}',
            '{"experiment": "blowup", "alpha": 0.5, "theta": 3.0, "grid": {"levels": 30},'
            ' "n_replicates": 5000, "workers": 4}',
            '{"experiment": "kernel_classify", "alpha": 0.5, "theta": 2.0, "output_path": "x/y"}',
        ]
        for text in documents:
            config = parse_config(text)
            assert parse_config(render_config(config)) == config

    def test_grid_epsilon_override(self):
        config = parse_config(
            '{"experiment": "ibp_consistency", "alpha": 0.5,'
            ' "grid": {"levels": 20, "epsilon": 1e-6}}'
        )
        grid = config.grid.build(config.T)
        assert grid.epsilon == pytest.approx(1e-6)
        assert len(grid) == 21

    def test_per_experiment_defaults(self):
        blowup = parse_config('{"experiment": "blowup", "alpha": 0.5, "theta": 3.0}')
        assert (blowup.n_replicates, blowup.grid.levels) == (10_000, 30)
        ibp = parse_config('{"experiment": "ibp_consistency", "alpha": 0.5}')
        assert (ibp.n_replicates, ibp.grid.levels, ibp.theta) == (1000, 40, 0.5)

    @pytest.mark.parametrize("experiment", sorted(_READS))
    def test_each_experiment_reads_its_keys_and_refuses_the_rest(self, experiment):
        base = {"experiment": experiment, **_REQUIRED.get(experiment, {})}
        default = config_from_mapping(base)
        assert parse_config(render_config(default)) == default
        other_kind = "geometric" if default.grid.kind == "uniform" else "uniform"
        for key, value in {**_NON_DEFAULT, "grid.kind": other_kind}.items():
            document = dict(base)
            section, _, name = key.rpartition(".")
            target = document.setdefault("grid", {}) if section else document
            target[name] = value
            if key not in (*_READS[experiment], "output_path"):
                message = rf"^{re.escape(key)} must (keep its default|be 0\.5) for {experiment}\b"
                with pytest.raises(ConfigError, match=message):
                    config_from_mapping(document)
                continue
            if key == "grid.q":
                target["kind"] = "geometric"  # the one grid that reads its ratio
            config = config_from_mapping(document)
            rendered = json.loads(render_config(config))
            assert (rendered["grid"] if section else rendered)[name] == value, key
            assert parse_config(render_config(config)) == config

    def test_workers_floor(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            config_from_mapping({"experiment": "cdf_check", "workers": 0})


class TestRecordJson:
    def test_nonfinite_floats_are_strings(self):
        record = ResultRecord(
            experiment="ibp_consistency",
            config={},
            results={"a": math.nan, "b": [math.inf, 1.5, (-math.inf, 2.0)]},
            series={"s": {"columns": ["x"], "rows": [[math.nan]]}},
        )
        payload = json.loads(record_to_json(record), parse_constant=_reject_constant)
        assert payload["results"] == {"a": "NaN", "b": ["Infinity", 1.5, ["-Infinity", 2.0]]}
        assert payload["series"]["s"]["rows"] == [["NaN"]]

    def test_finite_record_text_unchanged(self):
        results = {"x": 0.1 + 0.2, "rows": [(1, 2.5e-300), [True, None, "s"]]}
        record = ResultRecord(experiment="e", config={"k": 1.0}, results=results)
        text = record_to_json(record)
        # Same bytes as the default (NaN-permitting) dump of the same payload.
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
        expected = {"x": 0.1 + 0.2, "rows": [[1, 2.5e-300], [True, None, "s"]]}
        assert json.loads(text)["results"] == expected


class TestCli:
    @pytest.mark.parametrize("command", sorted(_FLAGS))
    def test_help_lists_each_flag(self, command):
        flags = re.findall(r"^  (--[\w-]+)", _help(command), re.MULTILINE)
        assert flags == _COMMON_FLAGS + _FLAGS[command] + ["--help"]

    def test_help_defaults_are_the_config_defaults(self):
        def hinted(command, pattern):
            text = " ".join(_help(command).split())
            return tuple(float(v) for v in re.search(pattern + r" ([\d. ]+)\.", text)[1].split())

        assert hinted("laplace", "Default grid:") == experiments.LAPLACE_ALPHAS
        scaling = parse_config('{"experiment": "scaling", "alpha": 0.5}')
        assert hinted("scaling", "Horizons; default") == scaling.times
        blowup = parse_config('{"experiment": "blowup", "alpha": 0.5, "theta": 3.0}')
        assert hinted("blowup", "2\\^-levels; default") == (blowup.grid.levels,)

    def test_classify_stdout_record(self):
        runner = CliRunner()
        result = runner.invoke(main, ["classify", "--alpha", "0.5", "--theta", "2.0"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["results"]["classification"] == "limsup_infinite"
        assert record["verdicts"] == {"classified": "pass"}

    def test_config_error_exit_code(self):
        runner = CliRunner()
        result = runner.invoke(main, ["bound-theta", "--alpha", "0.5", "--theta", "2.5"])
        assert result.exit_code == 2
        assert "theta must lie in (0, 1/alpha): got theta=2.5, alpha=0.5" in result.output

    def test_laplace_rejects_an_empty_alpha_list(self, tmp_path):
        # Zero cells would otherwise pass the laplace verdict on nothing.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"alpha": []}))
        result = CliRunner().invoke(main, ["laplace", "--config", str(config_path)])
        assert result.exit_code == 2, result.output
        assert re.search(r"^error: .*\balpha\b", result.output), result.output

    @pytest.mark.parametrize(
        "text, message",
        [("not json", "error: config is not valid JSON"),
         ("[1]", "error: config must be a JSON object"),
         ('{"grid": 5}', "error: grid must be an object")],
    )
    def test_unreadable_config_document(self, tmp_path, text, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        result = CliRunner().invoke(main, ["cdf", "--config", str(config_path)])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize(
        "args, key",
        [
            ("laplace --alpha 1.2", "alpha"),
            ("laplace --alpha 0", "alpha"),
            ("scaling --alpha 0.5 --p 0.6", "p"),
            ("scaling --alpha 0.5 --p -0.1", "p"),
            ("scaling --alpha 0.5 --times 1 --times -1", "times"),
            ("scaling", "alpha"),
            ("bound-theta --alpha 0.5 --theta 2.5", "theta"),
            ("bound-theta --alpha 0.5 --theta 0", "theta"),
            ("bound-theta --alpha 0.5 --theta -1", "theta"),
            ("bound-theta --alpha 0.5 --theta 1 --grid-q 1.5", "grid.q"),
            # q is read only by a geometric grid without an explicit epsilon.
            ("bound-exp --alpha 0.5 --grid-q 0.3", "grid.q"),
            ("bound-theta --alpha 0.5 --theta 1 --grid-epsilon 1e-6 --grid-q 0.3", "grid.q"),
            ("bound-theta --alpha 0.5 --theta 1 --grid-kind uniform --grid-q 0.9", "grid.q"),
            ("bound-theta --alpha 0.5 --theta 1 --grid-kind uniform --grid-epsilon 2",
             "grid.epsilon"),
            ("bound-theta --alpha 0.03 --theta 30 --p 0.01", "theta"),
            ("bound-exp --alpha 0.5 --lambda 0", "lambda"),
            ("bound-exp --alpha 0.5 --lambda 1 --T -1", "T"),
            ("bound-exp --alpha 0.5 --p 0.25 --grid-levels 0", "grid.levels"),
            ("blowup --alpha 0.5 --theta 0", "theta"),
            ("blowup --alpha 0.5 --theta 3 --replicates 50", "n_replicates"),
            ("blowup --alpha 0.5 --theta 3 --levels 12", "grid.levels"),
            ("blowup --alpha 0.5", "theta"),
            ("ibp --alpha 0.5 --theta -1", "theta"),
            ("ibp --alpha 1.5", "alpha"),
            ("ibp --alpha 0.5 --workers 4", "workers"),  # runs serially
            ("classify --alpha 0.5 --theta 2 --workers 3", "workers"),
            ("classify --alpha 1.5 --theta 1", "alpha"),
            ("classify --alpha 0.5 --theta 0", "c"),  # the exponent's name in --help
            ("cdf --replicates 1", "n_replicates"),
            ("cdf --replicates 2", "n_replicates"),  # 1.63/sqrt(2) > 1 passes anything
            ("cdf --workers 0", "workers"),
            ("verify-all --replicates 2", "n_replicates"),  # verify-all runs the KS test
            ("cdf --seed -1", "master_seed"),
            # A token starting with "{" is a config document.  These
            # experiments read no grid and no horizon.
            ('classify --alpha 0.5 --theta 2 --config {"grid":{"levels":7,"kind":"uniform"},"T":3.0}',
             "grid.kind"),
            ('classify --alpha 0.5 --theta 2 --config {"T":3.0}', "T"),
            ('cdf --config {"T":3.0}', "T"),
            ('laplace --config {"grid":{"epsilon":0.001}}', "grid.epsilon"),
            ('scaling --alpha 0.5 --config {"grid":{"q":0.25}}', "grid.q"),
            ('verify-all --config {"grid":{"levels":12}}', "grid.levels"),
            # Every other key a run never reads keeps its default too.
            ('verify-all --config {"theta":1.0}', "theta"),
            ('cdf --config {"p":0.1}', "p"),
            ('laplace --config {"lambda":2.0}', "lambda"),
            ('scaling --alpha 0.5 --config {"theta":1.0}', "theta"),
            ('bound-theta --alpha 0.5 --theta 1 --config {"lambda":2.0}', "lambda"),
            ('bound-exp --alpha 0.5 --config {"theta":1.0}', "theta"),
            ('blowup --alpha 0.5 --theta 3 --config {"times":[2.0]}', "times"),
            ('ibp --alpha 0.5 --config {"p":0.1}', "p"),
            ("classify --alpha 0.5 --theta 2 --seed 3", "master_seed"),
            ("classify --alpha 0.5 --theta 2 --replicates 7", "n_replicates"),
        ],
    )
    def test_rejected_before_sampling(self, monkeypatch, tmp_path, args, key):
        def never(*args):
            raise AssertionError("sampled before validation")

        # kanter_inputs is the one function that draws from a stream for the sampler.
        monkeypatch.setattr(subordinator, "kanter_inputs", never)
        monkeypatch.setattr(experiments, "kanter_inputs", never)
        argv = args.split()
        for i, token in enumerate(argv):
            if token.startswith("{"):
                argv[i] = str(tmp_path / f"config{i}.json")
                Path(argv[i]).write_text(token)
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert re.search(rf"^error: .*\b{re.escape(key)}\b", result.output), result.output

    def test_bound_theta_overflow_regime_is_config_error(self):
        # theta * |ln 2^-40| = 831 > 700: the batched kernel leaves double range.
        runner = CliRunner()
        result = runner.invoke(
            main, ["bound-theta", "--alpha", "0.03", "--theta", "30", "--p", "0.01"]
        )
        assert result.exit_code == 2
        assert "theta * |ln(grid epsilon)| must be <= 700" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            "ibp --alpha 0.01 --replicates 200",
            "bound-theta --alpha 0.01 --theta 1 --p 0.005 --replicates 2000",
            'laplace --config {"alpha":[0.01],"n_replicates":2000}',
        ],
    )
    def test_tiny_alpha_is_a_named_error(self, tmp_path, args):
        # A few Kanter draws in a thousand are not finite at alpha = 0.01.
        argv = args.split()
        if argv[-1].startswith("{"):
            argv[-1] = str(tmp_path / "config.json")
            Path(argv[-1]).write_text(args.split()[-1])
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        pattern = r"error: alpha = 0\.01 leaves the sampler's double range: [1-9]\d* of \d+ stable draws are not finite\n"
        assert re.fullmatch(pattern, result.output), result.output

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_ibp_nan_abel_discrepancy_fails(self, tmp_path):
        # On 300 dyadic levels 11 of the 50 Abel probes overflow to NaN.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"grid": {"levels": 300}}))
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["ibp", "--alpha", "0.5", "--theta", "1", "--replicates", "50", "--seed", "12345",
             "--config", str(config_path), "--out", str(tmp_path / "ibp")],
        )
        assert result.exit_code == 1
        assert "[FAIL] abel_identity" in result.output
        # The record is strict JSON: a bare NaN token would reach parse_constant.
        record = json.loads((tmp_path / "ibp.json").read_text(), parse_constant=_reject_constant)
        assert record["verdicts"]["abel_identity"] == "fail"
        assert record["results"]["max_abel_discrepancy"] == "NaN"
        assert math.isnan(float(record["results"]["max_abel_discrepancy"]))

    @pytest.mark.parametrize(
        "args, document",
        [
            (["ibp"], {"alpha": 0.5, "grid": {"levels": 2000}}),
            (["bound-exp"], {"alpha": 0.5, "grid": {"kind": "geometric", "levels": 2000}}),
            (["blowup", "--levels", "2000"], {"alpha": 0.5, "theta": 3.0}),
        ],
    )
    def test_deep_grid_is_config_error(self, tmp_path, args, document):
        # 2000 halvings underflow epsilon = 2^-2000 to 0.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(document))
        result = CliRunner().invoke(main, args + ["--config", str(config_path)])
        assert result.exit_code == 2, result.output
        assert "grid: grid points must be positive" in result.output

    @pytest.mark.parametrize(
        "grid, key",
        [
            ({"kind": "uniform", "q": 0.9, "epsilon": 0.001}, "grid.kind"),
            ({"q": 0.9}, "grid.q"),
            ({"epsilon": 0.001}, "grid.epsilon"),
        ],
        ids=["kind", "q", "epsilon"],
    )
    def test_blowup_rejects_grid_keys_it_never_reads(self, tmp_path, grid, key):
        # The diagnostic halves its grid down to T * 2^-levels whatever the
        # document says; a record must not echo a grid the run did not use.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"grid": grid}))
        result = CliRunner().invoke(
            main, ["blowup", "--alpha", "0.5", "--theta", "3", "--levels", "20",
                   "--config", str(config_path)],
        )
        assert result.exit_code == 2, result.output
        assert re.search(rf"^error: {re.escape(key)}\b", result.output), result.output

    def test_blowup_document_sets_replicates_and_levels(self, tmp_path):
        # Unset flags leave the document's values alone.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"alpha": 0.5, "theta": 3, "n_replicates": 200, "grid": {"levels": 20}}
        ))
        result = CliRunner().invoke(main, ["blowup", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["config"]["n_replicates"] == 200
        assert record["config"]["grid"]["levels"] == 20
        assert len(record["series"]["scaled_endpoint"]["rows"]) == 11  # levels 10..20

    def test_ibp_document_sets_path_count(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"alpha": 0.5, "n_replicates": 64}))
        result = CliRunner().invoke(main, ["ibp", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["results"]["n_paths"] == 64
        assert record["config"]["theta"] == 0.5

    def test_config_file_with_flag_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"alpha": 0.5, "theta": 1.9}))
        runner = CliRunner()
        result = runner.invoke(main, ["classify", "--config", str(config_path), "--theta", "2.0"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["config"]["theta"] == 2.0  # flag wins over document
        assert record["results"]["classification"] == "limsup_infinite"

    def test_scaling_writes_record_and_csv(self, tmp_path):
        out = tmp_path / "run" / "scaling"
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["scaling", "--alpha", "0.5", "--p", "0.25", "--replicates", "4000",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        record = json.loads((tmp_path / "run" / "scaling.json").read_text())
        assert record["verdicts"]["scaling_collapse"] == "pass"
        csv_path = tmp_path / "run" / "scaling_scaling.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,normalized_moment,std_error"
        assert len(lines) == 4  # header + three horizons

    def test_blowup_csv_columns(self, tmp_path):
        out = tmp_path / "blow"
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["blowup", "--alpha", "0.5", "--theta", "3.0", "--replicates", "500",
             "--levels", "20", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        endpoint = (tmp_path / "blow_scaled_endpoint.csv").read_text().splitlines()
        assert endpoint[0] == "epsilon,median_scaled,lower_ci,upper_ci"
        sums = (tmp_path / "blow_truncated_lower_sum.csv").read_text().splitlines()
        assert sums[0] == "epsilon,median,lower_ci,upper_ci"

    def test_ibp_convergence_csv(self, tmp_path):
        out = tmp_path / "ibp"
        runner = CliRunner()
        result = runner.invoke(
            main, ["ibp", "--alpha", "0.5", "--theta", "1.0", "--replicates", "50",
                   "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "ibp_bracket_convergence.csv").read_text().splitlines()
        assert rows[0] == "grid_levels,lower_sum,upper_sum,gap"
        assert len(rows) == 5  # refinement factors 1, 2, 4, 8

    def test_record_reproducibility_same_config(self, tmp_path):
        runner = CliRunner()
        args = ["cdf", "--replicates", "4000", "--seed", "99"]
        first = runner.invoke(main, args + ["--out", str(tmp_path / "a" / "r")])
        second = runner.invoke(main, args + ["--out", str(tmp_path / "b" / "r")])
        assert first.exit_code == 0 and second.exit_code == 0
        a = comparable_record_json((tmp_path / "a" / "r.json").read_text())
        b = comparable_record_json((tmp_path / "b" / "r.json").read_text())
        assert a == b

    def test_record_byte_identical_with_identical_config(self, tmp_path):
        # literally the same invocation twice: only the timing section may differ
        runner = CliRunner()
        args = ["cdf", "--replicates", "4000", "--seed", "99", "--out", str(tmp_path / "r")]
        records = []
        for _ in range(2):
            assert runner.invoke(main, args).exit_code == 0
            record = json.loads((tmp_path / "r.json").read_text())
            record.pop("timing")
            records.append(record)
        assert records[0] == records[1]

    def test_laplace_default_grid_has_nine_cells(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main, ["laplace", "--replicates", "2000", "--out", str(tmp_path / "l")]
        )
        assert result.exit_code == 0, result.output
        record = json.loads((tmp_path / "l.json").read_text())
        assert record["results"]["n_cells"] == 9

    def test_laplace_narrowed_alpha(self):
        runner = CliRunner()
        result = runner.invoke(main, ["laplace", "--alpha", "0.5", "--replicates", "2000"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["results"]["n_cells"] == 3

    def test_bound_exp_defaults_to_uniform_grid(self):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["bound-exp", "--alpha", "0.5", "--p", "0.25", "--lambda", "1.0",
             "--replicates", "2000"],
        )
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["config"]["grid"]["kind"] == "uniform"
        assert record["verdicts"]["moment_bound"] == "pass"
        explicit = parse_config('{"experiment": "moment_bound_exp", "alpha": 0.5,'
                                ' "grid": {"kind": "geometric"}}')
        assert explicit.grid.kind == "geometric"

    def test_fail_verdict_exits_nonzero(self, monkeypatch):
        import stablesub.reporting as reporting
        from stablesub.experiments import CdfCheckReport

        def always_failing(**kwargs):
            return CdfCheckReport(
                n_replicates=2, ks_distance=1.0, critical_value=0.01, passed=False
            )

        monkeypatch.setattr(reporting, "run_cdf_check", always_failing)
        runner = CliRunner()
        result = runner.invoke(main, ["cdf", "--replicates", "100"])
        assert result.exit_code == 1
        record = json.loads(result.output)
        assert record["verdicts"]["distribution_ks"] == "fail"
