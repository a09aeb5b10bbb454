"""Config parsing/validation contracts and the CLI surface."""

import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import stablesub.experiments as experiments
import stablesub.reporting as reporting
import stablesub.subordinator as subordinator
from stablesub import ConfigError, parse_config, render_config
from stablesub.cli import main
from stablesub.config import _EXPERIMENTS, _GRID_KEYS, _KEYS, EXPERIMENTS, config_from_mapping
from stablesub.config import __all__ as config_all
from stablesub.integrals import ExpKernel, SingularKernel
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
    # theta 0.4, not 1: at theta = 1 the uniform grid's first cell alone puts
    # the upper sum's p-th moment above the bound, and the cell is refused.
    "moment_bound_theta": {"alpha": 0.5, "theta": 0.4},
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
# Subcommand -> the experiment it runs.
_COMMANDS = {
    "laplace": "laplace_check",
    "cdf": "cdf_check",
    "scaling": "scaling",
    "bound-theta": "moment_bound_theta",
    "bound-exp": "moment_bound_exp",
    "blowup": "blowup",
    "ibp": "ibp_consistency",
    "classify": "kernel_classify",
    "verify-all": "verify_all",
}


def _flag(key):
    """The CLI flag of a config key: --<key>, with grid.<name> as --grid-<name>."""
    return {"n_replicates": "--replicates", "master_seed": "--seed"}.get(key, "--" + key.replace(".", "-"))


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
        assert config.alpha is None  # alpha = 1/2 is the law under test, not a key
        config = parse_config('{"experiment": "scaling", "alpha": 0.6}')
        assert config.p == 0.3  # alpha / 2 default
        assert config.times == (0.25, 1.0, 4.0)

    def test_kernel_follows_lambda(self):
        # Only bound-exp reads lambda (default 1); every other run keeps it unset.
        config = parse_config('{"experiment": "moment_bound_exp", "alpha": 0.5, "T": 3.0}')
        assert config.kernel() == ExpKernel(lam=1.0, T=3.0)
        for document in ('{"experiment": "moment_bound_theta", "alpha": 0.5, "theta": 1.2}',
                         '{"experiment": "ibp_consistency", "alpha": 0.5}'):
            config = parse_config(document)
            assert config.lam is None
            assert config.kernel() == SingularKernel(theta=config.theta, T=1.0)

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

    @pytest.mark.parametrize("experiment", sorted(_READS))
    def test_null_means_unset(self, experiment):
        # Every key set to null parses as if it were absent: to the same
        # config, or to the same error when the key is required.
        def outcome(document):
            try:
                return config_from_mapping(document)
            except ConfigError as exc:
                return str(exc)

        base = {"experiment": experiment, **_REQUIRED.get(experiment, {})}
        for key in ("grid", "grid.kind", *_NON_DEFAULT):
            section, _, name = key.rpartition(".")
            absent = {k: v for k, v in base.items() if k != key}
            document = dict(absent)
            (document.setdefault("grid", {}) if section else document)[name] = None
            assert outcome(document) == outcome(absent), key

    def test_workers_floor(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            config_from_mapping({"experiment": "cdf_check", "workers": 0})


class TestTables:
    """Each key is declared on its field and each experiment as one row; the
    CLI and the report builders are generated from or checked against them."""

    def test_every_key_a_row_reads_is_a_field_with_parser_and_help(self):
        fields = {**_GRID_KEYS, **_KEYS}
        for row in _EXPERIMENTS.values():
            for key in row.reads:
                assert callable(fields[key].metadata["parse"]), (row.name, key)
                assert fields[key].metadata["help"], (row.name, key)

    def test_rows_and_builders_name_the_same_experiments(self):
        assert set(_EXPERIMENTS) == set(reporting._BUILDERS)

    def test_experiments_is_the_public_tuple_of_names(self):
        assert "EXPERIMENTS" in config_all
        assert EXPERIMENTS == tuple(_READS) == tuple(_EXPERIMENTS)


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
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_help_lists_each_flag(self, command):
        # --config, one flag per key the experiment reads, then --out.
        flags = re.findall(r"^  (--[\w-]+)", _help(command), re.MULTILINE)
        assert flags[:1] == ["--config"] and flags[-2:] == ["--out", "--help"], flags
        assert sorted(flags[1:-2]) == sorted(_flag(key) for key in _READS[_COMMANDS[command]])

    def test_help_defaults_are_the_config_defaults(self):
        def hinted(command, pattern):
            text = " ".join(_help(command).split())
            match = re.search(re.escape(pattern) + r" Default: ([\d. ]+)\.", text)
            return tuple(float(v) for v in match[1].split())

        assert hinted("laplace", "--alpha FLOAT Stability index. Repeatable.") == experiments.LAPLACE_ALPHAS
        scaling = parse_config('{"experiment": "scaling", "alpha": 0.5}')
        assert hinted("scaling", "--times FLOAT Horizon t of S_t. Repeatable.") == scaling.times
        blowup = parse_config('{"experiment": "blowup", "alpha": 0.5, "theta": 3.0}')
        assert hinted("blowup", "--grid-levels INTEGER Number of grid cells.") == (blowup.grid.levels,)

    def test_classify_stdout_record(self):
        runner = CliRunner()
        result = runner.invoke(main, ["classify", "--alpha", "0.5", "--theta", "2.0"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        # Analytic: the label and nothing the config already says, no verdict.
        assert record["results"] == {"classification": "limsup_infinite"}
        assert record["verdicts"] == {}

    def test_blowup_at_the_threshold_records_no_verdict(self):
        # At theta = 1/alpha the slope statistic carries no information: the
        # record reports the case and checks nothing.
        args = "blowup --alpha 0.5 --theta 2 --replicates 500 --grid-levels 20"
        result = CliRunner().invoke(main, args.split())
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["results"]["boundary_inconclusive"] is True
        assert record["verdicts"] == {}

    def test_null_document_keys_take_flags_and_defaults(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"grid": None, "master_seed": None, "n_replicates": None}))
        args = ["blowup", "--alpha", "0.5", "--theta", "3", "--grid-levels", "20", "--replicates", "200",
                "--config", str(config_path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        config = json.loads(result.output)["config"]
        assert (config["grid"]["levels"], config["n_replicates"], config["master_seed"]) == (20, 200, 12345)

    def test_config_error_exit_code(self):
        runner = CliRunner()
        result = runner.invoke(main, ["bound-theta", "--alpha", "0.5", "--theta", "2.5"])
        assert result.exit_code == 2
        assert "theta must lie in (0, 1/alpha): got theta=2.5, alpha=0.5" in result.output

    @pytest.mark.parametrize(
        "args, largest, bound",
        [
            ("bound-exp --alpha 0.5 --T 5000 --replicates 4000", "16.17", "6.539"),
            ("bound-theta --alpha 0.5 --theta 1 --grid-kind uniform --replicates 4000", "234.2", "11.81"),
        ],
    )
    def test_grid_too_coarse_for_the_bound_is_config_error(self, args, largest, bound):
        # The upper sum is at least its largest term, whose p-th moment is at
        # or above the bound here: the verdict could only fail.
        result = CliRunner().invoke(main, args.split())
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error: grid.levels = 40 is too coarse: the upper sum's largest term alone "
            f"has p-th moment {largest}, at or above the bound {bound}\n"
        )

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
         ('{"grid": 5}', "error: grid must be an object"),
         ('{"grid": []}', "error: grid must be an object")],
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
            # One horizon, or one repeated, compares with nothing.
            ("scaling --alpha 0.5 --times 1", "times"),
            ("scaling --alpha 0.5 --times 1 --times 1", "times"),
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
            ("blowup --alpha 0.5 --theta 3 --grid-levels 12", "grid.levels"),
            ("blowup --alpha 0.5", "theta"),
            ("ibp --alpha 0.5 --theta -1", "theta"),
            ("ibp --alpha 1.5", "alpha"),
            ('ibp --alpha 0.5 --config {"workers":4}', "workers"),  # runs serially
            ('classify --alpha 0.5 --theta 2 --config {"workers":3}', "workers"),
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
            # Only bound-exp reads lambda, so only its kernel is e^(-lambda (T - t)).
            ('ibp --alpha 0.5 --config {"lambda":2.0}', "lambda"),
            # Every experiment but laplace takes one alpha.
            ('scaling --config {"alpha":[0.3,0.5]}', "alpha"),
            ('bound-theta --theta 1 --config {"alpha":[0.3,0.5]}', "alpha"),
            ('bound-exp --config {"alpha":[0.3,0.5]}', "alpha"),
            ('blowup --theta 3 --config {"alpha":[0.3,0.5]}', "alpha"),
            ('ibp --config {"alpha":[0.3,0.5]}', "alpha"),
            ('classify --theta 2 --config {"alpha":[0.3,0.5]}', "alpha"),
            # theta * |ln 2^-30| = 1247.7 > 700: epsilon^-theta leaves double range.
            ("blowup --alpha 0.5 --theta 60 --replicates 200", "theta"),
            # ibp meets the same fence: summation by parts has no log-space form.
            ("ibp --alpha 0.5 --theta 30 --replicates 1000", "theta"),
            # Non-finite horizons, exponents and rates are refused by name.
            ("ibp --alpha 0.5 --theta inf", "theta"),
            ("bound-theta --alpha 0.5 --theta inf", "theta"),
            ("blowup --alpha 0.5 --theta inf", "theta"),
            ("bound-exp --alpha 0.5 --lambda inf", "lambda"),
            ("bound-exp --alpha 0.5 --lambda nan", "lambda"),
            # E S_1^p / (1 - e^(-p lambda)) overflows once p lambda is subnormal.
            ("bound-exp --alpha 0.5 --lambda 1e-320", "lambda"),
            ("bound-theta --alpha 0.5 --theta 1 --T inf", "T"),
            ("bound-exp --alpha 0.5 --T inf", "T"),
            ("blowup --alpha 0.5 --theta 3 --T inf", "T"),
            ("ibp --alpha 0.5 --T inf", "T"),
            ("ibp --alpha 0.5 --T nan", "T"),
            # theta = 1/2 fits, but the Abel probes' 4.05 * |ln epsilon| exceeds 700.
            ("ibp --alpha 0.5 --T 1e-70 --replicates 100", "Abel probes"),
            ("ibp --alpha 0.5 --T 1e-100 --replicates 100", "Abel probes"),
            # The path scale key^(1/alpha) underflows below the smallest normal double.
            ("ibp --alpha 0.5 --T 1e-300 --replicates 100", "T"),
            ("bound-exp --alpha 0.5 --T 1e-300 --replicates 100", "T"),
            ("bound-theta --alpha 0.5 --theta 0.1 --T 1e-300 --replicates 100", "T"),
            ("blowup --alpha 0.5 --theta 3 --T 1e-300", "T"),
            # blowup takes logarithms of its medians: (2^-600)^(1/alpha) underflows at the
            # deepest level, and (T 2^-10)^-theta at the coarsest, so the medians would be 0.
            ("blowup --alpha 0.5 --theta 1 --grid-levels 600 --replicates 100", "grid.levels"),
            ("blowup --alpha 0.5 --theta 1 --grid-levels 512 --replicates 100", "grid.levels"),
            ("blowup --alpha 0.323 --theta 8.87 --T 2.48e83 --grid-levels 200 --replicates 100", "T"),
            ("scaling --alpha 0.5 --times 1e-300 --times 1 --replicates 100", "times"),
            ("scaling --alpha 0.5 --times 1 --times 1e-170 --replicates 100", "times"),
            ('ibp --alpha 0.5 --theta 1 --config {"grid":{"levels":300}}', "Abel probes"),
            ('ibp --alpha 0.5 --theta 1 --replicates 4000 --config {"T":1e154}', "Abel probes"),
            ('ibp --alpha 0.5 --config {"p":0.1}', "p"),
            ('classify --alpha 0.5 --theta 2 --config {"master_seed":3}', "master_seed"),
            ('classify --alpha 0.5 --theta 2 --config {"n_replicates":7}', "n_replicates"),
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

    @pytest.mark.parametrize(
        "args, key",
        [
            # The path scale key^(1/alpha) overflows: refused before sampling.
            ("bound-theta --alpha 0.5 --theta 1 --T 1e300 --replicates 100", "T"),
            ("bound-exp --alpha 0.5 --T 1e300 --replicates 100", "T"),
            ('ibp --alpha 0.5 --theta 1 --replicates 100 --config {"T":1e300}', "T"),
            ("scaling --alpha 0.5 --times 1e200 --replicates 1000", "times"),
            # The scale fits, but some scaled draws or paths overflow.
            ("scaling --alpha 0.5 --times 1e150 --times 1 --replicates 100000", "times"),
            ("bound-theta --alpha 0.5 --theta 1 --T 1e154 --replicates 4000", "T"),
            ('ibp --alpha 0.5 --theta 1 --replicates 4000 --config {"T":1e154,"grid":{"epsilon":1e70}}', "T"),
        ],
    )
    def test_large_horizon_is_a_named_error(self, tmp_path, args, key):
        argv = args.split()
        if argv[-1].startswith("{"):
            argv[-1] = str(tmp_path / "config.json")
            Path(argv[-1]).write_text(args.split()[-1])
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2, result.output
        pattern = rf"error: {key} = 1e\+\d+ [^\n]*\balpha = 0\.5\b[^\n]*\n"
        assert re.fullmatch(pattern, result.output), result.output

    def test_moments_whose_squares_overflow_reduce_finitely(self):
        # The p-th powers reach 1e160, so their squares leave double range: the
        # standard errors come from the samples scaled by their largest value.
        args = "bound-theta --alpha 0.9999 --p 0.9998 --theta 0.001 --T 1e160 --replicates 100"
        result = CliRunner().invoke(main, args.split())
        assert result.exit_code == 0, result.output
        results = json.loads(result.output)["results"]
        assert all(math.isfinite(value) for value in results.values()), results
        args = "scaling --alpha 0.9999 --p 0.9998 --times 1e100 --times 1e160 --replicates 100"
        result = CliRunner().invoke(main, args.split())
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert [math.isfinite(float(row[2])) for row in record["series"]["scaling"]["rows"]] == [True, True]
        assert math.isfinite(record["results"]["max_deviation_sigmas"])

    def test_smallest_scaling_horizon_that_fits_runs(self):
        # 1e-150^(1/alpha) = 1e-300 is still a normal double.
        args = "scaling --alpha 0.5 --times 1e-150 --times 1 --replicates 1000"
        result = CliRunner().invoke(main, args.split())
        assert result.exit_code == 0, result.output

    def test_deepest_blowup_grid_that_fits_runs(self):
        # (2^-511)^(1/alpha) = 2^-1022 is the smallest normal double.
        args = "blowup --alpha 0.5 --theta 1 --grid-levels 511 --replicates 100"
        result = CliRunner().invoke(main, args.split())
        assert result.exit_code == 0, result.output
        results = json.loads(result.output)["results"]
        assert all(math.isfinite(results[key]) for key in ("fitted_slope", "residual", "lower_sum_slope"))

    @pytest.mark.parametrize("args", ["ibp --alpha 0.5 --theta 1", "blowup --alpha 0.5 --theta 3"])
    def test_horizon_and_depth_flags(self, args):
        argv = args.split() + ["--T", "2", "--grid-levels", "20", "--replicates", "200"]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, result.output
        config = json.loads(result.output)["config"]
        assert (config["T"], config["grid"]["levels"]) == (2.0, 20)

    @pytest.mark.parametrize("T", ["1e-9", "1e-60", "1e-63"])
    def test_small_horizon_passes_every_ibp_verdict(self, T):
        # The exponential anchor's target 1 - e^-(T - epsilon) is computed without cancellation.
        result = CliRunner().invoke(main, ["ibp", "--alpha", "0.5", "--T", T, "--replicates", "100"])
        assert result.exit_code == 0, result.output
        verdicts = json.loads(result.output)["verdicts"]
        names = ["abel_identity", "brackets_intersect", "classical_integrals"]
        assert verdicts == dict.fromkeys(names, "pass")

    def test_ibp_nan_abel_discrepancy_fails(self, monkeypatch, tmp_path):
        # The probe fence refuses every grid whose probes overflow, so a NaN
        # discrepancy is planted in one row.
        real = experiments._abel_discrepancies

        def one_nan(*args):
            discrepancies = real(*args)
            discrepancies[7] = math.nan
            return discrepancies

        monkeypatch.setattr(experiments, "_abel_discrepancies", one_nan)
        result = CliRunner().invoke(
            main,
            ["ibp", "--alpha", "0.5", "--theta", "1", "--replicates", "50", "--seed", "12345",
             "--out", str(tmp_path / "ibp")],
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
            (["blowup", "--grid-levels", "2000"], {"alpha": 0.5, "theta": 3.0}),
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
            main, ["blowup", "--alpha", "0.5", "--theta", "3", "--grid-levels", "20",
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

    @pytest.mark.parametrize("stem, name", [("theta2.5", "theta2.5"), ("a0.3", "a0.3"), ("x.json", "x"),
                                            ("rec", "rec")])
    def test_out_stem_keeps_its_dots(self, tmp_path, stem, name):
        # The record is <stem>.json next to its <stem>_<series>.csv files, a
        # stem already ending in .json names the record itself, and the CLI
        # prints the record's path as written.
        result = CliRunner().invoke(main, ["scaling", "--alpha", "0.5", "--replicates", "200",
                                           "--out", str(tmp_path / stem)])
        assert result.exit_code == 0, result.output
        assert sorted(path.name for path in tmp_path.iterdir()) == [f"{name}.json", f"{name}_scaling.csv"]
        assert result.output.splitlines()[-1] == f"record written to {tmp_path / name}.json"

    def test_out_stems_that_differ_after_a_dot_do_not_collide(self, tmp_path):
        for alpha in ("0.3", "0.7"):
            result = CliRunner().invoke(main, ["scaling", "--alpha", alpha, "--replicates", "200",
                                               "--out", str(tmp_path / f"a{alpha}")])
            assert result.exit_code == 0, result.output
        for alpha in ("0.3", "0.7"):
            record = json.loads((tmp_path / f"a{alpha}.json").read_text())
            assert record["config"]["alpha"] == float(alpha)

    def test_blowup_csv_columns(self, tmp_path):
        out = tmp_path / "blow"
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["blowup", "--alpha", "0.5", "--theta", "3.0", "--replicates", "500",
             "--grid-levels", "20", "--out", str(out)],
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
        # The record does not restate the config's replicate count.
        assert sorted(record["results"]) == [
            "bound_value", "lower_mean", "lower_std_error", "margin", "upper_mean", "upper_std_error"
        ]
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
