import dataclasses
import math
import pickle

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from platformsim.cli import EXIT_CONFIG, main
from platformsim.config import (BetaPrior, ComparisonRules, ConfigError, CorrelatedTransform,
                                DiscreteDist, EndpointModel, PlatformRules, TargetProfile,
                                expand_grid, get_path, load_scenario, parse_scenario,
                                scenario_to_dict, validate)
from platformsim.decisions import BayesFutRule, BayesSupRule
from platformsim.reporting import spec_hash
from platformsim.runner import run_single_trial
from platformsim.stats import MAX_PRIOR_SHAPE

from conftest import CONFIGS, ROOT, RULE_KINDS, any_comparison_rules, rules_of, scenario_dict


class TestParse:
    def test_example_scenario_fields(self, example_spec):
        spec = example_spec
        assert spec.efficacy.comb.values == (0.35, 0.40, 0.45)
        assert spec.efficacy.comb.probs == (0.4, 0.4, 0.2)
        assert spec.efficacy.soc.values == (0.10, 0.12, 0.14)
        assert spec.platform.n_int == 50
        assert spec.platform.n_fin == 100
        assert spec.platform.cohorts_max == 5
        assert spec.platform.cohort_random == 0.02
        assert spec.platform.sr_drugs_pos == 1
        assert spec.platform.safety_prob == 0.0001
        assert spec.platform.sharing_type == "cohort"
        assert spec.target.margin_comb == 0.10
        assert spec.target.margin_mono == 0.05
        assert spec.target.scale == 1
        assert spec.rules.interim[0].bayes_sup[0].rows == ((0.10, 0.80, 1.00),)
        assert spec.rules.final[3].bayes_sup[0].rows == ((0.05, 0.80, 1.00),)
        # documented default
        assert spec.platform.run_out_active_cohorts is True

    def test_probs_must_sum_to_one(self):
        d = scenario_dict()
        d["efficacy"]["comb"] = {"values": [0.3, 0.4], "probs": [0.5, 0.6]}
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_scenario(d)

    def test_n_int_greater_than_n_fin(self):
        with pytest.raises(ConfigError, match="n_int"):
            parse_scenario(scenario_dict(n_int=200, n_fin=100))

    def test_unknown_field_rejected(self):
        d = scenario_dict()
        d["platform"]["n_intt"] = 10
        with pytest.raises(ConfigError, match="n_intt"):
            parse_scenario(d)

    def test_missing_field_rejected(self):
        d = scenario_dict()
        del d["platform"]["n_int"]
        with pytest.raises(ConfigError, match="n_int"):
            parse_scenario(d)

    def test_inf_spelling(self):
        spec = parse_scenario(scenario_dict(sr_pats="inf"))
        assert math.isinf(spec.platform.sr_pats)

    @pytest.mark.parametrize("field", ["cohorts_max", "cohort_random", "sr_pats"])
    def test_integer_beyond_float_range(self, field, tmp_path, capsys):
        # 10**400 has no float: the field must be rejected, not overflow
        raw = scenario_dict(**{field: 10 ** 400})
        with pytest.raises(ConfigError, match=rf"platform\.{field}: must be finite"):
            parse_scenario(raw)
        with pytest.raises(ConfigError, match=rf"axis platform\.{field}: must be finite"):
            expand_grid(parse_scenario(scenario_dict()), {f"platform.{field}": [10 ** 400]})
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert f"platform.{field}: must be finite" in capsys.readouterr().err

    def test_yaml_text_and_dict_agree(self, example_config_path, example_spec):
        with open(example_config_path) as fh:
            assert parse_scenario(fh.read()) == example_spec


class TestValidate:
    def test_valid_spec_no_violations(self, example_spec):
        assert validate(example_spec) == []

    def test_confidence_out_of_range(self):
        d = scenario_dict()
        d["rules"]["interim"]["comb_vs_mono_a"]["bayes_sup"] = [{"rows": [[0.1, 1.5, 1.0]]}]
        spec_violations = [v for v in validate_unchecked(d) if v.severity == "error"]
        assert len(spec_violations) == 1
        assert "confidence" in spec_violations[0].message

    def test_overlapping_sup_fut_is_warning_only(self):
        d = scenario_dict()
        d["rules"]["interim"]["comb_vs_mono_a"] = {
            "bayes_sup": [{"rows": [[0.0, 0.5, 1.0]]}],
            "bayes_fut": [{"rows": [[0.0, 0.6]]}],
        }
        violations = validate_unchecked(d)
        assert [v.severity for v in violations] == ["warning"]
        parse_scenario(d)  # warnings do not block

    def test_short_rule_row_beside_a_rival_is_an_error_not_a_crash(self, example_spec):
        # built in library code, so no parser stands between the row and validate
        rules = ComparisonRules(bayes_sup=(BayesSupRule(rows=((0.1, 0.8),)),),
                                bayes_fut=(BayesFutRule(rows=((0.0, 0.2),)),))
        assert [str(v) for v in validate(with_rules(example_spec, rules))] == [
            "[error] rules.final.comb_vs_mono_a.bayes_sup[0].rows[0]: needs 3 entries, got 2"]

    def test_no_plac_with_soc_rules_warns(self):
        d = scenario_dict(trial_struc="no_plac")
        warnings = [v for v in validate_unchecked(d) if v.severity == "warning"]
        assert any("no_plac" in v.message for v in warnings)

    @pytest.mark.parametrize("ratio, keys", [
        ([2, 1, 1, 0], ["mono_a_vs_soc", "mono_b_vs_soc"]),
        ([2, 0, 1, 1], ["comb_vs_mono_a", "mono_a_vs_soc"]),
    ])
    def test_zero_allocation_warns_per_ruled_comparison(self, ratio, keys):
        # an arm with ratio 0 never enters a cohort, so its comparisons are never analysed
        violations = validate_unchecked(scenario_dict(allocation_ratio=ratio))
        assert all(v.severity == "warning" for v in violations)
        assert sorted(v.field for v in violations) == sorted(
            f"rules.{stage}.{key}" for stage in ("interim", "final") for key in keys)
        assert all("allocation_ratio 0" in v.message for v in violations)

    def test_zero_allocation_without_rules_is_silent(self):
        d = scenario_dict(allocation_ratio=[2, 1, 1, 0])
        for stage in d["rules"].values():
            del stage["mono_a_vs_soc"], stage["mono_b_vs_soc"]
        assert validate_unchecked(d) == []

    @pytest.mark.parametrize("name", ["example_scenario.yaml", "grid_base.yaml"])
    def test_bundled_configs_validate_clean(self, name):
        assert validate(parse_scenario((CONFIGS / name).read_text())) == []

    def test_validate_is_pure(self, example_spec):
        assert validate(example_spec) == validate(example_spec)

    @pytest.mark.parametrize("margin", [0.0, -0.3])
    @pytest.mark.parametrize("name", ["margin_comb", "margin_mono"])
    @pytest.mark.parametrize("scale", [2, 3])
    def test_ratio_scale_margin_must_be_positive(self, scale, name, margin):
        d = scenario_dict()
        d["target"].update({"scale": scale, name: margin})
        errors = [v for v in validate_unchecked(d) if v.severity == "error"]
        assert [v.field for v in errors] == [f"target.{name}"]
        with pytest.raises(ConfigError, match=f"target.{name}"):
            parse_scenario(d)

    def test_unknown_scale_is_one_error_even_with_a_margin_of_zero(self):
        d = scenario_dict()
        d["target"].update({"scale": 5, "margin_comb": 0.0})
        assert [v.field for v in validate_unchecked(d) if v.severity == "error"] == ["target.scale"]

    def test_risk_difference_accepts_negative_margins(self):
        d = scenario_dict()
        d["target"].update({"scale": 1, "margin_comb": -0.3, "margin_mono": -0.3})
        assert validate_unchecked(d) == []

    def test_transform_marginal_enforced(self):
        bad = EndpointModel((lambda rr: (1.0 - rr, 0.0, rr, 0.0),), (1.0,))
        d = scenario_dict()
        spec = parse_scenario(d)
        import dataclasses
        broken = dataclasses.replace(spec, endpoint=bad)
        errors = [v for v in validate(broken) if v.severity == "error"]
        assert [v.field for v in errors] == ["endpoint.transforms[0]"]


def validate_unchecked(d):
    """Build without the parse-time validation gate, then validate."""
    from platformsim.config import scenario_from_dict
    return validate(scenario_from_dict(d))


def to_yaml(spec):
    return yaml.safe_dump(scenario_to_dict(spec), sort_keys=False)


class TestRoundTrip:
    def test_example_round_trip(self, example_spec):
        assert parse_scenario(to_yaml(example_spec)) == example_spec

    def test_round_trip_with_correlated_transform_and_inf(self):
        d = scenario_dict(sr_pats="inf", sr_drugs_pos=2)
        d["endpoint"] = {"transforms": [{"kind": "identity"},
                                        {"kind": "correlated", "sens": 0.8, "spec": 0.9}],
                         "probs": [0.25, 0.75]}
        d["rules"]["final"]["comb_vs_mono_a"]["est_sup_fut"] = [
            {"est": "RR", "p_hat_sup": 1.2, "p_hat_fut": 1.0, "p_hat_prom": "inf"}]
        spec = parse_scenario(d)
        assert isinstance(spec.endpoint.transforms[1], CorrelatedTransform)
        assert parse_scenario(to_yaml(spec)) == spec

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_correlated_transform_is_valid_joint(self, sens, spec_):
        t = CorrelatedTransform(sens=sens, spec=spec_)
        for rr in (0.0, 0.3, 0.7, 1.0):
            probs = t(rr)
            assert all(p >= -1e-12 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            assert probs[1] + probs[3] == pytest.approx(rr, abs=1e-9)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_correlated_transform_is_a_joint_with_final_marginal_rr(self, sens, spec_, rr):
        # any in-limits transform is valid at every rate, so validation checks only the limits
        probs = CorrelatedTransform(sens=sens, spec=spec_)(rr)
        assert len(probs) == 4 and min(probs) >= 0.0
        assert abs(sum(probs) - 1.0) <= 1e-12
        assert abs(probs[1] + probs[3] - rr) <= 1e-12


class TestRulesTable:
    def test_missing_comparison_or_stage_is_empty(self):
        d = scenario_dict()
        d["rules"] = {"final": {"comb_vs_mono_a": d["rules"]["final"]["comb_vs_mono_a"]}}
        rules = parse_scenario(d).rules
        assert rules.interim == (ComparisonRules(),) * 4
        assert not rules.final[0].empty
        assert rules.final[1:] == (ComparisonRules(),) * 3

    def test_unknown_comparison_key_names_its_stage(self):
        d = scenario_dict()
        d["rules"]["interim"]["comb_vs_soc"] = {}
        with pytest.raises(ConfigError, match=r"^rules\.interim: unknown field\(s\) \['comb_vs_soc'\]"):
            parse_scenario(d)

    def test_dump_leaves_out_empty_comparisons(self):
        d = scenario_dict()
        kept = d["rules"]["final"]["mono_b_vs_soc"]
        d["rules"] = {"final": {"mono_b_vs_soc": kept}}
        assert scenario_to_dict(parse_scenario(d))["rules"] == {
            "interim": {}, "final": {"mono_b_vs_soc": kept}}

    def test_violation_path_names_the_comparison(self):
        d = scenario_dict()
        d["rules"]["final"]["mono_b_vs_soc"]["bayes_sup"] = [{"rows": [[0.05, 1.5, 1.0]]}]
        errors = [v for v in validate_unchecked(d) if v.severity == "error"]
        assert [v.field for v in errors] == ["rules.final.mono_b_vs_soc.bayes_sup[0].rows[0][1]"]

    def test_pickled_rule_set_hashes_anew(self, example_spec):
        # str hashes differ between interpreters, so no stored hash may travel
        data = pickle.dumps(example_spec.rules)
        assert b"_hash" not in data
        rules = pickle.loads(data)
        assert rules == example_spec.rules and hash(rules) == hash(example_spec.rules)


#: ``reporting.spec_hash`` of the shipped scenario files: the parse and dump of a
#: scenario must not move it
SHIPPED_SPEC_HASHES = {
    "configs/example_scenario.yaml":
        "c3c698b43d7b0bd455c7aa4038ed53dcd8f772f61fd5b28d30bfdd9340742447",
    "configs/grid_base.yaml": "9e8dfce4008822a45a0a61a67dc63f86565e8ba6abe5384553093b0212c9dff6",
    "tests/golden/all_rules.yaml":
        "a8fff47d675ebf413bfa8665b1158a41cb01e4df1ce7c4adffd5121e9814bdc9",
}


@pytest.mark.parametrize("path", sorted(SHIPPED_SPEC_HASHES))
def test_spec_hash_of_shipped_files_is_pinned(path):
    assert spec_hash(load_scenario(ROOT / path)) == SHIPPED_SPEC_HASHES[path]


class TestExpandGrid:
    def test_three_by_four(self, example_spec):
        axes = {"cohort_random": [0.01, 0.02, 0.03], "n_int": [50, 60, 70, 80]}
        specs = expand_grid(example_spec, axes)
        assert len(specs) == 12
        assert len({s.id for s in specs}) == 12

    def test_empty_axes_identity(self, example_spec):
        assert expand_grid(example_spec, {}) == [example_spec]

    def test_row_major_order(self, example_spec):
        axes = {"cohort_random": [0.1, 0.2], "n_int": [10, 20, 30]}
        specs = expand_grid(example_spec, axes)
        combos = [(s.platform.cohort_random, s.platform.n_int) for s in specs]
        assert combos == [(0.1, 10), (0.1, 20), (0.1, 30),
                          (0.2, 10), (0.2, 20), (0.2, 30)]

    def test_only_axis_fields_differ(self, example_spec):
        specs = expand_grid(example_spec, {"n_int": [40, 60]})
        for s in specs:
            d = scenario_to_dict(s)
            e = scenario_to_dict(example_spec)
            d["platform"]["n_int"] = e["platform"]["n_int"]
            d["id"] = e["id"]
            assert d == e

    def test_dotted_and_bare_paths_agree(self, example_spec):
        a = expand_grid(example_spec, {"platform.n_int": [40]})
        b = expand_grid(example_spec, {"n_int": [40]})
        assert a[0].platform.n_int == b[0].platform.n_int == 40

    def test_unknown_path(self, example_spec):
        with pytest.raises(ConfigError, match="no scalar field"):
            expand_grid(example_spec, {"not_a_field": [1]})

    def test_id_is_not_an_axis(self, example_spec):
        # every grid scenario gets a derived id, so an id axis would be dropped
        with pytest.raises(ConfigError, match="no scalar field"):
            expand_grid(example_spec, {"id": ["alpha", "beta"], "n_fin": [100]})
        with pytest.raises(ConfigError, match="no scalar field"):
            get_path(example_spec, "id")

    def test_get_path(self, example_spec):
        assert get_path(example_spec, "n_fin") == 100
        assert get_path(example_spec, "target.margin_comb") == 0.10


class TestDiscreteDist:
    def test_sampling_stays_on_support(self):
        import numpy as np
        d = DiscreteDist((0.1, 0.2, 0.7), (0.2, 0.3, 0.5))
        rng = np.random.default_rng(0)
        draws = {d.sample(rng) for _ in range(500)}
        assert draws <= {0.1, 0.2, 0.7}

    def test_point_mass(self):
        import numpy as np
        d = DiscreteDist((0.4,), (1.0,))
        rng = np.random.default_rng(0)
        assert all(d.sample(rng) == 0.4 for _ in range(10))


class TestLoudFailures:
    @pytest.mark.parametrize("section,key", [("target", "strict"),
                                             ("platform", "sr_first_pos"),
                                             ("platform", "run_out_active_cohorts")])
    def test_bool_fields_reject_strings(self, section, key):
        d = scenario_dict()
        d[section][key] = "no"
        with pytest.raises(ConfigError, match=key):
            parse_scenario(d)

    def test_continuity_correction_rejects_string(self):
        d = scenario_dict()
        d["rules"]["final"]["comb_vs_mono_a"]["freq_sup"] = [{"p_sup": 0.05, "correct": "no"}]
        with pytest.raises(ConfigError, match="correct"):
            parse_scenario(d)

    def test_scalar_endpoint_probs(self):
        d = scenario_dict()
        d["endpoint"]["probs"] = 1.0
        with pytest.raises(ConfigError, match="endpoint.probs"):
            parse_scenario(d)

    def test_efficacy_random_false_rejected(self):
        d = scenario_dict()
        d["efficacy"]["random"] = False
        with pytest.raises(ConfigError, match="one-value distributions"):
            parse_scenario(d)

    def test_efficacy_random_true_accepted(self):
        d = scenario_dict()
        assert d["efficacy"]["random"] is True
        del d["efficacy"]["random"]
        assert parse_scenario(scenario_dict()) == parse_scenario(d)


# --- every rule kind, driven by the declared field limits ---------------------


def outside_limits(meta):
    """Values just outside the limits ``meta``."""
    if "choices" in meta:
        yield "bogus"
    is_open = meta.get("open", False)
    if "lo" in meta:
        yield meta["lo"] if is_open else math.nextafter(meta["lo"], -math.inf)
    if "hi" in meta:
        yield meta["hi"] if is_open else math.nextafter(meta["hi"], math.inf)


def declared_limits(cls):
    """(field name, column or None, limits) for each declared limit of ``cls``."""
    for f in dataclasses.fields(cls):
        for column, meta in (enumerate(f.metadata["columns"]) if "columns" in f.metadata
                             else [(None, f.metadata)]):
            yield f.name, column, meta


LIMIT_SITES = [(key, name, column, bad)
               for key, cls in RULE_KINDS.items() for name, column, meta in declared_limits(cls)
               for bad in outside_limits(meta)]


def with_rules(spec, comparison_rules):
    rules = dataclasses.replace(spec.rules, final=(comparison_rules,) + spec.rules.final[1:])
    return dataclasses.replace(spec, rules=rules)


class TestRuleKinds:
    def test_field_names_are_rule_keys(self):
        assert all(cls.key == key for key, cls in RULE_KINDS.items())

    @given(any_comparison_rules())
    @settings(max_examples=60, deadline=None)
    def test_in_limits_rules_round_trip(self, rules):
        spec = with_rules(parse_scenario(scenario_dict()), rules)
        assert [v for v in validate(spec) if v.severity == "error"] == []
        assert parse_scenario(to_yaml(spec)) == spec

    @pytest.mark.parametrize("key,name,column,bad", LIMIT_SITES)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_value_outside_limits_is_an_error_naming_its_field(self, key, name, column, bad, data):
        rule = data.draw(rules_of(RULE_KINDS[key]))
        if column is None:
            rule = dataclasses.replace(rule, **{name: bad})
            where = f".{key}[0].{name}"
        else:
            row = list(rule.rows[0])
            row[column] = bad
            rule = dataclasses.replace(rule, rows=(tuple(row),) + rule.rows[1:])
            where = f".{key}[0].{name}[0][{column}]"
        spec = with_rules(parse_scenario(scenario_dict()), ComparisonRules(**{key: (rule,)}))
        errors = [v for v in validate(spec) if v.severity == "error"]
        assert len(errors) == 1
        assert errors[0].field == "rules.final.comb_vs_mono_a" + where


# --- every declared limit of the other scenario sections ----------------------


SECTIONS = {"platform": PlatformRules, "target": TargetProfile, "prior": BetaPrior,
            "endpoint.transforms[0]": CorrelatedTransform}
SECTION_LIMIT_SITES = [(section, name, column, bad)
                       for section, cls in SECTIONS.items()
                       for name, column, meta in declared_limits(cls)
                       for bad in outside_limits(meta)]
# a cohorts_max below 1 also puts the default initial_cohorts of 1 above it
ALSO_BROKEN = {"platform.cohorts_max": ["platform.initial_cohorts"]}


def correlated_spec():
    d = scenario_dict()
    d["endpoint"] = {"transforms": [{"kind": "correlated", "sens": 0.8, "spec": 0.9}],
                     "probs": [1.0]}
    return parse_scenario(d)


def with_field(spec, section, name, value):
    if section.startswith("endpoint."):
        transform = dataclasses.replace(spec.endpoint.transforms[0], **{name: value})
        return dataclasses.replace(spec, endpoint=EndpointModel((transform,), (1.0,)))
    owner = dataclasses.replace(getattr(spec, section), **{name: value})
    return dataclasses.replace(spec, **{section: owner})


def error_fields(spec):
    return [v.field for v in validate(spec) if v.severity == "error"]


class TestSectionLimits:
    @pytest.mark.parametrize("section,name,column,bad", SECTION_LIMIT_SITES)
    def test_value_outside_limits_is_an_error_naming_its_field(self, section, name, column, bad):
        spec = correlated_spec()
        if column is None:
            value, where = bad, f"{section}.{name}"
        else:
            row = getattr(getattr(spec, section), name)
            value = row[:column] + (bad,) + row[column + 1:]
            where = f"{section}.{name}[{column}]"
        fields = error_fields(with_field(spec, section, name, value))
        assert fields == [where] + ALSO_BROKEN.get(where, [])

    @pytest.mark.parametrize("section,name,value,where", [
        ("endpoint.transforms[0]", "sens", -0.1, "endpoint.transforms[0].sens"),
        ("endpoint.transforms[0]", "sens", 1.01, "endpoint.transforms[0].sens"),
        ("endpoint.transforms[0]", "spec", -0.1, "endpoint.transforms[0].spec"),
        ("endpoint.transforms[0]", "spec", 1.01, "endpoint.transforms[0].spec"),
        ("platform", "allocation_ratio", (0, 1, 1, 1), "platform.allocation_ratio[0]"),
        ("platform", "allocation_ratio", (2, 1, 1), "platform.allocation_ratio"),
        ("platform", "initial_cohorts", 0, "platform.initial_cohorts"),
        ("platform", "initial_cohorts", 6, "platform.initial_cohorts"),  # cohorts_max + 1
        ("prior", "alpha", 0.005, "prior.alpha"),
    ])
    def test_rejected_inputs_give_one_error_naming_the_field(self, section, name, value, where):
        assert error_fields(with_field(correlated_spec(), section, name, value)) == [where]

    def test_plain_function_transform_is_rejected(self):
        endpoint = EndpointModel((lambda rr: (1.0 - rr, 0.0, 0.0, rr),), (1.0,))
        spec = dataclasses.replace(correlated_spec(), endpoint=endpoint)
        assert error_fields(spec) == ["endpoint.transforms[0]"]
        with pytest.raises(ConfigError, match=r"(?s)grid scenario .*endpoint\.transforms\[0\]"):
            expand_grid(spec, {"n_fin": [100]})

    def test_prior_below_the_kernel_domain_is_rejected_from_a_file(self):
        d = scenario_dict()
        d["prior"] = {"alpha": 0.005, "beta": 1.0}
        with pytest.raises(ConfigError, match=r"prior\.alpha"):
            parse_scenario(d)
        d["prior"] = {"alpha": 0.01, "beta": 0.01}
        assert parse_scenario(d).prior == BetaPrior(0.01, 0.01)

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_prior_above_the_kernel_domain_is_rejected(self, name, example_config_path,
                                                       tmp_path, capsys):
        # a 3e9 shape is past the 2e9 the kernel answers for: every Bayesian
        # analysis would raise QuadratureError
        with open(example_config_path) as fh:
            raw = yaml.safe_load(fh)
        raw["prior"][name] = 3e9
        with pytest.raises(ConfigError, match=rf"prior\.{name}"):
            parse_scenario(raw)
        path = tmp_path / "prior.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["ocs", "--config", str(path), "--iterations", "2",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"prior.{name}" in capsys.readouterr().err

    def test_prior_at_the_cap_runs_a_trial(self):
        d = scenario_dict()
        d["prior"] = {"alpha": MAX_PRIOR_SHAPE, "beta": MAX_PRIOR_SHAPE}
        trial = run_single_trial(parse_scenario(d), 1)
        assert all(c.analyses for c in trial.cohorts)
