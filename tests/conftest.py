import copy
import dataclasses
import math
import pathlib
import typing

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from platformsim.config import COMPARISON_KEYS, ComparisonRules, parse_scenario
from platformsim.ocs import TrialAccumulator

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# the same examples on every run and in every checkout: no random seed, and no
# failures replayed from a local example database (per-test settings keep their counts)
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def bayes_stage_rules(sup_margins=(0.10, 0.10, 0.05, 0.05), sup_conf=0.80,
                      prom=1.00, fut_conf=0.60, with_fut=True):
    """The four-comparison Bayesian rule block used across tests: one
    superiority row per comparison plus (optionally) a margin-0 futility row."""
    stage = {}
    for key, margin in zip(COMPARISON_KEYS, sup_margins):
        d = {"bayes_sup": [{"rows": [[margin, sup_conf, prom]]}]}
        if with_fut:
            d["bayes_fut"] = [{"rows": [[0.00, fut_conf]]}]
        stage[key] = d
    return stage


def scenario_dict(*, rates=(0.35, 0.2, 0.2, 0.1), scenario_id="test",
                  rules=None, **platform_overrides):
    """A compact single-point-rates scenario; platform fields overridable."""
    platform = {
        "cohorts_max": 5, "cohort_random": 0.02, "cohort_offset": 0,
        "initial_cohorts": 1, "safety_prob": 0.0, "sr_drugs_pos": "inf",
        "sr_pats": "inf", "sr_first_pos": False, "trial_struc": "all_plac",
        "sharing_type": "cohort", "n_int": 50, "n_fin": 100,
        "allocation_ratio": [2, 1, 1, 1], "run_out_active_cohorts": True,
    }
    platform.update(platform_overrides)
    if rules is None:
        stage = bayes_stage_rules()
        rules = {"interim": copy.deepcopy(stage), "final": copy.deepcopy(stage)}
    comb, mono_a, mono_b, soc = rates
    return {
        "id": scenario_id,
        "efficacy": {
            "random": True, "random_type": "absolute",
            "comb": {"values": [comb], "probs": [1.0]},
            "mono_a": {"values": [mono_a], "probs": [1.0]},
            "mono_b": {"values": [mono_b], "probs": [1.0]},
            "soc": {"values": [soc], "probs": [1.0]},
        },
        "endpoint": {"transforms": [{"kind": "identity"}], "probs": [1.0]},
        "target": {"margin_comb": 0.10, "margin_mono": 0.05, "scale": 1, "strict": True},
        "prior": {"alpha": 1.0, "beta": 1.0},
        "platform": platform,
        "rules": rules,
    }


def make_scenario(**kwargs):
    return parse_scenario(scenario_dict(**kwargs))


def aggregate(trials, cohorts_max):
    """The OCs of ``trials``, the i-th as iteration i."""
    acc = TrialAccumulator()
    for i, trial in enumerate(trials):
        acc.add(i, trial, cohorts_max)
    return acc.finalize()


@pytest.fixture(scope="session")
def example_spec():
    return parse_scenario((CONFIGS / "example_scenario.yaml").read_text())


@pytest.fixture(scope="session")
def example_config_path():
    return str(CONFIGS / "example_scenario.yaml")


@pytest.fixture(scope="session")
def grid_base_path():
    return str(CONFIGS / "grid_base.yaml")


@pytest.fixture(scope="session")
def grid_axes_path():
    return str(CONFIGS / "grid_axes.yaml")


# --- every rule kind, driven by the declared field limits ---------------------

RULE_HINTS = typing.get_type_hints(ComparisonRules)
RULE_KINDS = {f.name: typing.get_args(RULE_HINTS[f.name])[0]
              for f in dataclasses.fields(ComparisonRules)}


def in_limits(tp, meta):
    """Strategy for a value of type ``tp`` inside the limits ``meta``."""
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            return st.lists(in_limits(args[0], meta), min_size=1, max_size=3).map(tuple)
        columns = meta.get("columns", (meta,) * len(args))
        return st.tuples(*(in_limits(a, m) for a, m in zip(args, columns)))
    if "choices" in meta:
        return st.sampled_from(meta["choices"])
    if tp is bool:
        return st.booleans()
    is_open = meta.get("open", False)
    values = st.floats(meta.get("lo"), meta.get("hi"), exclude_min=is_open and "lo" in meta,
                       exclude_max=is_open and "hi" in meta, allow_nan=False,
                       allow_infinity=False)
    return values | st.just(math.inf) if meta.get("inf") else values


def rules_of(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{f.name: in_limits(hints[f.name], f.metadata)
                             for f in dataclasses.fields(cls)})


def any_comparison_rules(max_per_kind=2):
    """Strategy for a ComparisonRules with up to ``max_per_kind`` in-limits
    rules of every kind (possibly none at all)."""
    return st.fixed_dictionaries({key: st.lists(rules_of(cls), max_size=max_per_kind).map(tuple)
                                  for key, cls in RULE_KINDS.items()}
                                 ).map(lambda kinds: ComparisonRules(**kinds))
