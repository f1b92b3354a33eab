"""Distribution-level golden: the gated operating characteristics of five
small scenarios against a stored long-run reference.

Unlike the SHA-256 digests in ``test_golden.py``, this check does not depend
on the random stream: it passes whenever the engine simulates the same law,
so it survives a declared stream change.  Each scenario reaches one of the
engine's event paths (safety stops, a cohort offset with concurrent sharing,
``sr_pats``, ``stop_post_mono``, ``sr_first_pos`` with halted cohorts).

The reference holds, per scenario, each gated OC of ``REFERENCE_TRIALS``
trials and its per-trial SD, computed by the benchmark gate's own functions
(``bench/gate.py``); a run passes within 5 combined Monte Carlo SEs plus 3
steps of 1/n for discrete OCs.  Rebuild it only when the simulated law is
meant to change (say so in the change log)::

    PYTHONPATH=src python tests/test_oc_reference.py
"""

import json
import multiprocessing
import pathlib
import sys

import pytest

from platformsim.config import parse_scenario
from platformsim.ocs import TrialAccumulator
from platformsim.engine import simulate_trial
from platformsim.runner import derive_rng, run_ocs

from conftest import ROOT, bayes_stage_rules, scenario_dict

sys.path.insert(0, str(ROOT / "bench"))
import gate  # noqa: E402

REFERENCE = pathlib.Path(__file__).resolve().parent / "golden" / "oc_reference.json"
REFERENCE_SEED = 20240901
REFERENCE_TRIALS = 20_000
SEED = 7
TRIALS = 1000


def _mixed(**platform):
    """Half of the cohorts truly superior (comb 0.5), half futile (0.2),
    under lenient superiority rules so that both kinds of error occur."""
    rules = {"interim": bayes_stage_rules(sup_conf=0.6),
             "final": bayes_stage_rules(sup_conf=0.6)}
    d = scenario_dict(rules=rules, **platform)
    d["efficacy"]["comb"] = {"values": [0.2, 0.5], "probs": [0.5, 0.5]}
    return d


def _stop_post_mono():
    rules = {"interim": bayes_stage_rules(sup_conf=0.7),
             "final": bayes_stage_rules(sup_conf=0.7)}
    return scenario_dict(rates=(0.6, 0.45, 0.45, 0.1), rules=rules,
                         trial_struc="stop_post_mono", cohort_random=0.05,
                         safety_prob=0.002, n_int=30, n_fin=60)


def _first_pos_halt():
    d = scenario_dict(rates=(0.7, 0.3, 0.3, 0.1), trial_struc="no_plac",
                      cohort_random=0.1, cohorts_max=6, sr_first_pos=True,
                      sr_drugs_pos=1, run_out_active_cohorts=False)
    d["endpoint"] = {"transforms": [{"kind": "correlated", "sens": 0.8, "spec": 0.9}],
                     "probs": [1.0]}
    return d


#: name -> scenario mapping
SCENARIOS = {
    "safety": lambda: _mixed(safety_prob=0.004, cohort_random=0.03, cohorts_max=4),
    "offset_concurrent": lambda: _mixed(sharing_type="concurrent", cohort_random=0.1,
                                        cohort_offset=40, cohorts_max=4),
    "sr_pats_all": lambda: _mixed(sharing_type="all", cohort_random=0.05, sr_pats=200,
                                  allocation_ratio=[2, 2, 1, 1]),
    "stop_post_mono": _stop_post_mono,
    "first_pos_halt": _first_pos_halt,
}


def _reference_entry(name: str) -> tuple[str, dict]:
    spec = parse_scenario(SCENARIOS[name]())
    acc = TrialAccumulator()
    for k in range(REFERENCE_TRIALS):
        acc.add(k, simulate_trial(spec, derive_rng(REFERENCE_SEED, 0, k)),
                spec.platform.cohorts_max)
    records = [acc.records[k] for k in range(REFERENCE_TRIALS)]
    return name, gate.reference_entry(acc.finalize(), records)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_reference_distribution(name):
    reference = json.loads(REFERENCE.read_text())
    spec = parse_scenario(SCENARIOS[name]())
    ocs = run_ocs(spec, TRIALS, SEED, workers=1)
    row = {**ocs.scalar_row(), "undefined": list(ocs.undefined)}
    failures = gate.check({name: row}, {"n": reference["n"],
                                        "scenarios": {name: reference["scenarios"][name]}})
    assert not failures, failures


if __name__ == "__main__":
    with multiprocessing.Pool(2) as pool:
        entries = dict(pool.map(_reference_entry, sorted(SCENARIOS), chunksize=1))
    doc = {"seed": REFERENCE_SEED, "n": REFERENCE_TRIALS, "scenarios": entries}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
