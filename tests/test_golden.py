"""Golden outputs: SHA-256 digests of the OC JSON, the OC CSV and the first
trajectory dumps for fixed (scenario, seed, iterations).  The JSON is written
with sorted keys, so only the CSV pins the order of the OC columns.

Refactors must leave every digest unchanged.  A change that alters the
random stream or any output byte on purpose re-baselines them with::

    PYTHONPATH=src python tests/test_golden.py

which prints ``changed: <scenario>/<file> <old> -> <new>`` for every
digest that moved, and says so in the change log.  The digests file also
records the ``engine.STREAM_VERSION`` they were made under, so a stream
change that forgets to re-baseline fails with a message saying so.
"""

import copy
import hashlib
import json
import pathlib
import sys

import pytest
import yaml

from platformsim.config import parse_scenario
from platformsim.engine import STREAM_VERSION
from platformsim.reporting import ocs_csv_row, write_ocs_csv, write_ocs_json, write_trajectory
from platformsim.runner import run_ocs, run_single_trial

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DIGESTS = GOLDEN / "digests.json"
EXAMPLE = HERE.parent / "configs" / "example_scenario.yaml"

SEED = 20240817
ITERATIONS = 200
DUMPS = 3


def _example(**platform):
    d = yaml.safe_load(EXAMPLE.read_text())
    d["platform"].update(platform)
    return d


def _relative_staggered():
    d = _example(initial_cohorts=2, cohorts_max=6, cohort_offset=25,
                 allocation_ratio=[3, 2, 1, 1])
    d["efficacy"] = {
        "random_type": "odds_ratio",
        "comb": {"values": [1.0, 1.5, 2.5], "probs": [0.3, 0.4, 0.3]},
        "mono_a": {"values": [1.2, 2.0], "probs": [0.5, 0.5]},
        "mono_b": {"values": [1.0, 1.5, 2.0], "probs": [0.3, 0.4, 0.3]},
        "soc": {"values": [0.10, 0.15, 0.20], "probs": [0.25, 0.5, 0.25]},
    }
    d["endpoint"] = {"transforms": [{"kind": "identity"},
                                    {"kind": "correlated", "sens": 0.8, "spec": 0.9}],
                     "probs": [0.5, 0.5]}
    return d


#: name -> scenario mapping
SCENARIOS = {
    "example": lambda: _example(),
    "dynamic": lambda: _example(sharing_type="dynamic"),
    # sr_pats halts recruitment mid-trial: halted final analyses
    "concurrent_sr_pats": lambda: _example(sharing_type="concurrent", sr_pats=180),
    "all_rules": lambda: yaml.safe_load((GOLDEN / "all_rules.yaml").read_text()),
    # a monotherapy found superior to SoC drops SoC from the cohorts that open later
    "stop_post_back": lambda: _example(trial_struc="stop_post_back"),
    "stop_post_mono": lambda: _example(trial_struc="stop_post_mono"),
    # safety stops cut last blocks, and sr_pats halts cohorts that have no patients yet
    "safety_halt": lambda: _example(safety_prob=0.01, cohort_random=0.5, cohorts_max=10,
                                    sr_pats=60),
    # several cohorts enrol from the first round on, truths are odds-ratio effects on
    # top of SoC, and each opening draws one of two endpoint transforms
    "relative_staggered": _relative_staggered,
}


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_digests(name: str, out: pathlib.Path) -> dict[str, str]:
    spec = parse_scenario(copy.deepcopy(SCENARIOS[name]()))
    ocs = run_ocs(spec, ITERATIONS, SEED, workers=1)
    dump_dir = out / "trajectories"
    dump_dir.mkdir()
    for k in range(DUMPS):  # as ``ocs --dump-trajectories`` writes them
        write_trajectory(dump_dir / f"trajectory_{k:06d}.json", run_single_trial(spec, SEED, 0, k))
    write_ocs_json(out / "ocs.json", spec.id, ocs)
    write_ocs_csv(out / "ocs.csv", [ocs_csv_row(spec.id, ocs)])
    files = [out / "ocs.csv", out / "ocs.json"] + sorted(dump_dir.iterdir())
    assert len(files) == 2 + DUMPS
    return {f.name: _sha256(f) for f in files}


def test_digests_pin_the_stream_version():
    recorded = json.loads(DIGESTS.read_text()).get("stream_version")
    assert recorded == STREAM_VERSION, (
        f"tests/golden/digests.json was made under random stream {recorded}, the engine draws "
        f"stream {STREAM_VERSION}; re-baseline with `PYTHONPATH=src python tests/test_golden.py` "
        "and list the moved digests in the change log")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name]
    assert golden_digests(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {"stream_version": STREAM_VERSION}
    for scenario in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[scenario] = golden_digests(scenario, pathlib.Path(tmp))
        for fname, digest in digests[scenario].items():
            before = old.get(scenario, {}).get(fname)
            if before != digest:
                print(f"changed: {scenario}/{fname} {before} -> {digest}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
