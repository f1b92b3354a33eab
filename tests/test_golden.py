"""Golden outputs: SHA-256 digests of the OC JSON, the OC CSV and the first
trajectory dumps for fixed (scenario, seed, iterations).  The JSON is written
with sorted keys, so only the CSV pins the order of the OC columns.

Refactors must leave every digest unchanged.  A change that alters the
random stream or any output byte on purpose re-baselines them with::

    PYTHONPATH=src python tests/test_golden.py

and says so in the change log.
"""

import copy
import hashlib
import json
import pathlib
import sys

import pytest
import yaml

from platformsim.config import parse_scenario
from platformsim.reporting import ocs_csv_row, write_ocs_csv, write_ocs_json
from platformsim.runner import run_ocs

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


#: name -> scenario mapping
SCENARIOS = {
    "example": lambda: _example(),
    "dynamic": lambda: _example(sharing_type="dynamic"),
    # sr_pats halts recruitment mid-trial: halted final analyses
    "concurrent_sr_pats": lambda: _example(sharing_type="concurrent", sr_pats=180),
    "all_rules": lambda: yaml.safe_load((GOLDEN / "all_rules.yaml").read_text()),
}


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_digests(name: str, out: pathlib.Path) -> dict[str, str]:
    spec = parse_scenario(copy.deepcopy(SCENARIOS[name]()))
    dump_dir = out / "trajectories"
    ocs = run_ocs(spec, ITERATIONS, SEED, workers=1, dump_first=DUMPS, dump_dir=str(dump_dir))
    write_ocs_json(out / "ocs.json", spec.id, ocs)
    write_ocs_csv(out / "ocs.csv", [ocs_csv_row(spec.id, ocs)])
    files = [out / "ocs.csv", out / "ocs.json"] + sorted(dump_dir.iterdir())
    assert len(files) == 2 + DUMPS
    return {f.name: _sha256(f) for f in files}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name]
    assert golden_digests(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    digests = {}
    for scenario in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[scenario] = golden_digests(scenario, pathlib.Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
