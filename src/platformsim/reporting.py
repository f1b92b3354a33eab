"""Serialization of trial trajectories and operating characteristics.

Trajectory dumps are JSON files with a ``Trial_Overview`` section (platform
level summary) and a ``Stage_Data`` section (full per-cohort records
including per-patient outcomes and per-analysis rule traces), built field by
field from the ``engine.Trial`` and its ``engine.CohortState`` records.  A
cohort's per-arm records (``arm_record``) take the arm's counts from
``engine.arm_counts`` and its true rate by ``ARM_ORDER`` position, and its
patients' interim and final outcomes from the patient log, of which dumps
are the only reader; this module decodes no patient code.  A trial keeps
only each analysis's data and verdict; its ``decision``, rule traces
included, is computed when the dump is written (``decisions.explain`` under
the trial's own analysis plan, ``Trial.plan``), so only dumps hold traces
and a dump is a function of its ``Trial`` alone.  An analysis lists only the
comparisons it analysed: its ``data`` records and its
``decision.comparisons`` outcomes are one per such comparison, in the same
order: ``decision.comparisons[i]`` belongs to ``data[i]``, as outcomes and
traces carry no comparison.  An analysis and each of its ``data`` records
are NamedTuples, written as objects keyed by their field names
(``_asdict``), never as lists.  Dumps, OC files and manifests are written by
one JSON writer (``write_json``) with sorted keys and fixed float
formatting, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import time
from typing import Iterable, Mapping, Sequence

from .config import ScenarioSpec, scenario_to_dict
from .decisions import ARM_ORDER, explain
from .engine import ARM_INDEX, STREAM_VERSION, CohortState, Patients, Trial, arm_counts
from .ocs import OperatingCharacteristics


def arm_record(cohort: CohortState, patients: Patients, arm: str) -> dict:
    """The dump of one arm of ``cohort``: its counts and true rate, and the
    enrolment indices and interim ('bio') / final ('hist') outcomes of its
    patients in the cohort's patient log ``patients``."""
    i = ARM_INDEX[arm]
    n, bio, hist = arm_counts(cohort.tally)[i]
    on_arm = patients.arm == i
    return {"n": n, "bio_responders": bio, "hist_responders": hist,
            "pairs": cohort.pair_counts(arm), "true_rate": cohort.truth[i],
            "enroll_idx": patients.idx[on_arm].tolist(),
            "bio": patients.interim[on_arm].tolist(), "hist": patients.final[on_arm].tolist()}


def trial_result_to_dump(trial: Trial) -> dict:
    """The dump of ``trial``; a recorded verdict its plan does not give raises."""
    cohorts = []
    for c in trial.cohorts:
        patients = c.patients
        analyses = []
        for analysis in c.analyses:
            decision = explain(trial.plan, analysis.data, analysis.stage)
            if decision.verdict != analysis.verdict:
                raise ValueError(f"cohort {c.id}: the {analysis.stage} verdict "
                                 f"{analysis.verdict} is not the rules' {decision.verdict}")
            rec = analysis._asdict()
            del rec["verdict"]
            rec["data"] = [t._asdict() for t in analysis.data]
            rec["decision"] = dataclasses.asdict(decision)
            analyses.append(rec)
        cohorts.append({
            "id": c.id, "open_index": c.open_index, "close_index": c.close_index,
            "arms": c.arms, "truth": dict(zip(ARM_ORDER, c.truth)),
            "truth_clamped": c.truth.clamped, "truth_class": c.truth_class,
            "status": c.status, "blocks": c.blocks,
            "per_arm": {arm: arm_record(c, patients, arm) for arm in c.arms},
            "analyses": analyses, "confusion": c.confusion,
        })
    overview = {
        "scenario_id": trial.spec.id,
        "Total_N": trial.total_n,
        "successes": trial.successes,
        "n_cohorts": len(cohorts),
        "first_success": trial.first_success,
        "entry_closed_index": trial.entry_closed_index,
        "recruitment_halt_index": trial.recruitment_halt_index,
        "safety_stops": trial.safety_stops,
        "soc_slot_patients": trial.soc_slot_patients,
        "cohort_statuses": [c["status"] for c in cohorts],
    }
    for total, field in (("patients_per_arm", "n"), ("bio_responders_per_arm", "bio_responders"),
                         ("hist_responders_per_arm", "hist_responders")):
        sums = overview[total] = {}
        for c in cohorts:
            for arm, rec in c["per_arm"].items():
                sums[arm] = sums.get(arm, 0) + rec[field]
    return {"Trial_Overview": overview, "Stage_Data": {"cohorts": cohorts}}


def write_json(path, doc: Mapping) -> None:
    """Write ``doc`` as JSON with sorted keys, one-space indent and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_trajectory(path, trial: Trial) -> None:
    write_json(path, trial_result_to_dump(trial))


def read_trajectory(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        dump = json.load(fh)
    if not isinstance(dump, dict) or not {"Trial_Overview", "Stage_Data"} <= dump.keys():
        raise ValueError("no Trial_Overview and Stage_Data sections")
    return dump


# ---------------------------------------------------------------------------
# plot data: rates per cohort/arm and interim-vs-final outcome pair counts


RATES_COLUMNS = ("cohort", "arm", "n", "bio_responders", "hist_responders",
                 "emp_bio_rate", "emp_hist_rate", "true_hist_rate")
PAIRS_COLUMNS = ("cohort", "arm", "n00", "n01", "n10", "n11")


def plot_data_tables(dump: Mapping) -> tuple[list[dict], list[dict]]:
    """Tables behind trajectory plots: empirical interim/final response rates
    with the true final rate per cohort-arm, and the joint outcome-pair
    counts (interim vs final endpoint).  A ``Stage_Data`` section of another
    shape raises ``ValueError``."""
    rates: list[dict] = []
    pairs: list[dict] = []
    try:
        for c in dump["Stage_Data"]["cohorts"]:
            for arm in sorted(c["per_arm"]):
                rec = c["per_arm"][arm]
                n = rec["n"]
                rates.append({
                    "cohort": c["id"], "arm": arm, "n": n,
                    "bio_responders": rec["bio_responders"],
                    "hist_responders": rec["hist_responders"],
                    "emp_bio_rate": rec["bio_responders"] / n if n else "",
                    "emp_hist_rate": rec["hist_responders"] / n if n else "",
                    "true_hist_rate": rec["true_rate"],
                })
                n00, n01, n10, n11 = rec["pairs"]
                pairs.append({"cohort": c["id"], "arm": arm,
                              "n00": n00, "n01": n01, "n10": n10, "n11": n11})
    except (LookupError, TypeError) as exc:  # a missing field, or a field of the wrong type
        raise ValueError(f"malformed Stage_Data ({type(exc).__name__}: {exc})") from exc
    return rates, pairs


def write_csv(path, columns: Sequence[str], rows: Iterable[Mapping]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# operating characteristics files


def ocs_csv_row(scenario_id: str, ocs: OperatingCharacteristics,
                axis_values: Mapping[str, object] | None = None) -> dict:
    """One OC CSV row, whose key order (axis values first) is the file's columns."""
    row = dict(axis_values or {})
    row["scenario_id"] = scenario_id
    row.update(ocs.scalar_row())
    return row


def write_ocs_csv(path, rows: Sequence[Mapping]) -> None:
    """``rows`` from ``ocs_csv_row``, under a header of the first row's keys."""
    write_csv(path, list(rows[0]), rows)


def write_ocs_json(path, scenario_id: str, ocs: OperatingCharacteristics) -> None:
    write_json(path, {"scenario_id": scenario_id, **ocs.to_json_dict()})


# ---------------------------------------------------------------------------
# run manifest


def spec_hash(spec: ScenarioSpec) -> str:
    canonical = json.dumps(scenario_to_dict(spec), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path, payload: Mapping) -> None:
    import numpy
    import scipy

    doc = {
        "created_unix": int(time.time()),
        "versions": {"platformsim": _package_version(), "stream_version": STREAM_VERSION,
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    doc.update(payload)
    write_json(path, doc)


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("platformsim")
    except Exception:
        return "unknown"
