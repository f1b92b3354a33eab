"""Exact operating characteristics of single-cohort designs, of two cohorts
that open together and share their backbone arm, of two that open 40
patients apart, where ``concurrent`` sharing differs from ``all``, and of two
that open together where one can stop at its interim (below).

With one cohort (``cohorts_max: 1``, ``cohort_random: 0``, ``safety_prob:
0``), fixed rates and the identity transform, a platform trial is a
two-stage multi-arm design with known arm sizes: at the 50/100 sizes of
``example_scenario.yaml`` and allocation 2:1:1:1, the interim sees 20 comb
and 10 patients on each other arm, and the final twice that.  Its OCs are
then sums over the binomial pmfs of the interim counts and of the
increments to the final counts.  The enumerator below computes them with
its own rule arithmetic (Cook's finite sum for the margin-0 Bayesian rules,
the pooled z test for ``freq_sup``), so it shares no code with
``decisions``.  Where both comb comparisons are analysed they carry the same
rules at both stages, so all four of their analyses answer from the same
entries of the plan's memo.

The simulated OCs must lie within 4 Monte Carlo SEs of the exact values.
The check holds for any random stream, so it survives a declared stream
change; if it fails, the engine's law is wrong.
"""

import copy
import math

import numpy as np
import pytest
from scipy.special import betaln
from scipy.stats import binom

from platformsim.config import parse_scenario
from platformsim.decisions import FINAL, INTERIM
from platformsim.engine import simulate_trial
from platformsim.reporting import write_ocs_json
from platformsim.runner import derive_rng, run_ocs

from conftest import scenario_dict

TRIALS = 10_000
SEED = 20221013
#: patients per arm (comb, mono_a, mono_b, soc) in one block of allocation 2:1:1:1
BLOCK = (2, 1, 1, 1)

BAYES = {"bayes_sup": [{"rows": [[0.0, 0.80, 1.00]]}], "bayes_fut": [{"rows": [[0.0, 0.60]]}]}
FREQ = {"freq_sup": [{"p_sup": 0.05}]}


def cook(a, b, c, d):
    """P(X > Y) for X ~ Beta(a, b) with integer a and Y ~ Beta(c, d): the
    finite sum of Cook (2005) over i < a."""
    i = np.arange(a)
    return float(np.exp(betaln(c + i, b + d) - np.log(b + i) - betaln(1 + i, b)
                        - betaln(c, d)).sum())


def z_test_p(xt, nt, xc, nc):
    """One-sided p-value of the pooled two-proportion z test (0.5 when the
    pooled rate is 0 or 1)."""
    pooled = (xt + xc) / (nt + nc)
    if pooled in (0.0, 1.0):
        return 0.5
    z = (xt / nt - xc / nc) / math.sqrt(pooled * (1 - pooled) * (1 / nt + 1 / nc))
    return 0.5 * math.erfc(z / math.sqrt(2))


def comparison_verdicts(rules, nt, nc):
    """(superior, futile) over every (comb responders, mono responders) at
    arm sizes (nt, nc) under a Beta(1, 1) prior, with the smallest distance
    of a statistic to its threshold."""
    sup = np.zeros((nt + 1, nc + 1), dtype=bool)
    fut = np.zeros_like(sup)
    gap = math.inf
    for xt in range(nt + 1):
        for xc in range(nc + 1):
            if rules is BAYES:
                p = cook(1 + xt, 1 + nt - xt, 1 + xc, 1 + nc - xc)
                sup[xt, xc], fut[xt, xc] = p > 0.80, p < 0.60
                gap = min(gap, abs(p - 0.80), abs(p - 0.60))
            else:
                p = z_test_p(xt, nt, xc, nc)
                sup[xt, xc] = p < 0.05
                gap = min(gap, abs(p - 0.05))
    return sup, fut, gap


def stage_verdicts(rules, n_comb, n_mono, both):
    """GO and STOP over every (comb, mono_a, mono_b) responder count: GO
    needs every analysed comb comparison superior (both, or comb vs mono_a
    alone), STOP any one futile (and wins)."""
    sup, fut, gap = comparison_verdicts(rules, n_comb, n_mono)
    sup_b, fut_b = (sup, fut) if both else (np.ones_like(sup), np.zeros_like(fut))
    all_sup = sup[:, :, None] & sup_b[:, None, :]
    any_fut = fut[:, :, None] | fut_b[:, None, :]
    return all_sup & ~any_fut, any_fut, gap


def exact_ocs(rules, rates, n_int, n_fin, both=True):
    """P(GO at interim), P(STOP at interim), P(GO at final) and E[N] per arm."""
    blocks_int, blocks_fin = n_int // sum(BLOCK), n_fin // sum(BLOCK)
    pc, pa, pb, _ = rates
    n_c, n_m = BLOCK[0] * blocks_fin, BLOCK[1] * blocks_fin
    go_fin, _, gap = stage_verdicts(rules, n_c, n_m, both)
    if n_int == n_fin:
        pmf = np.einsum("i,j,k->ijk", binom.pmf(np.arange(n_c + 1), n_c, pc),
                        binom.pmf(np.arange(n_m + 1), n_m, pa),
                        binom.pmf(np.arange(n_m + 1), n_m, pb))
        return {"int_go": 0.0, "int_stop": 0.0, "fin_go": float((pmf * go_fin).sum()),
                "n": [b * blocks_fin for b in BLOCK], "gap": gap}
    i_c, i_m = BLOCK[0] * blocks_int, BLOCK[1] * blocks_int
    go_int, stop_int, gap_int = stage_verdicts(rules, i_c, i_m, both)
    pmf_int = np.einsum("i,j,k->ijk", binom.pmf(np.arange(i_c + 1), i_c, pc),
                        binom.pmf(np.arange(i_m + 1), i_m, pa),
                        binom.pmf(np.arange(i_m + 1), i_m, pb))
    d_c, d_m = n_c - i_c, n_m - i_m
    pmf_inc = np.einsum("i,j,k->ijk", binom.pmf(np.arange(d_c + 1), d_c, pc),
                        binom.pmf(np.arange(d_m + 1), d_m, pa),
                        binom.pmf(np.arange(d_m + 1), d_m, pb))
    # P(GO at final | interim counts s) = sum over increments t of pmf_inc(t) GO(s + t)
    windows = np.lib.stride_tricks.sliding_window_view(go_fin.astype(float), pmf_inc.shape)
    go_after = np.einsum("abcijk,ijk->abc", windows, pmf_inc)
    cont = ~(go_int | stop_int)
    p_cont = float(pmf_int[cont].sum())
    return {"int_go": float(pmf_int[go_int].sum()), "int_stop": float(pmf_int[stop_int].sum()),
            "fin_go": float((pmf_int * go_after)[cont].sum()),
            "n": [b * (blocks_int + (blocks_fin - blocks_int) * p_cont) for b in BLOCK],
            "gap": min(gap, gap_int)}


def single_cohort_spec(rules, rates, n_int=50, n_fin=100, both=True):
    keys = ("comb_vs_mono_a", "comb_vs_mono_b") if both else ("comb_vs_mono_a",)
    stage = {key: copy.deepcopy(rules) for key in keys}
    d = scenario_dict(rates=rates, rules={"interim": stage, "final": stage},
                      cohorts_max=1, cohort_random=0.0, safety_prob=0.0,
                      n_int=n_int, n_fin=n_fin)
    return parse_scenario(d)


def assert_within_4_mcse(simulated, exact, sd, name):
    se = sd / math.sqrt(TRIALS)
    if se == 0.0:
        assert simulated == pytest.approx(exact, abs=1e-12), name
    else:
        assert abs(simulated - exact) <= 4 * se, (name, simulated, exact, se)


SUPERIOR = (0.45, 0.20, 0.20, 0.10)
NULL = (0.20, 0.20, 0.20, 0.20)


@pytest.mark.parametrize("rules, rates, n_int, both, truly_superior", [
    (BAYES, SUPERIOR, 50, True, True),
    (BAYES, NULL, 50, True, False),
    (BAYES, SUPERIOR, 100, True, True),   # n_int == n_fin: only the final runs
    (FREQ, SUPERIOR, 50, True, True),
    # comb vs mono_a alone: mono_b, as good as comb, is enrolled but never analysed
    (BAYES, (0.35, 0.20, 0.35, 0.10), 50, False, False),
], ids=["superior", "null", "n_int_eq_n_fin", "freq_sup", "one_comparison"])
def test_simulated_ocs_match_exact_enumeration(rules, rates, n_int, both, truly_superior):
    exact = exact_ocs(rules, rates, n_int, 100, both)
    # no statistic sits within rounding of its threshold, so the engine's
    # kernels and the enumerator's arithmetic must take the same side
    assert exact["gap"] > 1e-9
    ocs = run_ocs(single_cohort_spec(rules, rates, n_int, both=both), TRIALS, SEED)

    def binomial(simulated, p, name):
        assert_within_4_mcse(simulated, p, math.sqrt(p * (1 - p)), name)

    p_go = exact["int_go"] + exact["fin_go"]
    binomial(ocs.Disj_Power_BA if truly_superior else ocs.FWER_BA, p_go, "P(GO)")
    binomial(ocs.FWER_BA if truly_superior else ocs.Disj_Power_BA, 0.0, "other error")
    binomial(ocs.Coh_Int_GO_Perc, exact["int_go"], "P(GO at interim)")
    binomial(ocs.Coh_Int_STOP_Perc, exact["int_stop"], "P(STOP at interim)")
    p_cont = 1.0 - exact["int_go"] - exact["int_stop"]
    for suffix, block, n in zip(("Comb", "Mono", "Back", "Plac"), BLOCK, exact["n"]):
        # an arm holds its interim size plus, if the cohort continues, the rest
        extra = block * (100 - n_int) // sum(BLOCK)
        assert_within_4_mcse(getattr(ocs, f"Avg_Pat_{suffix}"), n,
                             extra * math.sqrt(p_cont * (1 - p_cont)), f"E[N] {suffix}")


# --- two concurrent cohorts sharing the backbone arm ---------------------------
#
# Two cohorts open at patient 0 (``initial_cohorts: 2``, ``cohorts_max: 2``)
# and enrol in lock step, one block each per round, so both reach 100
# patients in the same round and are analysed once, at the final stage, in
# cohort order.  With margin-0 Bayesian rules on comb vs mono_b alone, a
# cohort's verdict is a function of its own comb count (0..40), its own
# mono_b count (0..20) and the other cohort's mono_b count (0..20): the
# comparator is its own 20 mono_b patients plus ``w`` times the other
# cohort's 20, with w = 1 under ``all`` and ``concurrent`` and, under
# ``dynamic``, the two-sided p-value of the pooled z test of own against
# external.  The comb posterior has an integer first shape, so Cook's sum is
# exact even against a fractional comparator.

TWO_COHORT_RATES = (0.40, 0.20, 0.25, 0.10)   # truly superior
N_COMB, N_BACK = 40, 20                        # per cohort at 100 patients, 2:1:1:1


def dynamic_weight(own, n_own, ext, n_ext):
    """Borrowing weight of the ``dynamic`` mode: 2 min(p, 1 - p), capped at 1."""
    p = z_test_p(own, n_own, ext, n_ext)
    return min(1.0, 2.0 * min(p, 1.0 - p))


def cook_over_comb(c, d, n_comb=N_COMB):
    """P(X > Y) for X ~ Beta(1 + x, 1 + n_comb - x) at every x in 0..n_comb
    (rows) and Y ~ Beta(c, d) (columns): Cook's finite sum over i < 1 + x."""
    x = np.arange(n_comb + 1)[:, None, None]
    a, b = 1 + x, 1 + n_comb - x
    i = np.arange(n_comb + 1)[None, None, :]
    c, d = c[None, :, None], d[None, :, None]
    terms = np.exp(betaln(c + i, b + d) - np.log(b + i) - betaln(1 + i, b) - betaln(c, d))
    return np.where(i < a, terms, 0.0).sum(axis=2)


def go_table(mode, rates, n_ext):
    """q[own, ext]: P(a cohort goes | its own N_BACK mono_b patients hold
    ``own`` responders and the n_ext external ones ``ext``), and the smallest
    distance of a statistic to its threshold."""
    own, ext = (g.ravel() for g in np.meshgrid(np.arange(N_BACK + 1.0),
                                               np.arange(n_ext + 1.0), indexing="ij"))
    w = np.array([dynamic_weight(o, N_BACK, e, n_ext) if mode == "dynamic" else 1.0
                  for o, e in zip(own, ext)])
    p = cook_over_comb(1 + own + w * ext, 1 + (N_BACK - own) + w * (n_ext - ext))
    gap = float(np.minimum(abs(p - 0.80), abs(p - 0.60)).min())
    q = binom.pmf(np.arange(N_COMB + 1), N_COMB, rates[0]) @ (p > 0.80)
    return q.reshape(N_BACK + 1, n_ext + 1), gap


def two_cohort_exact(mode, rates):
    """E[GO cohorts], its SD, P(any GO) and the smallest distance of a
    statistic to its threshold, summed over the joint 41² × 21² states."""
    q, gap = go_table(mode, rates, N_BACK)   # q[own, other]
    back = binom.pmf(np.arange(N_BACK + 1), N_BACK, rates[2])
    joint = np.outer(back, back)
    go = float((joint * q).sum())           # each cohort, by symmetry
    both = float((joint * q * q.T).sum())
    mean = 2 * go
    return {"go": mean, "sd": math.sqrt(mean + 2 * both - mean ** 2),
            "any": 2 * go - both, "gap": gap}


def two_cohort_spec(mode):
    stage = {"comb_vs_mono_b": copy.deepcopy(BAYES)}
    d = scenario_dict(rates=TWO_COHORT_RATES, rules={"interim": stage, "final": stage},
                      initial_cohorts=2, cohorts_max=2, cohort_random=0.0, safety_prob=0.0,
                      n_int=100, n_fin=100, sharing_type=mode)
    return parse_scenario(d)


@pytest.fixture(scope="module")
def two_cohort_runs():
    return {mode: run_ocs(two_cohort_spec(mode), TRIALS, SEED)
            for mode in ("all", "concurrent", "dynamic")}


def test_two_cohort_design_is_as_enumerated():
    w = []
    for k in range(20):
        trial = simulate_trial(two_cohort_spec("dynamic"), derive_rng(SEED, 0, k))
        assert trial.total_n == 200 and len(trial.cohorts) == 2
        for c in trial.cohorts:
            (analysis,) = c.analyses
            assert analysis.stage == FINAL and analysis.patient_counter == 200
            (data,) = analysis.data
            assert data.comparison == 2 and data.t_resp + data.t_nonresp == N_COMB
            assert data.external_total == N_BACK
            w.append(data.share_weight)
    assert 0.0 < min(w) < 1.0


@pytest.mark.parametrize("mode", ["all", "dynamic"])
def test_two_cohorts_sharing_match_exact_enumeration(two_cohort_runs, mode):
    exact = two_cohort_exact(mode, TWO_COHORT_RATES)
    assert exact["gap"] > 1e-9
    ocs = two_cohort_runs[mode]
    assert_within_4_mcse(ocs.Avg_TP, exact["go"], exact["sd"], "E[GO cohorts]")
    assert ocs.Avg_FP == 0.0
    p = exact["any"]
    assert_within_4_mcse(ocs.Disj_Power_BA, p, math.sqrt(p * (1 - p)), "P(any GO)")


def test_concurrent_equals_all_when_both_open_at_once(two_cohort_runs, tmp_path):
    paths = []
    for mode in ("all", "concurrent"):
        paths.append(tmp_path / f"{mode}.json")
        write_ocs_json(paths[-1], "two_cohorts", two_cohort_runs[mode])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --- staggered entry: where ``concurrent`` differs from ``all`` -----------------
#
# One cohort opens at patient 0 and the second at patient 40
# (``cohort_random: 1``, ``cohort_offset: 40``: the waiting time to an entry
# is always one patient).  Cohort 1 enrols 8 blocks alone, then both enrol in
# lock step until cohort 1 reaches 100 patients at patient 160; cohort 2
# then enrols alone up to its 100 at patient 200.  Each is analysed once, at
# the final stage.  Split the mono_b patients: cohort 1's 8 before cohort 2
# opens and 12 after, cohort 2's 12 while cohort 1 enrols and 8 after, with
# a1, a2, b1, b2 responders.  Cohort 1's external pool is cohort 2's first
# 12 (b1) under every mode.  Cohort 2's is cohort 1's 12 enrolled since it
# opened (a2) under ``concurrent``, and all 20 (a1 + a2) under ``all`` and
# ``dynamic``.  Given (a1, a2, b1, b2) the two cohorts' verdicts are
# independent, as their comb counts are.

STAGGER = 40
EARLY_1, LATE_1, EARLY_2, LATE_2 = 8, 12, 12, 8   # mono_b patients of each split


def staggered_exact(mode, rates):
    """E[GO cohorts], its SD, P(any GO) and the smallest distance of a
    statistic to its threshold, summed over the joint 9 × 13 × 13 × 9 states
    of (a1, a2, b1, b2)."""
    sizes = (EARLY_1, LATE_1, EARLY_2, LATE_2)
    a1, a2, b1, b2 = (g.ravel() for g in np.meshgrid(*(np.arange(n + 1) for n in sizes),
                                                     indexing="ij"))
    pmf = np.prod([binom.pmf(k, n, rates[2]) for k, n in zip((a1, a2, b1, b2), sizes)], axis=0)
    q1, gap1 = go_table(mode, rates, EARLY_2)
    g1 = q1[a1 + a2, b1]
    if mode == "concurrent":
        q2, gap2 = go_table(mode, rates, LATE_1)
        g2 = q2[b1 + b2, a2]
    else:
        q2, gap2 = go_table(mode, rates, EARLY_1 + LATE_1)
        g2 = q2[b1 + b2, a1 + a2]
    mean, both = float(pmf @ (g1 + g2)), float(pmf @ (g1 * g2))
    return {"go": mean, "sd": math.sqrt(mean + 2 * both - mean ** 2), "any": mean - both,
            "gap": min(gap1, gap2)}


def staggered_spec(mode):
    stage = {"comb_vs_mono_b": copy.deepcopy(BAYES)}
    d = scenario_dict(rates=TWO_COHORT_RATES, rules={"interim": stage, "final": stage},
                      initial_cohorts=1, cohorts_max=2, cohort_random=1.0,
                      cohort_offset=STAGGER, safety_prob=0.0, n_int=100, n_fin=100,
                      sharing_type=mode)
    return parse_scenario(d)


@pytest.fixture(scope="module")
def staggered_runs():
    return {mode: run_ocs(staggered_spec(mode), TRIALS, SEED)
            for mode in ("all", "concurrent", "dynamic")}


@pytest.mark.parametrize("mode", ["all", "concurrent", "dynamic"])
def test_staggered_design_is_as_enumerated(mode):
    external = {"all": EARLY_1 + LATE_1, "concurrent": LATE_1, "dynamic": EARLY_1 + LATE_1}
    for k in range(20):
        trial = simulate_trial(staggered_spec(mode), derive_rng(SEED, 0, k))
        first, second = trial.cohorts
        assert (first.open_index, second.open_index, trial.total_n) == (0, STAGGER, 200)
        for c, at, n_ext in ((first, 160, EARLY_2), (second, 200, external[mode])):
            (analysis,) = c.analyses
            assert analysis.stage == FINAL and analysis.patient_counter == at
            (data,) = analysis.data
            assert data.comparison == 2 and data.t_resp + data.t_nonresp == N_COMB
            assert data.external_total == n_ext
            own = sum(c.pair_counts("mono_b"))
            assert own == N_BACK
            assert (data.share_weight is not None and 0.0 <= data.share_weight <= 1.0
                    and data.c_resp + data.c_nonresp
                    == pytest.approx(own + data.share_weight * n_ext))


@pytest.mark.parametrize("mode", ["all", "concurrent", "dynamic"])
def test_staggered_entry_matches_exact_enumeration(staggered_runs, mode):
    exact = staggered_exact(mode, TWO_COHORT_RATES)
    assert exact["gap"] > 1e-9
    ocs = staggered_runs[mode]
    assert_within_4_mcse(ocs.Avg_TP, exact["go"], exact["sd"], "E[GO cohorts]")
    assert ocs.Avg_FP == 0.0
    p = exact["any"]
    assert_within_4_mcse(ocs.Disj_Power_BA, p, math.sqrt(p * (1 - p)), "P(any GO)")


def test_concurrent_differs_from_all_under_staggered_entry():
    # the enumeration itself tells the modes apart, so the check above has power
    go = {mode: staggered_exact(mode, TWO_COHORT_RATES)["go"] for mode in ("all", "concurrent")}
    assert abs(go["all"] - go["concurrent"]) > 0.01


# --- an interim stop under ``all``: the stopped cohort's interim patients -------
#
# Two cohorts open at patient 0 and enrol in lock step to their interims at 60
# patients each (24 comb and 12 mono_b patients) and, if they go on, to their
# finals at 100 (40 and 20).  The rules are on comb vs mono_b alone: GO above
# 0.95 and STOP below 0.60 at the interim, GO above 0.80 at the final.  Both
# interims see the same comparator, the two cohorts' 24 interim mono_b
# patients, with s = a1 + a2 responders.  A cohort that goes on pools all 20
# of the other's mono_b patients at its final if the other went on too, and
# only the other's 12 interim ones if it stopped.  Split each cohort's mono_b
# patients into its 12 interim ones (a1, a2 responders) and its 8 later ones
# (d1, d2).  Given these, the comb counts of the two cohorts are independent,
# and the other's comb count reaches a cohort's final pool only through
# whether the other went on.

INTERIM_N, INTERIM_GO = 60, 0.95
INT_COMB, INT_BACK = 24, 12                    # per cohort at its interim, 2:1:1:1


def interim_stop_exact(rates, stopped="interim"):
    """E[GO cohorts], its SD, P(any GO) and the smallest distance of a
    statistic to its threshold, summed over the joint 13² × 9² states of (a1,
    a2, d1, d2).  ``stopped`` names the mono_b patients of a stopped cohort
    that the other's final pool holds: its ``interim`` ones, or, to show what
    a wrong pool would give, ``none`` or ``all`` 20 it drew."""
    gaps = []

    def p_comb_better(n_comb, n_comp, thresholds):
        # P(comb > comparator) at every comb count (rows) and comparator count (columns)
        t = np.arange(n_comp + 1.0)
        p = cook_over_comb(1 + t, 1 + n_comp - t, n_comb)
        gaps.append(min(float(abs(p - bar).min()) for bar in thresholds))
        return p

    p = p_comb_better(INT_COMB, 2 * INT_BACK, (INTERIM_GO, 0.60))
    goes, goes_on = p > INTERIM_GO, (p >= 0.60) & (p <= INTERIM_GO)
    comb_int = binom.pmf(np.arange(INT_COMB + 1), INT_COMB, rates[0])
    comb_inc = binom.pmf(np.arange(N_COMB - INT_COMB + 1), N_COMB - INT_COMB, rates[0])
    go_now, on = comb_int @ goes, comb_int @ goes_on    # at each s

    def go_later(n_ext):
        """g[s, t]: P(a cohort goes on at s and goes at its final, where t of
        its own N_BACK and n_ext external mono_b patients respond)."""
        go = p_comb_better(N_COMB, N_BACK + n_ext, (0.80,)) > 0.80
        after = sum(q * go[k:k + INT_COMB + 1] for k, q in enumerate(comb_inc))
        return (comb_int[:, None] * goes_on).T @ after

    late = N_BACK - INT_BACK
    a1, a2, d1, d2 = (g.ravel() for g in np.meshgrid(
        *(np.arange(n + 1) for n in (INT_BACK, INT_BACK, late, late)), indexing="ij"))
    pmf = np.prod([binom.pmf(k, n, rates[2]) for k, n in
                   zip((a1, a2, d1, d2), (INT_BACK, INT_BACK, late, late))], axis=0)
    s = a1 + a2
    g_both = go_later(N_BACK)[s, s + d1 + d2]
    n_pooled, pooled = {"interim": (INT_BACK, (a2, a1)), "none": (0, (0, 0)),
                        "all": (N_BACK, (a2 + d2, a1 + d1))}[stopped]
    alone = go_later(n_pooled)
    g_alone = [alone[s, own + ext] for own, ext in zip((a1 + d1, a2 + d2), pooled)]
    go_sum = 2 * (go_now[s] + on[s] * g_both) + (1 - on[s]) * (g_alone[0] + g_alone[1])
    both = go_now[s] ** 2 + go_now[s] * (g_alone[0] + g_alone[1]) + g_both ** 2
    mean, both = float(pmf @ go_sum), float(pmf @ both)
    return {"go": mean, "sd": math.sqrt(mean + 2 * both - mean ** 2), "any": mean - both,
            "gap": min(gaps)}


def interim_stop_spec():
    interim = {"comb_vs_mono_b": {"bayes_sup": [{"rows": [[0.0, INTERIM_GO, 1.00]]}],
                                  "bayes_fut": copy.deepcopy(BAYES["bayes_fut"])}}
    final = {"comb_vs_mono_b": copy.deepcopy(BAYES)}
    d = scenario_dict(rates=TWO_COHORT_RATES, rules={"interim": interim, "final": final},
                      initial_cohorts=2, cohorts_max=2, cohort_random=0.0, safety_prob=0.0,
                      n_int=INTERIM_N, n_fin=100, sharing_type="all")
    return parse_scenario(d)


def test_interim_stop_design_is_as_enumerated():
    alone = 0
    for k in range(40):
        trial = simulate_trial(interim_stop_spec(), derive_rng(SEED, 0, k))
        assert len(trial.cohorts) == 2
        stopped = [len(c.analyses) == 1 for c in trial.cohorts]
        for c, other_stopped in zip(trial.cohorts, stopped[::-1]):
            interim, *final = c.analyses
            assert interim.stage == INTERIM and interim.patient_counter == 2 * INTERIM_N
            (data,) = interim.data
            assert data.t_resp + data.t_nonresp == INT_COMB
            assert data.external_total == data.c_resp + data.c_nonresp - INT_BACK == INT_BACK
            for analysis in final:
                alone += other_stopped
                assert analysis.stage == FINAL and analysis.patient_counter == (
                    INTERIM_N + 100 if other_stopped else 200)
                (data,) = analysis.data
                assert data.t_resp + data.t_nonresp == N_COMB
                assert data.external_total == (INT_BACK if other_stopped else N_BACK)
    assert alone >= 5


def test_interim_stop_matches_exact_enumeration():
    exact = interim_stop_exact(TWO_COHORT_RATES)
    assert exact["gap"] > 1e-9
    ocs = run_ocs(interim_stop_spec(), TRIALS, SEED)
    assert_within_4_mcse(ocs.Avg_TP, exact["go"], exact["sd"], "E[GO cohorts]")
    assert ocs.Avg_FP == 0.0
    p = exact["any"]
    assert_within_4_mcse(ocs.Disj_Power_BA, p, math.sqrt(p * (1 - p)), "P(any GO)")


@pytest.mark.parametrize("stopped", ["none", "all"])
def test_a_wrong_final_pool_is_more_than_4_mcse_off(stopped):
    # the check above has power against a pool without the stopped cohort, or
    # with the patients it drew but never enrolled
    exact, wrong = interim_stop_exact(TWO_COHORT_RATES), interim_stop_exact(
        TWO_COHORT_RATES, stopped)
    p = exact["any"]
    assert max(abs(wrong["go"] - exact["go"]) / exact["sd"],
               abs(wrong["any"] - p) / math.sqrt(p * (1 - p))) > 4 / math.sqrt(TRIALS)
