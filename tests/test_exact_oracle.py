"""Exact operating characteristics of single-cohort designs.

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
rules at both stages, so all four of their analyses answer from one entry of
the plan's memo.

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
from platformsim.runner import run_ocs

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
