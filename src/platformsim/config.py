"""Scenario configuration: every knob of a simulated platform trial in one
validated, immutable tree.

A scenario is normally loaded from a YAML (or JSON) file whose sections
mirror the dataclasses below::

    id: example
    efficacy:
      random_type: absolute          # absolute | risk_difference | risk_ratio | odds_ratio
      comb:   {values: [0.35, 0.40, 0.45], probs: [0.4, 0.4, 0.2]}
      mono_a: {values: [0.15, 0.20, 0.25], probs: [0.2, 0.4, 0.4]}
      mono_b: {values: [0.15, 0.20, 0.25], probs: [0.3, 0.4, 0.3]}
      soc:    {values: [0.10, 0.12, 0.14], probs: [0.25, 0.5, 0.25]}
    endpoint:
      transforms: [{kind: identity}]     # or {kind: correlated, sens: .., spec: ..}
      probs: [1.0]
    target:  {margin_comb: 0.10, margin_mono: 0.05, scale: 1, strict: true}
    prior:   {alpha: 1.0, beta: 1.0}
    platform:
      cohorts_max: 5
      cohort_random: 0.02
      safety_prob: 0.0001
      sr_drugs_pos: 1                # number or "inf"
      n_int: 50
      n_fin: 100
      sharing_type: cohort           # cohort | concurrent | dynamic | all
      trial_struc: all_plac          # all_plac | no_plac | stop_post_back | stop_post_mono
      allocation_ratio: [2, 1, 1, 1] # comb : mono_a : mono_b : soc
    rules:
      interim:
        comb_vs_mono_a:
          bayes_sup: [{rows: [[0.10, 0.80, 1.00]]}]
          bayes_fut: [{rows: [[0.00, 0.60]]}]
        ...
      final:
        ...

Comparisons are keyed ``comb_vs_mono_a``, ``comb_vs_mono_b``,
``mono_a_vs_soc``, ``mono_b_vs_soc`` (in that fixed order); leaving one out
means the comparison is not performed.  Decision rules are checked
structurally only -- contradictory superiority/futility regions produce
warnings, never errors.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Mapping, Sequence

import yaml

from .decisions import (ARM_ORDER, COMPARISON_ARMS, BayesFutRule, BayesSAFutRule,
                        BayesSASupRule, BayesSupRule, CISupFutRule, EstSupFutRule, FreqFutRule,
                        FreqSupRule)
from .schema import ConfigError, Violation, dump, param, parse, parse_field, violations
from .stats import MAX_PRIOR_SHAPE, MIN_SHAPE

RANDOM_TYPES = ("absolute", "risk_difference", "risk_ratio", "odds_ratio")
TRIAL_STRUCTURES = ("all_plac", "no_plac", "stop_post_back", "stop_post_mono")
SHARING_TYPES = ("cohort", "concurrent", "dynamic", "all")
SCALE_NAMES = {1: "risk_difference", 2: "risk_ratio", 3: "odds_ratio"}
COMPARISON_KEYS = tuple(f"{num}_vs_{den}" for num, den in COMPARISON_ARMS.values())
STAGES = ("interim", "final")

_PROB_TOL = 1e-9


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class DiscreteDist:
    """Finite support distribution (rates, effects or transforms); ``probs`` sum to 1."""

    values: tuple[float, ...]
    probs: tuple[float, ...] = param(lo=0.0)

    def __post_init__(self):
        object.__setattr__(self, "_cum", tuple(itertools.accumulate(self.probs)))

    def sample(self, rng):
        return self.value_at(rng.random())

    def value_at(self, u: float):
        """The value a uniform ``u`` in [0, 1) selects: the first whose
        cumulative probability exceeds ``u``."""
        i = bisect.bisect_right(self._cum, u)
        return self.values[min(i, len(self.values) - 1)]


@dataclass(frozen=True)
class EfficacySpec:
    """True response-rate model: direct rates or effects applied on top of
    SoC, drawn per cohort; fixed rates are one-value distributions."""

    random_type: str = param(choices=RANDOM_TYPES)
    comb: DiscreteDist
    mono_a: DiscreteDist
    mono_b: DiscreteDist
    soc: DiscreteDist


@dataclass(frozen=True)
class IdentityTransform:
    """Interim outcome equals the final outcome; mass (1-rr, 0, 0, rr)."""

    kind: ClassVar[str] = "identity"

    def __call__(self, rr: float) -> tuple[float, float, float, float]:
        return (1.0 - rr, 0.0, 0.0, rr)


@dataclass(frozen=True)
class CorrelatedTransform:
    """Interim outcome is a noisy surrogate of the final outcome.

    ``sens`` and ``spec`` act like diagnostic sensitivity/specificity of the
    interim read-out against the final one; the final-endpoint marginal stays
    exactly ``rr``.
    """

    kind: ClassVar[str] = "correlated"
    sens: float = param(lo=0.0, hi=1.0)
    spec: float = param(lo=0.0, hi=1.0)

    def __call__(self, rr: float) -> tuple[float, float, float, float]:
        p11 = self.sens * rr
        p01 = (1.0 - self.sens) * rr
        p10 = (1.0 - self.spec) * (1.0 - rr)
        p00 = self.spec * (1.0 - rr)
        return (p00, p01, p10, p11)


TRANSFORM_KINDS = {"identity": IdentityTransform, "correlated": CorrelatedTransform}


@dataclass(frozen=True)
class EndpointModel:
    """Joint (interim, final) outcome model.

    Each transform maps the true final response rate to probabilities over
    the outcome pairs (0/0, 0/1, 1/0, 1/1); one transform is sampled per
    cohort at opening.  A transform is ``identity`` (the default) or
    ``correlated``.
    """

    transforms: tuple[IdentityTransform | CorrelatedTransform, ...] = \
        param((IdentityTransform(),), kinds=TRANSFORM_KINDS)
    probs: tuple[float, ...] = param((1.0,), lo=0.0)

    def __post_init__(self):
        object.__setattr__(self, "_dist", DiscreteDist(self.transforms, self.probs))

    def sample_transform(self, rng):
        return self._dist.sample(rng)


@dataclass(frozen=True)
class TargetProfile:
    """True-effect margins deciding which cohorts count as truly superior.

    ``scale``: 1 = risk difference, 2 = risk ratio, 3 = odds ratio; on the
    ratio scales the margins are ratios, so they must be > 0.
    ``strict`` controls whether a rate exactly on the margin counts as
    superior (False) or not (True, default).
    """

    margin_comb: float
    margin_mono: float
    scale: int = param(1, choices=tuple(SCALE_NAMES))
    strict: bool = True

    @property
    def scale_name(self) -> str:
        return SCALE_NAMES[self.scale]


@dataclass(frozen=True)
class BetaPrior:
    alpha: float = param(1.0, lo=MIN_SHAPE, hi=MAX_PRIOR_SHAPE)
    beta: float = param(1.0, lo=MIN_SHAPE, hi=MAX_PRIOR_SHAPE)


@dataclass(frozen=True)
class PlatformRules:
    """Platform-level design parameters and stopping rules."""

    cohorts_max: int = param(lo=1)
    n_int: int = param(lo=1)
    n_fin: int
    cohort_random: float = param(0.0, lo=0.0, hi=1.0)
    cohort_offset: int = param(0, lo=0)
    initial_cohorts: int = param(1, lo=1)
    safety_prob: float = param(0.0, lo=0.0, hi=1.0)
    sr_drugs_pos: float = param(math.inf, lo=1, inf=True)
    sr_pats: float = param(math.inf, lo=1, inf=True)
    sr_first_pos: bool = False
    trial_struc: str = param("all_plac", choices=TRIAL_STRUCTURES)
    sharing_type: str = param("cohort", choices=SHARING_TYPES)
    allocation_ratio: tuple[int, int, int, int] = param((2, 1, 1, 1), columns=(
        {"name": "comb", "lo": 1}, {"name": "mono_a", "lo": 0}, {"name": "mono_b", "lo": 0},
        {"name": "soc", "lo": 0}))
    run_out_active_cohorts: bool = True


@dataclass(frozen=True)
class ComparisonRules:
    """All rules configured for one comparison at one stage: one field per
    rule kind, named after the kind's ``key``; the field order is the
    evaluation and trace order.  An instance with every list empty marks
    the comparison as absent."""

    bayes_sup: tuple[BayesSupRule, ...] = ()
    bayes_fut: tuple[BayesFutRule, ...] = ()
    bayes_sa_sup: tuple[BayesSASupRule, ...] = ()
    bayes_sa_fut: tuple[BayesSAFutRule, ...] = ()
    freq_sup: tuple[FreqSupRule, ...] = ()
    freq_fut: tuple[FreqFutRule, ...] = ()
    est_sup_fut: tuple[EstSupFutRule, ...] = ()
    ci_sup_fut: tuple[CISupFutRule, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_rules", tuple(
            rule for f in dataclasses.fields(self) for rule in getattr(self, f.name)))

    def __iter__(self):
        """Every configured rule, in field order."""
        return iter(self._rules)

    @property
    def empty(self) -> bool:
        return not self._rules


@dataclass(frozen=True)
class DecisionRuleSet:
    """One ComparisonRules per comparison (comb/monoA, comb/monoB, monoA/SoC,
    monoB/SoC) for the interim and the final analysis.  Each trial looks its
    plan up by them, so the hash is computed once; a pickled copy hashes anew."""

    interim: tuple[ComparisonRules, ComparisonRules, ComparisonRules, ComparisonRules] = \
        param((ComparisonRules(),) * 4, keys=COMPARISON_KEYS)
    final: tuple[ComparisonRules, ComparisonRules, ComparisonRules, ComparisonRules] = \
        param((ComparisonRules(),) * 4, keys=COMPARISON_KEYS)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.interim, self.final)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.interim, self.final)

    def for_stage(self, stage: str):
        return self.interim if stage == "interim" else self.final


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    """A complete, validated simulation scenario; the fields are the keys of
    its file."""

    id: str = "scenario"
    efficacy: EfficacySpec
    endpoint: EndpointModel = field(default_factory=EndpointModel)
    target: TargetProfile
    prior: BetaPrior = field(default_factory=BetaPrior)
    platform: PlatformRules
    rules: DecisionRuleSet


# ---------------------------------------------------------------------------
# parsing: the whole file, rules table included, is parsed generically from
# ScenarioSpec's dataclass tree (see schema)


def scenario_from_dict(d: Mapping[str, Any]) -> ScenarioSpec:
    """Build a ScenarioSpec from a plain nested mapping (no validation)."""
    efficacy = d.get("efficacy")
    if isinstance(efficacy, Mapping) and "random" in efficacy:
        # legacy key: rates are always drawn per cohort
        if efficacy["random"] is not True:
            raise ConfigError("efficacy.random: only true is supported; give fixed rates "
                              "as one-value distributions, e.g. {values: [0.3], probs: [1.0]}")
        d = {**d, "efficacy": {k: v for k, v in efficacy.items() if k != "random"}}
    if "id" in d:
        d = {**d, "id": str(d["id"])}
    return parse(ScenarioSpec, d, "")


def parse_scenario(source: str | Mapping[str, Any]) -> ScenarioSpec:
    """Parse and validate a scenario from YAML/JSON text or a mapping.

    Raises ConfigError naming the offending field on schema or invariant
    violations; warnings (rule-consistency findings) do not block.
    """
    data = _load_yaml(source, "scenario") if isinstance(source, str) else source
    if not isinstance(data, Mapping):
        raise ConfigError("scenario must be a mapping at top level")
    spec = scenario_from_dict(data)
    errors = [v for v in validate(spec) if v.severity == "error"]
    if errors:
        raise ConfigError("invalid scenario:\n" + "\n".join(str(v) for v in errors))
    return spec


def _load_yaml(text: str, what: str) -> Any:
    """The value of the YAML/JSON ``text``; ConfigError naming ``what`` when
    it does not parse."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"unparseable {what} text: {exc}") from exc


def load_scenario(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# serialization (round-trips through parse_scenario)


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return dump(spec)


# ---------------------------------------------------------------------------
# validation: declared field limits (schema.violations) plus the checks that
# span several fields


def _probs_violations(n: int, probs: Sequence[float], path: str, what: str) -> list[Violation]:
    if n != len(probs) or n < 1:
        return [Violation(path, f"{what} and probs must have equal length >= 1")]
    if abs(sum(probs) - 1.0) > _PROB_TOL:
        return [Violation(path + ".probs", f"probs must sum to 1 (got {sum(probs)!r})")]
    return []


def _efficacy_violations(eff: EfficacySpec) -> list[Violation]:
    dists = {"comb": eff.comb, "mono_a": eff.mono_a, "mono_b": eff.mono_b, "soc": eff.soc}
    out = []
    for name, d in dists.items():
        out.extend(_probs_violations(len(d.values), d.probs, f"efficacy.{name}", "values"))
        # rates must be probabilities; relative effects must fit their scale
        if eff.random_type == "absolute" or name == "soc":
            if any(not 0.0 <= v <= 1.0 for v in d.values):
                out.append(Violation(f"efficacy.{name}.values", "response rates must lie in [0, 1]"))
        elif eff.random_type in ("risk_ratio", "odds_ratio") and any(v <= 0.0 for v in d.values):
            out.append(Violation(f"efficacy.{name}.values", f"{eff.random_type} effects must be > 0"))
    return out


def validate(spec: ScenarioSpec) -> list[Violation]:
    """Return all violations; errors break invariants, warnings are advisory.

    Pure: the same spec always yields the same list.  Decision rules are
    checked structurally only; semantically contradictory rules produce
    warnings rather than errors.
    """
    out = violations(spec, "")
    out.extend(_efficacy_violations(spec.efficacy))
    out.extend(_probs_violations(len(spec.endpoint.transforms), spec.endpoint.probs, "endpoint",
                                 "transforms"))
    t = spec.target
    if t.scale in (2, 3):  # a ratio margin of 0 or less puts the bar at 0 for any comparator
        out.extend(Violation(f"target.{name}", f"{t.scale_name} margins must be > 0")
                   for name in ("margin_comb", "margin_mono") if getattr(t, name) <= 0.0)
    p = spec.platform
    if p.n_int > p.n_fin:
        out.append(Violation("platform.n_int", f"n_int ({p.n_int}) must be <= n_fin ({p.n_fin})"))
    if p.initial_cohorts > p.cohorts_max:
        out.append(Violation("platform.initial_cohorts",
                             f"must be <= cohorts_max ({p.cohorts_max})"))
    # why an arm never enters a cohort, as the engine's open_cohort decides it
    absent = {arm: f"arm {arm!r} has allocation_ratio 0"
              for arm, r in zip(ARM_ORDER, p.allocation_ratio) if r == 0}
    if p.trial_struc == "no_plac":
        absent.setdefault("soc", "trial_struc 'no_plac' has no SoC arm")
    errors = [v.field for v in out if v.severity == "error"]
    for stage in STAGES:
        for key, arms, cr in zip(COMPARISON_KEYS, COMPARISON_ARMS.values(),
                                 spec.rules.for_stage(stage)):
            path = f"rules.{stage}.{key}"
            # overlapping GO/STOP regions are legal but suspicious; `conflicts` reads well-formed
            # rules only, so a comparison whose rules already have an error is skipped
            if not any(e.startswith(path + ".") for e in errors):
                for f in dataclasses.fields(cr):
                    for i, rule in enumerate(getattr(cr, f.name)):
                        out.extend(Violation(f"{path}.{f.name}[{i}]", msg, severity="warning")
                                   for msg in rule.conflicts(cr))
            missing = "; ".join(absent[arm] for arm in arms if arm in absent)
            if missing and not cr.empty:
                out.append(Violation(path, f"rules configured, but {missing}; they will never "
                                           f"be evaluated", severity="warning"))
    return out


# ---------------------------------------------------------------------------
# grid expansion


_SECTION_ORDER = ("platform", "target", "prior", "efficacy", "endpoint")
_SCALAR_TYPES = (int, float, str, bool)


def resolve_path(spec: ScenarioSpec, path: str) -> tuple[str, str]:
    """Resolve an axis path ('platform.n_int' or the shorthand 'n_int') to a
    (section, field) tuple naming a scalar ScenarioSpec field."""
    matches = [(section, f.name) for section in _SECTION_ORDER
               for f in dataclasses.fields(getattr(spec, section))
               if path in (f.name, f"{section}.{f.name}")
               and isinstance(getattr(getattr(spec, section), f.name), _SCALAR_TYPES)]
    if not matches:
        raise ConfigError(f"axis path {path!r}: no scalar field with that name "
                          f"(sections: {_SECTION_ORDER})")
    if len(matches) > 1:
        raise ConfigError(f"axis path {path!r} is ambiguous: {matches}; use '<section>.<field>'")
    return matches[0]


def get_path(spec: ScenarioSpec, path: str):
    parts = resolve_path(spec, path)
    obj = spec
    for part in parts:
        obj = getattr(obj, part)
    return obj


def _with_path(spec: ScenarioSpec, parts: tuple[str, str], value) -> ScenarioSpec:
    section, name = parts
    current = getattr(spec, section)
    return dataclasses.replace(spec, **{section: dataclasses.replace(current, **{name: value})})


def expand_grid(base: ScenarioSpec, axes: Mapping[str, Sequence]) -> list[ScenarioSpec]:
    """Cartesian product of axis values applied on top of ``base``.

    Ordering is row-major over the axes in declaration order (the last axis
    varies fastest).  Each returned spec gets a unique derived id; everything
    not named by an axis is untouched.  Axis values are parsed like the
    fields they set, and every returned spec is validated: a combination
    that breaks an invariant raises ConfigError naming its id and axis
    values.
    """
    if not axes:
        return [base]
    paths = [resolve_path(base, key) for key in axes]
    value_lists = [list(vs) for vs in axes.values()]
    if any(len(vs) == 0 for vs in value_lists):
        raise ConfigError("every grid axis needs at least one value")
    width = max(3, len(str(math.prod(len(vs) for vs in value_lists) - 1)))
    specs = []
    for k, combo in enumerate(itertools.product(*value_lists)):
        spec = base
        for parts, value in zip(paths, combo):
            value = parse_field(type(getattr(base, parts[0])), parts[1], value,
                                f"axis {'.'.join(parts)}")
            spec = _with_path(spec, parts, value)
        spec = dataclasses.replace(spec, id=f"{base.id}#{k:0{width}d}")
        errors = [str(v) for v in validate(spec) if v.severity == "error"]
        if errors:
            where = ", ".join(f"{key}={v!r}" for key, v in zip(axes, combo))
            raise ConfigError(f"grid scenario {spec.id} ({where}) is invalid:\n"
                              + "\n".join(errors))
        specs.append(spec)
    return specs


def load_axes(path) -> dict[str, list]:
    """Load a grid axes file: a mapping from axis path to a list of values."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _load_yaml(fh.read(), "axes file")
    if not isinstance(data, Mapping):
        raise ConfigError("axes file must be a mapping from field path to value list")
    out = {}
    for key, values in data.items():
        if not isinstance(values, Sequence) or isinstance(values, str):
            raise ConfigError(f"axis {key!r}: expected a list of values")
        out[str(key)] = list(values)
    return out
