"""Generic parsing, serialisation and validation of frozen dataclasses
against plain YAML/JSON mappings: the keys are the init fields (required
when without default), the field types drive parsing (``bool`` takes YAML
booleans only) and field metadata (:func:`param`) declares valid values."""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import MISSING, dataclass
from typing import Any, Mapping, Sequence


class ConfigError(ValueError):
    """Scenario source is malformed or violates an invariant."""


@dataclass(frozen=True)
class Violation:
    field: str
    message: str
    severity: str = "error"  # "error" | "warning"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.field}: {self.message}"


def param(default=MISSING, **limits):
    """A dataclass field whose metadata declares its valid values.

    ``lo``/``hi``: closed bounds (open with ``open=True``); ``inf=True``:
    +infinity is allowed and serialised as ``"inf"``; ``choices``: the
    allowed values; ``nonempty=True``: a list that needs at least one entry;
    ``columns``: one such limits mapping (plus a ``name``) per position of a
    fixed-length row; ``kinds``: tagged union, ``{"kind": name, **fields}``
    with name -> dataclass; ``keys``: a fixed-length tuple written as a
    mapping from each of these names to the entry at its position, where a
    missing name stands for (and a dump leaves out) the entry type's default
    instance.  Limits of a list field apply to each entry.  Beyond these,
    :func:`violations` rejects a fixed-length tuple of another length and an
    entry of a ``kinds`` field whose type is not one of the kinds.
    """
    return dataclasses.field(default=default, metadata=limits)


@functools.cache
def _hints(cls) -> dict[str, Any]:
    return typing.get_type_hints(cls)


def _join(path: str, name: str) -> str:
    """The path of ``name`` below ``path``; the root's path is ``""``."""
    return f"{path}.{name}" if path else name


def check_keys(mapping, allowed: Sequence[str], path: str) -> None:
    where = path or "top level"
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{where}: expected a mapping, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {unknown}; allowed: {sorted(allowed)}")


# ---------------------------------------------------------------------------
# parsing


def parse(cls, raw, path: str):
    """Build dataclass ``cls`` from the mapping ``raw`` found at ``path``."""
    check_keys(raw, [f.name for f in dataclasses.fields(cls)], path)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in raw:
            kwargs[f.name] = parse_field(cls, f.name, raw[f.name], _join(path, f.name))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path or 'top level'}: missing required field '{f.name}'")
    return cls(**kwargs)


def parse_field(cls, name: str, raw, path: str):
    """Parse ``raw`` as the value of field ``name`` of dataclass ``cls``."""
    return _convert(_hints(cls)[name], raw, cls.__dataclass_fields__[name].metadata, path)


def _convert(tp, raw, meta: Mapping, path: str):
    if "keys" in meta:
        check_keys(raw, meta["keys"], path)
        return tuple(_convert(a, raw[k], {}, f"{path}.{k}") if k in raw else a()
                     for a, k in zip(typing.get_args(tp), meta["keys"]))
    if typing.get_origin(tp) is tuple:
        if isinstance(raw, str) or not isinstance(raw, Sequence):
            raise ConfigError(f"{path}: expected a list, got {raw!r}")
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            args, metas = (args[0],) * len(raw), (meta,) * len(raw)
        elif len(raw) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args)} values")
        else:
            metas = meta.get("columns", (meta,) * len(args))
        return tuple(_convert(a, v, m, f"{path}[{i}]")
                     for i, (a, v, m) in enumerate(zip(args, raw, metas)))
    if dataclasses.is_dataclass(tp):
        return parse(tp, raw, path)
    if "kinds" in meta:
        kind = raw.get("kind") if isinstance(raw, Mapping) else None
        cls = meta["kinds"].get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ConfigError(f"{path}.kind: expected one of {list(meta['kinds'])}, got {kind!r}")
        return parse(cls, {k: v for k, v in raw.items() if k != "kind"}, path)
    if tp in (bool, str):
        if not isinstance(raw, tp):
            raise ConfigError(f"{path}: expected {'true or false' if tp is bool else 'a string'}, "
                              f"got {raw!r}")
        return raw
    if meta.get("inf") and isinstance(raw, str) and raw.strip().lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an integer beyond a float's range
        raise ConfigError(f"{path}: must be finite") from None
    if math.isinf(value) and not meta.get("inf"):
        raise ConfigError(f"{path}: must be finite")
    if tp is int:
        if not value.is_integer():
            raise ConfigError(f"{path}: expected an integer, got {raw!r}")
        return int(raw)
    return value


# ---------------------------------------------------------------------------
# serialisation


def dump(obj) -> dict:
    """Inverse of :func:`parse`; optional empty lists are left out."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not (value == () and f.default == ()):
            out[f.name] = _dump_value(value, f.metadata)
    return out


def _dump_value(value, meta: Mapping):
    if "keys" in meta:
        return {k: dump(v) for k, v in zip(meta["keys"], value) if v != type(v)()}
    if isinstance(value, tuple):
        return [_dump_value(v, meta) for v in value]
    if "kinds" in meta:
        if type(value) not in meta["kinds"].values():
            raise ConfigError(f"{value!r} is not expressible in config files")
        return {"kind": value.kind, **dump(value)}
    if dataclasses.is_dataclass(value):
        return dump(value)
    return "inf" if value == math.inf else value


# ---------------------------------------------------------------------------
# validation


def violations(obj, path: str) -> list[Violation]:
    """Every value of dataclass ``obj`` (recursively) outside its declared limits."""
    out = []
    for f in dataclasses.fields(obj):
        out.extend(_check(_hints(type(obj))[f.name], getattr(obj, f.name), f.metadata,
                          _join(path, f.name)))
    return out


def _check(tp, value, meta: Mapping, path: str) -> list[Violation]:
    if "keys" in meta:
        return [v for a, k, x in zip(typing.get_args(tp), meta["keys"], value)
                for v in _check(a, x, {}, f"{path}.{k}")]
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if args[-1] is not Ellipsis:
            if len(value) != len(args):
                return [Violation(path, f"needs {len(args)} entries, got {len(value)}")]
            metas = meta.get("columns", (meta,) * len(args))
        elif meta.get("nonempty") and not value:
            return [Violation(path, "needs at least one entry")]
        else:
            args, metas = (args[0],) * len(value), (meta,) * len(value)
        return [v for i, (a, x, m) in enumerate(zip(args, value, metas))
                for v in _check(a, x, m, f"{path}[{i}]")]
    if "kinds" in meta and type(value) not in meta["kinds"].values():
        return [Violation(path, f"must be one of the kinds {list(meta['kinds'])}")]
    if dataclasses.is_dataclass(value):
        return violations(value, path)
    what = f"{meta['name']} " if "name" in meta else ""
    if "choices" in meta and value not in meta["choices"]:
        return [Violation(path, f"{what}must be one of {meta['choices']}")]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return []
    if not (math.isfinite(value) or (meta.get("inf") and value == math.inf)):
        return [Violation(path, f"{what}must be finite")]
    lo, hi, is_open = meta.get("lo", -math.inf), meta.get("hi", math.inf), meta.get("open", False)
    if (lo < value < hi) if is_open else (lo <= value <= hi):
        return []
    interval = f"({lo}, {hi})" if is_open else f"[{lo}, {hi}]"
    return [Violation(path, f"{what}must lie in {interval}")]
