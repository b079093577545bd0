"""Run configuration: one JSON file describing corpora, lexicons and knobs.

The frozen dataclasses below are the schema, one per JSON section: a field's
name is its key, its default is the JSON value a missing key takes, and its
metadata names its reader and bounds. `_section` is the one reader; it reads
defaults too. Relative paths resolve against the config file's directory. The
config hash in provenance covers the parsed content except the output
directory, so a run into another directory keeps identical provenance.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from .corpus import is_outlet_name, tokenize
from .errors import ConfigError
from .metrics import MetricId
from .probe import MASK, VOTE_PROMPT

__all__ = [
    "RunConfig", "DateRangeConfig", "ClusteringConfig", "EmbeddingConfig", "WeatConfig", "ProbeConfig",
    "AnalyzersConfig", "GazetteerConfig", "schema_defaults",
]


# Readers: each takes the value (or the field default), the dotted key for
# messages, the field's metadata and the config directory, and returns the
# converted value or raises ConfigError. Numbers written as strings ("100")
# and whole numbers written as floats (100.0) are converted.


def _integer(value: Any, key: str, rule: dict, base_dir: Path) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"config key {key}: expected an integer, got {value!r}")


def _real(value: Any, key: str, rule: dict, base_dir: Path) -> float:
    number = math.nan
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except ValueError:
            pass
    # Outputs are JSON, which has no infinity or NaN.
    if not math.isfinite(number):
        raise ConfigError(f"config key {key}: expected a finite number, got {value!r}")
    return number


def _boolean(value: Any, key: str, rule: dict, base_dir: Path) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key}: expected true or false, got {value!r}")
    return value


def _choice(value: Any, key: str, rule: dict, base_dir: Path) -> str:
    if value not in rule["options"]:
        raise ConfigError(f"config key {key}: expected one of {rule['options']}, got {value!r}")
    return value


def _date(value: Any, key: str, rule: dict, base_dir: Path) -> dt.date:
    try:
        return dt.date.fromisoformat(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key}: invalid date: {exc}") from exc


def _distinct(values: tuple, key: str) -> tuple:
    if not values:
        raise ConfigError(f"config key {key}: expected a non-empty list")
    if len(set(values)) != len(values):
        raise ConfigError(f"config key {key}: {list(values)} repeats an entry")
    return values


def _words(value: Any, key: str, rule: dict, base_dir: Path) -> tuple[str, ...]:
    """Distinct single tokens (exactly `count` of them, if given); lowercase
    if `lowercase`, since the embeddings are trained on lowercased tokens."""
    count = rule.get("count")
    if not isinstance(value, (list, tuple)) or (count is not None and len(value) != count):
        wanted = f"exactly {count} tokens" if count else "words"
        raise ConfigError(f"config key {key}: expected a list of {wanted}, got {value!r}")
    for word in value:
        if not isinstance(word, str) or tokenize(word) != [word]:
            raise ConfigError(f"config key {key}: {word!r} is not a single token")
        if rule.get("lowercase") and word != word.lower():
            raise ConfigError(f"config key {key}: {word!r} is not lowercase")
    return _distinct(tuple(value), key)


def _metrics(value: Any, key: str, rule: dict, base_dir: Path) -> tuple[MetricId, ...]:
    """null means every metric."""
    if value is None:
        return tuple(MetricId)
    if not isinstance(value, list):
        raise ConfigError(f"config key {key}: expected a list of metric names")
    try:
        return _distinct(tuple(MetricId(name) for name in value), key)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def _prompt(value: Any, key: str, rule: dict, base_dir: Path) -> str:
    # The rule `NgramMaskBackend.query` applies to every prompt.
    if not isinstance(value, str) or len(value.split(MASK)) != 2:
        raise ConfigError(f"config key {key}: expected a string with exactly one {MASK!r} slot, got {value!r}")
    return value


def _path(value: Any, key: str, rule: dict, base_dir: Path) -> Path | None:
    """An existing file; null (the bundled default) unless `required`."""
    if value is None and not rule.get("required"):
        return None
    if not isinstance(value, str):
        raise ConfigError(f"config key {key}: expected a path string, got {value!r}")
    path = Path(value) if Path(value).is_absolute() else (base_dir / value).resolve()
    if not path.is_file():
        raise ConfigError(f"config key {key}: not a file: {path}")
    return path


def _corpora(value: Any, key: str, rule: dict, base_dir: Path) -> dict[str, Path]:
    if not isinstance(value, dict) or not value:
        raise ConfigError(f"config key {key}: expected a non-empty object of outlet -> path")
    for outlet in value:
        if not is_outlet_name(outlet):
            raise ConfigError(
                f"config key {key}: outlet {outlet!r} is not letters, digits, '_', '-' and '.', "
                "starting with a letter or digit"
            )
    return {
        outlet: _path(path, f"{key}.{outlet}", {"required": True}, base_dir)
        for outlet, path in sorted(value.items())
    }


def _directory(value: Any, key: str, rule: dict, base_dir: Path) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"config key {key}: expected a path string, got {value!r}")
    return base_dir / value


def _key(read, default: Any, **rule) -> Any:
    """A config key: its reader, its JSON default and its bounds.

    `minimum` (or `above`, for a strict bound) is a number, or the name of an
    earlier key of the same section. `disjoint` names an earlier word list
    that may share no word with this one.
    """
    return field(default=default, metadata={"read": read, **rule})


def _section(value: Any, key: str, rule: dict, base_dir: Path) -> Any:
    """The `schema` dataclass with each field read, converted and checked;
    an absent or null section means all defaults."""
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key}: expected an object")
    prefix = f"{key}." if key else ""
    keys = [f for f in fields(rule["schema"]) if "read" in f.metadata]
    unknown = sorted(set(value) - {f.name for f in keys})
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}; expected one of {sorted(f.name for f in keys)}")
    read: dict[str, Any] = {}
    for f in keys:
        name, bounds = prefix + f.name, f.metadata
        got = read[f.name] = bounds["read"](value.get(f.name, f.default), name, bounds, base_dir)
        low = bounds.get("minimum", bounds.get("above"))
        low = read[low] if isinstance(low, str) else low
        if low is not None and (got < low or (got == low and "above" in bounds)):
            raise ConfigError(f"config key {name}: must be {'>' if 'above' in bounds else '>='} {low}, got {got}")
        shared = sorted(set(got) & set(read[bounds["disjoint"]])) if "disjoint" in bounds else None
        if shared:
            raise ConfigError(f"config keys {prefix}{bounds['disjoint']} and {name} must be disjoint: {shared}")
    return rule["schema"](**read)


def schema_defaults(schema: type) -> dict:
    """The JSON object of `schema`'s defaults, sections filled in, in key order."""
    return {
        f.name: schema_defaults(f.metadata["schema"]) if "schema" in f.metadata else f.default
        for f in fields(schema)
        if "read" in f.metadata
    }


@dataclass(frozen=True)
class GazetteerConfig:
    cities: Path | None = _key(_path, None)
    states: Path | None = _key(_path, None)


@dataclass(frozen=True)
class AnalyzersConfig:
    valence: Path | None = _key(_path, None)
    modifiers: Path | None = _key(_path, None)
    subjectivity: Path | None = _key(_path, None)


@dataclass(frozen=True)
class DateRangeConfig:
    start: dt.date = _key(_date, "0001-01-01")
    end: dt.date = _key(_date, "9999-12-31", minimum="start")


@dataclass(frozen=True)
class ClusteringConfig:
    linkage: str = _key(_choice, "average", options=("average", "single", "complete"))
    znormalize: bool = _key(_boolean, False)


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = _key(_integer, 100, minimum=1)
    window: int = _key(_integer, 5, minimum=1)
    negatives: int = _key(_integer, 5, minimum=0)
    epochs: int = _key(_integer, 5, minimum=1)
    min_count: int = _key(_integer, 5, minimum=1)
    subsample: float = _key(_real, 1e-3, minimum=0.0)
    # `align` needs at least one shared anchor per dimension.
    anchor_count: int = _key(_integer, 1000, minimum="dim")
    alignment: str = _key(_choice, "procrustes", options=("procrustes", "identity"))


@dataclass(frozen=True)
class WeatConfig:
    attributes_positive: tuple[str, ...] = _key(_words, ("good", "honest", "efficient", "superior"), lowercase=True)
    # The rule `embeddings.AssociationSets` applies to the attribute sets.
    attributes_negative: tuple[str, ...] = _key(
        _words, ("bad", "dishonest", "inefficient", "inferior"), lowercase=True, disjoint="attributes_positive"
    )


@dataclass(frozen=True)
class ProbeConfig:
    order: int = _key(_integer, 3, minimum=2)
    smoothing: float = _key(_real, 0.01, above=0.0)
    top_k: int = _key(_integer, 50, minimum=0)
    max_rank: int = _key(_integer, 15, minimum=0)
    # The probe reads the mask slot's distribution over single tokens.
    party_tokens: tuple[str, str] = _key(_words, ("BJP", "Congress"), count=2)
    prompt: str = _key(_prompt, VOTE_PROMPT)


@dataclass(frozen=True)
class RunConfig:
    corpora: dict[str, Path] = _key(_corpora, None)
    party_lexicons: Path | None = _key(_path, None)
    gazetteer: GazetteerConfig = _key(_section, None, schema=GazetteerConfig)
    analyzers: AnalyzersConfig = _key(_section, None, schema=AnalyzersConfig)
    date_range: DateRangeConfig = _key(_section, None, schema=DateRangeConfig)
    metrics: tuple[MetricId, ...] = _key(_metrics, None)
    clustering: ClusteringConfig = _key(_section, None, schema=ClusteringConfig)
    embedding: EmbeddingConfig = _key(_section, None, schema=EmbeddingConfig)
    weat: WeatConfig = _key(_section, None, schema=WeatConfig)
    probe: ProbeConfig = _key(_section, None, schema=ProbeConfig)
    output_dir: Path = _key(_directory, "out")
    seed: int = _key(_integer, 0, minimum=0)
    config_hash: str = ""

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str | Path = ".") -> "RunConfig":
        cfg = _section(raw, "", {"schema": cls}, Path(base_dir))
        hashable = json.dumps({k: v for k, v in raw.items() if k != "output_dir"}, sort_keys=True, ensure_ascii=False)
        return replace(cfg, config_hash=hashlib.sha256(hashable.encode("utf-8")).hexdigest())
