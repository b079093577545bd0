"""Run configuration: one JSON file describing corpora, lexicons and knobs.

Relative paths are resolved against the config file's directory. The config
hash used in provenance covers the parsed content except the output
directory, so re-running the same analysis into a different directory keeps
identical provenance and, therefore, identical numeric outputs.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .corpus import tokenize
from .errors import ConfigError
from .metrics import MetricId
from .probe import MASK

__all__ = ["RunConfig", "EmbeddingConfig", "ProbeConfig"]

_LINKAGES = ("average", "single", "complete")
_ALIGNMENTS = ("procrustes", "identity")


# The keys each config section may hold. A misspelt key is an error, not a
# silent default.
_SECTION_KEYS = {
    "date_range": ("start", "end"),
    "clustering": ("linkage", "znormalize"),
    "embedding": ("dim", "window", "negatives", "epochs", "min_count", "subsample", "anchor_count", "alignment"),
    "weat": ("attributes_positive", "attributes_negative"),
    "probe": ("order", "smoothing", "top_k", "max_rank", "party_tokens", "prompt"),
    "analyzers": ("valence", "modifiers", "subjectivity"),
    "gazetteer": ("cities", "states"),
}
_TOP_LEVEL_KEYS = ("corpora", "party_lexicons", "metrics", "output_dir", "seed", *_SECTION_KEYS)


def _reject_unknown(section: dict, known: tuple[str, ...], prefix: str = "") -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}; expected one of {sorted(known)}")


def _section(raw: dict, key: str) -> dict:
    """A nested config object; absent or null means all defaults."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key}: expected an object")
    _reject_unknown(value, _SECTION_KEYS[key], f"{key}.")
    return value


# The typed readers below take the dotted config key, for the error message;
# its last part names the field inside `section`. Numbers written as strings
# ("100") and whole numbers written as floats (100.0) are converted.


def _integer(section: dict, key: str, default: int, minimum: int | None = None) -> int:
    value = section.get(key.rpartition(".")[2], default)
    number = None
    if isinstance(value, int) and not isinstance(value, bool):
        number = value
    elif isinstance(value, float) and value.is_integer():
        number = int(value)
    elif isinstance(value, str):
        try:
            number = int(value)
        except ValueError:
            pass
    if number is None:
        raise ConfigError(f"config key {key}: expected an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"config key {key}: must be >= {minimum}, got {number}")
    return number


def _real(
    section: dict, key: str, default: float, minimum: float | None = None, strict: bool = False
) -> float:
    value = section.get(key.rpartition(".")[2], default)
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"config key {key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"config key {key}: expected a number, got {value!r}") from None
    if minimum is not None and not (number > minimum if strict else number >= minimum):
        bound = ">" if strict else ">="
        raise ConfigError(f"config key {key}: must be {bound} {minimum}, got {number}")
    return number


def _words(section: dict, key: str, default: tuple[str, ...]) -> tuple[str, ...]:
    value = section.get(key.rpartition(".")[2], default)
    if not isinstance(value, (list, tuple)) or not value or not all(isinstance(w, str) for w in value):
        raise ConfigError(f"config key {key}: expected a non-empty list of words")
    return tuple(value)


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    min_count: int = 5
    subsample: float = 1e-3
    anchor_count: int = 1000
    alignment: str = "procrustes"


@dataclass(frozen=True)
class ProbeConfig:
    order: int = 3
    smoothing: float = 0.01
    top_k: int = 50
    max_rank: int = 15
    party_tokens: tuple[str, str] = ("BJP", "Congress")
    prompt: str = "This election people will vote for <mask>."


@dataclass
class RunConfig:
    corpora: dict
    date_start: dt.date
    date_end: dt.date
    output_dir: Path
    seed: int
    party_lexicons_path: Path | None = None
    cities_path: Path | None = None
    states_path: Path | None = None
    valence_path: Path | None = None
    modifiers_path: Path | None = None
    subjectivity_path: Path | None = None
    metrics: list = field(default_factory=lambda: list(MetricId))
    linkage: str = "average"
    znormalize: bool = False
    embedding: EmbeddingConfig = EmbeddingConfig()
    weat_positive: tuple = ("good", "honest", "efficient", "superior")
    weat_negative: tuple = ("bad", "dishonest", "inefficient", "inferior")
    probe: ProbeConfig = ProbeConfig()
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
        base_dir = Path(base_dir)
        _reject_unknown(raw, _TOP_LEVEL_KEYS)

        def resolve(value: Any, key: str, must_exist: bool = True) -> Path | None:
            if value is None:
                return None
            if not isinstance(value, str):
                raise ConfigError(f"config key {key}: expected a path string")
            resolved = (base_dir / value).resolve() if not Path(value).is_absolute() else Path(value)
            if must_exist and not resolved.exists():
                raise ConfigError(f"config key {key}: path does not exist: {resolved}")
            return resolved

        corpora_raw = raw.get("corpora")
        if not isinstance(corpora_raw, dict) or not corpora_raw:
            raise ConfigError("config key corpora: expected a non-empty object of outlet -> path")
        corpora = {
            outlet: resolve(p, f"corpora.{outlet}") for outlet, p in sorted(corpora_raw.items())
        }

        dates = _section(raw, "date_range")
        try:
            date_start = dt.date.fromisoformat(dates.get("start", "0001-01-01"))
            date_end = dt.date.fromisoformat(dates.get("end", "9999-12-31"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key date_range: invalid date: {exc}") from exc
        if date_start > date_end:
            raise ConfigError(f"config key date_range: start {date_start} after end {date_end}")

        metric_names = raw.get("metrics")
        if metric_names is None:
            metrics = list(MetricId)
        elif not isinstance(metric_names, list):
            raise ConfigError("config key metrics: expected a list of metric names")
        else:
            try:
                metrics = [MetricId(name) for name in metric_names]
            except ValueError as exc:
                raise ConfigError(f"config key metrics: {exc}") from exc

        clustering = _section(raw, "clustering")
        linkage = clustering.get("linkage", "average")
        if linkage not in _LINKAGES:
            raise ConfigError(f"config key clustering.linkage: expected one of {_LINKAGES}")
        znormalize = clustering.get("znormalize", False)
        if not isinstance(znormalize, bool):
            raise ConfigError(
                f"config key clustering.znormalize: expected true or false, got {znormalize!r}"
            )

        embedding_raw = _section(raw, "embedding")
        dim = _integer(embedding_raw, "embedding.dim", 100, minimum=1)
        embedding = EmbeddingConfig(
            dim=dim,
            window=_integer(embedding_raw, "embedding.window", 5, minimum=1),
            negatives=_integer(embedding_raw, "embedding.negatives", 5, minimum=0),
            epochs=_integer(embedding_raw, "embedding.epochs", 5, minimum=1),
            min_count=_integer(embedding_raw, "embedding.min_count", 5, minimum=1),
            subsample=_real(embedding_raw, "embedding.subsample", 1e-3, minimum=0.0),
            # `align` needs at least one shared anchor per dimension.
            anchor_count=_integer(embedding_raw, "embedding.anchor_count", 1000, minimum=dim),
            alignment=embedding_raw.get("alignment", "procrustes"),
        )
        if embedding.alignment not in _ALIGNMENTS:
            raise ConfigError(f"config key embedding.alignment: expected one of {_ALIGNMENTS}")

        weat_raw = _section(raw, "weat")
        weat_positive = _words(weat_raw, "weat.attributes_positive", ("good", "honest", "efficient", "superior"))
        weat_negative = _words(weat_raw, "weat.attributes_negative", ("bad", "dishonest", "inefficient", "inferior"))
        # The rule `embeddings.AssociationSets` applies to the attribute sets.
        shared = sorted(set(weat_positive) & set(weat_negative))
        if shared:
            raise ConfigError(
                "config keys weat.attributes_positive and weat.attributes_negative must be disjoint, "
                f"both hold {shared}"
            )

        probe_raw = _section(raw, "probe")
        party_tokens = probe_raw.get("party_tokens", ["BJP", "Congress"])
        if not isinstance(party_tokens, (list, tuple)) or len(party_tokens) != 2:
            raise ConfigError("config key probe.party_tokens: expected exactly 2 tokens")
        for label in party_tokens:
            # The probe reads the mask slot's distribution over single tokens.
            if not isinstance(label, str) or tokenize(label) != [label]:
                raise ConfigError(f"config key probe.party_tokens: {label!r} is not a single token")
        prompt = probe_raw.get("prompt", ProbeConfig.prompt)
        # The rule `NgramMaskBackend.query` applies to every prompt.
        if not isinstance(prompt, str) or len(prompt.split(MASK)) != 2:
            raise ConfigError(
                f"config key probe.prompt: expected a string with exactly one {MASK!r} slot, "
                f"got {prompt!r}"
            )
        probe = ProbeConfig(
            order=_integer(probe_raw, "probe.order", 3, minimum=2),
            smoothing=_real(probe_raw, "probe.smoothing", 0.01, minimum=0.0, strict=True),
            top_k=_integer(probe_raw, "probe.top_k", 50, minimum=0),
            max_rank=_integer(probe_raw, "probe.max_rank", 15, minimum=0),
            party_tokens=tuple(party_tokens),
            prompt=prompt,
        )

        analyzers = _section(raw, "analyzers")
        gazetteer = _section(raw, "gazetteer")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("config key seed: expected a non-negative integer")

        hashable = {k: v for k, v in raw.items() if k != "output_dir"}
        config_hash = hashlib.sha256(
            json.dumps(hashable, sort_keys=True, ensure_ascii=False).encode("utf-8")
        ).hexdigest()

        output_dir = raw.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError("config key output_dir: expected a path string")

        return cls(
            corpora=corpora,
            date_start=date_start,
            date_end=date_end,
            output_dir=(base_dir / output_dir),
            seed=seed,
            party_lexicons_path=resolve(raw.get("party_lexicons"), "party_lexicons"),
            cities_path=resolve(gazetteer.get("cities"), "gazetteer.cities"),
            states_path=resolve(gazetteer.get("states"), "gazetteer.states"),
            valence_path=resolve(analyzers.get("valence"), "analyzers.valence"),
            modifiers_path=resolve(analyzers.get("modifiers"), "analyzers.modifiers"),
            subjectivity_path=resolve(analyzers.get("subjectivity"), "analyzers.subjectivity"),
            metrics=metrics,
            linkage=linkage,
            znormalize=znormalize,
            embedding=embedding,
            weat_positive=weat_positive,
            weat_negative=weat_negative,
            probe=probe,
            config_hash=config_hash,
        )
