"""Whole-report metamorphic relations on a two-year archive, each asserted bitwise.

Outlet drop: removing one outlet from the config leaves every other outlet's
artifacts as they were, its SGNS models included. Party swap: reversing the
party lexicons and the probe's party tokens negates or swaps every party-directed
number and leaves the rest equal. Floats are compared by their JSON or CSV
text, which is their repr, so the sign of a zero counts too.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from newsbalance._data import data_path
from newsbalance.cli import main

DROPPED = "daily-alpha"


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    assert main(["synth", "--out", str(directory), "--seed", "5", "--months", "24",
                 "--articles-per-month", "10"]) == 0
    return directory


def _report(archive: Path, out: Path, edit=lambda raw: None) -> Path:
    """Run `report` on the archive's config after `edit(raw config)`; returns the output directory."""
    raw = json.loads((archive / "config.json").read_text())
    raw["corpora"] = {k: str(archive / v) for k, v in raw["corpora"].items()}
    edit(raw)
    out.mkdir(parents=True)
    config = out / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["report", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def base(archive, tmp_path_factory):
    return _report(archive, tmp_path_factory.mktemp("base") / "out")


def _bundle(out: Path) -> dict:
    return json.loads((out / "report" / "bundle.json").read_text())["commands"]


def _csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _text(value) -> str:
    return json.dumps(value, sort_keys=True)


def _negated(value):
    """The negation, with a zero as +0.0, which is what a score's subtraction gives."""
    return None if value is None else 0.0 - value


def test_dropping_an_outlet_changes_no_other_outlets_artifact(archive, base, tmp_path):
    dropped = _report(archive, tmp_path / "out", lambda raw: raw["corpora"].pop(DROPPED))
    before, after = _bundle(base), _bundle(dropped)
    kept = sorted(after["metrics"])
    assert kept == sorted(set(before["metrics"]) - {DROPPED}) and kept

    for outlet in kept:
        for year in (2010, 2011):
            name = Path("weat", f"{outlet}_{year}.nbe")
            assert (dropped / name).read_bytes() == (base / name).read_bytes(), name
        for path in (base / "metrics").glob(f"{outlet}__*.csv"):
            assert (dropped / "metrics" / path.name).read_bytes() == path.read_bytes(), path.name
        for command in ("metrics", "weat", "probe"):
            assert _text(after[command][outlet]) == _text(before[command][outlet]), (command, outlet)
        for level, totals in before["geo"]["totals"].items():
            assert _text(after["geo"]["totals"][level][outlet]) == _text(totals[outlet]), (level, outlet)
        assert _text(after["geo"]["trends"][outlet]) == _text(before["geo"]["trends"][outlet]), outlet

    # Every per-outlet table keeps the remaining outlets' rows, cell for cell.
    for name, column in [
        ("geo/coverage_city.csv", 1),
        ("geo/coverage_state.csv", 1),
        ("geo/trends_state.csv", 0),
        ("weat/popularity.csv", 0),
        ("probe/popularity.csv", 0),
    ]:
        header, *rows = _csv(base / name)
        assert _csv(dropped / name) == [header, *(row for row in rows if row[column] != DROPPED)], name

    # The DTW distances among the remaining series; the dendrograms may change.
    def distances(cluster: dict) -> dict:
        labels, matrix = cluster["labels"], cluster["distance_matrix"]
        return {
            (a, b): repr(matrix[i][j])
            for i, a in enumerate(labels)
            for j, b in enumerate(labels)
            if not a.startswith(f"{DROPPED}/") and not b.startswith(f"{DROPPED}/")
        }

    assert distances(after["cluster"]) == distances(before["cluster"])


def _swap_parties(raw: dict, lexicons: Path) -> None:
    parties = json.loads(Path(data_path("party_lexicons.json")).read_text(encoding="utf-8"))
    lexicons.write_text(json.dumps(dict(reversed(list(parties.items())))), encoding="utf-8")
    raw["party_lexicons"] = str(lexicons)
    raw["probe"]["party_tokens"] = raw["probe"]["party_tokens"][::-1]


def test_swapping_the_parties_negates_or_swaps_every_party_number(base, archive, tmp_path):
    swapped = _report(archive, tmp_path / "out", lambda raw: _swap_parties(raw, tmp_path / "lexicons.json"))
    before, after = _bundle(base), _bundle(swapped)

    expected_metrics = {
        outlet: {
            metric: {
                "series": [[month, c, b, _negated(value)] for month, b, c, value in entry["series"]],
                "pooled": _negated(entry["pooled"]),
                "mean_abs": entry["mean_abs"],
            }
            for metric, entry in by_metric.items()
        }
        for outlet, by_metric in before["metrics"].items()
    }
    actual_metrics = {
        outlet: {
            metric: {k: v for k, v in entry.items() if k != "pooled_display"} for metric, entry in by_metric.items()
        }
        for outlet, by_metric in after["metrics"].items()
    }
    assert _text(actual_metrics) == _text(expected_metrics)

    expected_weat = {
        outlet: {
            "years": entry["years"],
            "group1": entry["group2"],
            "group2": entry["group1"],
            "weat_scores": {year: _negated(score) for year, score in entry["weat_scores"].items()},
        }
        for outlet, entry in before["weat"].items()
    }
    assert _text(after["weat"]) == _text(expected_weat)
    for path in (base / "weat").glob("*.nbe"):
        assert (swapped / "weat" / path.name).read_bytes() == path.read_bytes(), path.name

    expected_probe = {
        outlet: {**entry, "popularity": [[year, c, b] for year, b, c in entry["popularity"]]}
        for outlet, entry in before["probe"].items()
    }
    assert _text(after["probe"]) == _text(expected_probe)

    assert _text(after["geo"]) == _text(before["geo"])
    assert _text(after["cluster"]) == _text(before["cluster"])
