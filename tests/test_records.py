"""The result records and the run configuration: immutable named tuples,
built without dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import panelrank
from panelrank import (EntityMap, InputError, align_rosters, analytics, core,
                       make_panel, parse_indicator_csv, rank_entities,
                       validate_panel)
from panelrank.cli import RunConfig, _rank_tables, compute_year

RECORDS = {
    "ScorePanel", "IndicatorTable", "MapRule", "EntityMap", "Lineage",
    "Alignment", "Finding", "DegreeIndex", "AdjustedUbiquity",
    "ProximityMatrix", "Prepared", "SimilarityPair", "ComplexityScores",
    "IterationTrace", "GoalWeights", "RankTable", "RankTrajectory",
    "RankSeries", "GroupProfile", "WeightsEvolution", "YearResult",
    "RunConfig"}

SPLIT = '{"splits": [{"from": ["b"], "to": ["b1", "b2"]}]}'


def built_records(panel):
    """One instance of every record type, from the functions that build
    them."""
    result = compute_year(panel, RunConfig())
    tables = {key: table for key, (_, table, *_) in _rank_tables(result).items()}
    weights = result.weights[0]
    emap = EntityMap.from_json(SPLIT)
    alignment = align_rosters(["a", "b", "c"], ["a", "b1", "b2", "c"], emap)
    series = analytics.rank_evolution(
        [tables["k_s"], tables["D_s"]],
        [align_rosters(panel.entities, panel.entities)])
    prep = result.prepared
    return [
        RunConfig(), result, prep, prep.panel, prep.degree, prep.ubiquity,
        result.solved[0], result.solved[1], result.trace,
        prep.proximity, core.similarity(prep.proximity),
        tables["k_s"], weights, series, series.trajectories[0],
        analytics.tertile_groups(
            tables["k_s"], panel, analytics.weighted_performance(panel, weights)),
        analytics.weights_evolution([weights]),
        emap, emap.splits[0], alignment, alignment.links[0],
        validate_panel(make_panel("y", ["a", "b"], ["g1", "g2"],
                                  [[1, 1], [1, 1]]))[0],
        parse_indicator_csv("entity,category,indicator,value\na,g,k,1\n", "y"),
    ]


def test_every_record_is_immutable(worked_3x2):
    records = built_records(worked_3x2)
    assert {type(r).__name__ for r in records} == RECORDS
    for record in records:
        assert isinstance(record, tuple)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_replace_copies_with_a_changed_field():
    table = rank_entities(["a", "b"], [1.0, 2.0], "k_s", "2024")
    renamed = table._replace(year="2025")
    assert (renamed.year, table.year) == ("2025", "2024")
    assert renamed.entities is table.entities
    assert renamed._asdict()["basis"] == "k_s"


RENAME_1_TO_2 = '{"renames": [{"from": ["a"], "to": ["b", "c"]}]}'
RENAME_MESSAGE = ("rename rule must be 1 -> 1, got "
                  "MapRule(sources=('a',), targets=('b', 'c'))")


def test_rule_shape_error_shows_the_rule():
    with pytest.raises(InputError) as exc:
        EntityMap.from_json(RENAME_1_TO_2)
    assert str(exc.value) == RENAME_MESSAGE


def test_rule_shape_error_through_compute(tmp_path, capsys):
    from panelrank.cli import main
    panel = tmp_path / "p.csv"
    panel.write_text("entity,g1,g2\na,1,2\nz,3,4\n", encoding="utf-8")
    later = tmp_path / "q.csv"
    later.write_text("entity,g1,g2\nb,1,2\nc,3,4\nz,5,6\n", encoding="utf-8")
    emap = tmp_path / "map.json"
    emap.write_text(RENAME_1_TO_2, encoding="utf-8")
    rc = main(["compute", "--panel", f"2019={panel}", "--panel",
               f"2020={later}", "--entity-map", f"2019->2020={emap}",
               "--out", str(tmp_path / "out"), "--charts", "none"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {RENAME_MESSAGE}\n"


COUNT_DATACLASSES = """
import dataclasses
built = []
process = dataclasses._process_class
def counted(cls, *args, **kwargs):
    if cls.__module__.startswith("panelrank"):
        built.append(cls.__name__)
    return process(cls, *args, **kwargs)
dataclasses._process_class = counted
import panelrank.cli
print(" ".join(sorted(built)))
"""


def test_import_builds_no_dataclass():
    # Each dataclass compiles its generated methods on every import.
    src = str(Path(panelrank.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", COUNT_DATACLASSES],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == []
