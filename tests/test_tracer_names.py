"""Every name the benchmark tracer wraps exists on the package.

``perfbench/tracer.py`` replaces package functions by module attribute,
so a renamed or deleted function breaks the benchmark's traced runs
although the CLI runs fine. This test makes that a tier-1 failure. It is
also why ``core.similarity`` (with the ``SimilarityPair`` it returns)
stays, though the CLI no longer reaches it: the tracer still wraps it by
name, so it can go only once the tracer stops. The CLI draws each
heatmap with ``report.emit_heatmap`` and writes each file with one
``Path.write_text``, the two the tracer wraps as ``report.heatmap`` and
``cli.write``, so those spans count the CLI's heatmaps and writes.
``core.principal_eigenvector`` is the spectral route's one eigensolve,
which ``genepy_scores`` calls through the module attribute, so the
tracer's ``core.eigen`` span reads one call per spectral solve.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import panelrank
import panelrank.cli  # noqa: F401 - the tracer wraps attributes of cli too

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Patched by the tracer's ``install`` besides the names in ``LAYERS``.
ALSO_PATCHED = [("core", "genepy_scores"), ("report", "ramp_color")]


def load_tracer():
    """The tracer module, loaded by path: its top level imports only
    ``sys`` and ``time``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_exists():
    names = [pair for pairs in load_tracer().LAYERS.values()
             for pair in pairs] + ALSO_PATCHED
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(getattr(panelrank, module), attr, None))]
    assert names and missing == []


def test_spans_count_the_clis_heatmaps_and_writes(tmp_path, data_dir):
    # A traced run of the bundled dataset: one heatmap span per year, one
    # write span per file, and the bytes of those files.
    spans, out = tmp_path / "spans.json", tmp_path / "out"
    panels = [arg for year in ("2018", "2019", "2020", "2024") for arg in
              ("--panel", f"{year}={data_dir / f'panel_{year}.csv'}")]
    run = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "compute", *panels,
         "--entity-map", f"2019->2020={data_dir / 'map_2019_2020.json'}",
         "--charts", "all", "--out", str(out)],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    doc = json.loads(spans.read_text())
    names = [span[0] for span in doc["spans"]]
    files = list(out.iterdir())
    assert names.count("report.heatmap") == 4
    assert names.count("cli.write") == len(files) == 44
    assert doc["counts"]["cli.write.bytes"] == sum(
        path.stat().st_size for path in files)
