"""Every name the benchmark tracer wraps exists on the package.

``perfbench/tracer.py`` replaces package functions by module attribute,
so a renamed or deleted function breaks the benchmark's traced runs
although the CLI runs fine. This test makes that a tier-1 failure. It is
also why ``core.similarity`` (with the ``SimilarityPair`` it returns)
and ``report.emit_heatmap`` stay, though the CLI no longer reaches them:
the tracer still wraps them by name, so they can go only once it stops.
``core.principal_eigenvector`` is the spectral route's one eigensolve,
which ``genepy_scores`` calls through the module attribute, so the
tracer's ``core.eigen`` span reads one call per spectral solve.
"""

import importlib.util
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
