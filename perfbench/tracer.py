"""Run ``panelrank compute`` in-process with a span around each layer call.

Usage: python3 perfbench/tracer.py SPANS_JSON compute [compute flags...]

The package's public functions are wrapped at the module attributes the
CLI reaches them through, so nothing under ``src/`` changes. Spans
(name, start, end, parent) and counters are kept in memory and written
to SPANS_JSON once the CLI returns. tracemalloc runs only inside the
spectral solve, whose peak it reports. The exit code is the CLI's.
"""

from __future__ import annotations

import sys
import time

perf = time.perf_counter

# Span name -> (module, attribute) pairs wrapped under that name. Module
# names are relative to the panelrank package.
LAYERS = {
    "panel.parse": [("cli", "parse_panel")],
    "panel.aggregate": [("cli", "parse_indicator_csv"),
                        ("cli", "aggregate_indicators")],
    "panel.align": [("analytics", "align_rosters")],
    "core.prep": [("core", "degree_index"), ("core", "adjusted_ubiquity"),
                  ("core", "proximity")],
    "core.similarity": [("core", "similarity")],
    "core.eigen": [("core", "principal_eigenvector")],
    "core.spectral": [("core", "genepy_scores")],
    "core.fitness": [("core", "run_fitness")],
    "analytics.evolution": [("analytics", "rank_evolution")],
    "analytics.rank": [("analytics", "rank_entities")],
    "analytics.spearman": [("analytics", "spearman")],
    "analytics.tertile": [("analytics", "tertile_groups")],
    "analytics.weights": [("analytics", "goal_weights"),
                          ("analytics", "weighted_performance"),
                          ("analytics", "weights_evolution")],
    "report.heatmap": [("report", "emit_heatmap")],
    "report.weighted_lines": [("report", "emit_weighted_lines")],
    "report.table": [("report", "emit_table")],
    "report.rank_bump": [("report", "emit_rank_bump")],
    "report.other": [("report", "emit_bipartite"), ("report", "emit_weight_bars"),
                     ("report", "emit_grouped_bars")],
}


class Recorder:
    """Spans and counters of one traced CLI run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.open: list[int] = []
        self.counts = {"report.ramp_color.calls": 0, "cli.write.bytes": 0,
                       "core.fitness.steps": 0,
                       "core.similarity.bytes_computed": 0}
        self.spectral_peak_bytes = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf(), None, self.open[-1] if self.open else None])
        self.open.append(index)
        return index

    def end(self, index: int) -> None:
        self.open.pop()
        self.spans[index][2] = perf()

    def span(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result
        return traced


def install(recorder: Recorder, package) -> None:
    """Replace each layer function of ``package`` by a recording wrapper."""
    import pathlib
    import tracemalloc

    modules = {name: getattr(package, name) for name in ("cli", "core", "analytics",
                                                         "report")}
    counts = recorder.counts

    def similarity_bytes(args, pair):
        counts["core.similarity.bytes_computed"] += 8 * (
            pair.entity_similarity.size + pair.category_similarity.size)

    def fitness_steps(args, result):
        counts["core.fitness.steps"] += result[1].steps

    after = {"similarity": similarity_bytes, "run_fitness": fitness_steps}
    for name, targets in LAYERS.items():
        for module, attr in targets:
            owner = modules[module]
            setattr(owner, attr, recorder.span(name, getattr(owner, attr),
                                               after.get(attr)))

    spectral = modules["core"].genepy_scores

    def genepy_with_peak(*args, **kwargs):
        tracemalloc.start()
        try:
            return spectral(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            recorder.spectral_peak_bytes = max(recorder.spectral_peak_bytes, peak)

    modules["core"].genepy_scores = genepy_with_peak

    ramp_color = modules["report"].ramp_color

    def counted_ramp_color(*args, **kwargs):
        counts["report.ramp_color.calls"] += 1
        return ramp_color(*args, **kwargs)

    modules["report"].ramp_color = counted_ramp_color

    def written_bytes(args, result):
        counts["cli.write.bytes"] += args[0].stat().st_size

    pathlib.Path.write_text = recorder.span("cli.write", pathlib.Path.write_text,
                                            written_bytes)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    # Nothing else is imported before this span, so it times panelrank's
    # own import; the tracer's remaining imports come after it.
    recorder = Recorder()
    index = recorder.begin("import")
    import panelrank
    import panelrank.cli
    recorder.end(index)

    install(recorder, panelrank)
    start = perf()
    code = panelrank.cli.main(cli_args)
    main_span = [start, perf()]

    import json
    doc = {"exit": code, "main": main_span, "spans": recorder.spans,
           "counts": recorder.counts,
           "spectral_peak_bytes": recorder.spectral_peak_bytes}
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
