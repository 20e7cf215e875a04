"""Spans around llab's public entry points, recorded from outside the package.

``Tracer.install`` replaces each entry point listed in ``ENTRY_POINTS`` with
a wrapper, in every llab module that holds it (``from .core import
parse_trace`` in ``llab.cli`` binds its own name, so that binding is
replaced too). A wrapper records a span only while a traced iteration is
open, so the harness's own checks never land in the numbers.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

from .arith import (
    MIN_BEYOND,
    Span,
    level_name,
    n_beyond,
    percentile,
    self_times,
    tail_level,
)

#: (span name, module, function) of each wrapped entry point. The span's
#: layer is the part of its name before the first dot.
ENTRY_POINTS = (
    ("cli", "llab.cli", "main"),
    ("core.parse", "llab.core", "parse_trace"),
    ("core.write", "llab.core", "write_trace"),
    ("core.validate", "llab.core", "validate_trace"),
    ("synth.generate", "llab.synth", "generate"),
    ("segment.detect_phase", "llab.segment", "detect_phase"),
    ("segment.segment_trace", "llab.segment", "segment_trace"),
    ("segment.period_matrix", "llab.segment", "period_matrix"),
    ("segment.stable_core", "llab.segment", "stable_core"),
    ("segment.profile", "llab.segment", "mean_centered_profile"),
    ("segment.profile_from_trace", "llab.segment", "profile_from_trace"),
    ("stats.fit", "llab.stats", "fit_by_name"),
    ("classify.label", "llab.classify", "label_period"),
    ("classify.fit_grid", "llab.classify", "fit_grid"),
    ("classify.quantile_mse", "llab.classify", "quantile_mse_from_grid"),
    ("classify.auprc", "llab.classify", "auprc_from_grid"),
    ("classify.dsa", "llab.classify", "dsa_eval"),
    ("probe.client", "llab.probe", "run_client"),
)

#: Root span the harness opens around each traced iteration.
ROOT = "bench.iteration"

LAYERS = ("core", "synth", "segment", "stats", "classify", "cli", "probe")
CLI_STEPS = ("synth", "validate", "segment", "profile", "fit", "evaluate", "dsa",
             "figure", "probe-client")
FAMILIES = ("uniform", "gaussian", "gmm3", "empirical", "gpd")

#: Spans whose durations add up to ``segment.slice_s``.
SLICE_SPANS = ("segment.segment_trace", "segment.period_matrix", "segment.stable_core")


def _notes(name: str, args, kwargs, out) -> dict:
    """Facts read off a call's arguments and result (None when it raised)."""
    if name == "stats.fit":
        meta = getattr(out, "fit_meta", None)
        return {"family": args[0] if args else kwargs.get("name"),
                "converged": meta is None or meta.converged}
    if name == "segment.detect_phase" and out is not None:
        return {"candidates": len(out.candidates)}
    return {}


class Tracer:
    """Records spans of wrapped llab calls while an iteration is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: list[dict] = []
        self._open: list[tuple[int, str, float, int | None]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._open)

    def begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else None
        self.spans.append(None)  # slot kept so a child can name its parent
        self.notes.append({})
        self._open.append((len(self.spans) - 1, name, time.perf_counter(), parent))

    def end(self, **notes) -> None:
        i, name, start, parent = self._open.pop()
        self.spans[i] = Span(name, start, time.perf_counter(), parent)
        self.notes[i] = notes

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name
            if name == "cli":
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.{argv[0] if argv else '?'}"
            self.begin(label)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                self.end(error=type(e).__name__, **_notes(name, args, kwargs, None))
                raise
            self.end(**_notes(name, args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        """Wrap every entry point in every loaded llab module that binds it."""
        mods = [m for k, m in sys.modules.items() if k == "llab" or k.startswith("llab.")]
        for name, modname, attr in ENTRY_POINTS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig)
            for m in mods:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapped)
                    self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- reporting ------------------------------------------------------

    def report(self) -> tuple[dict, list[str]]:
        """Per-layer metrics per traced iteration, and lines describing them."""
        spans, notes = self.spans, self.notes
        selfs = self_times(spans)
        roots = [s for s in spans if s.name == ROOT]
        n_iter = max(1, len(roots))
        dur = defaultdict(float)
        count = defaultdict(int)
        self_by_name = defaultdict(float)
        for s, st in zip(spans, selfs):
            dur[s.name] += s.duration
            count[s.name] += 1
            self_by_name[s.name] += st

        m: dict = {}
        lines: list[str] = []

        def put(key, value, unit):
            m[key] = (value, unit)

        put("core.parse_s", dur["core.parse"] / n_iter, "s")
        put("core.parse_calls", count["core.parse"] / n_iter, "count")
        put("core.write_s", dur["core.write"] / n_iter, "s")
        for step in CLI_STEPS:
            put(f"cli.step_s.{step}", dur[f"cli.{step}"] / n_iter, "s")
        root_total = sum(s.duration for s in roots)
        put("cli.parse_share", dur["core.parse"] / root_total if root_total else 0.0, "ratio")
        put("synth.generate_s", dur["synth.generate"] / n_iter, "s")
        put("segment.detect_phase_s", dur["segment.detect_phase"] / n_iter, "s")
        put("segment.slice_s", sum(dur[k] for k in SLICE_SPANS) / n_iter, "s")
        put("segment.profile_s", dur["segment.profile"] / n_iter, "s")
        cands = sum(n.get("candidates", 0) for n in notes)
        put("segment.candidates", cands / n_iter, "count")

        cells = defaultdict(list)
        failed = defaultdict(int)
        capped = 0
        for s, n in zip(spans, notes):
            if s.name != "stats.fit":
                continue
            fam = n.get("family")
            cells[fam].append(s.duration * 1e3)
            if "error" in n:
                failed[fam] += 1
            elif str(fam).startswith("gmm") and not n.get("converged", True):
                capped += 1
        for fam in FAMILIES:
            ms = cells.get(fam, [])
            n = len(ms)
            enough = n > 0 and n_beyond(n, 0.9) >= MIN_BEYOND
            put(f"stats.fit_cell_p50_ms.{fam}", statistics.median(ms) if ms else 0.0, "ms")
            put(f"stats.fit_cell_p90_ms.{fam}", percentile(ms, 0.9) if enough else 0.0, "ms")
            put(f"stats.fit_cells.{fam}", n / n_iter, "count")
            put(f"stats.fit_failed.{fam}", failed[fam] / n_iter, "count")
            if n:
                level = tail_level(n)
                tail = (f"highest level with {MIN_BEYOND} beyond: {level_name(level)} "
                        f"{percentile(ms, level):.3f} ms, {n_beyond(n, level)} beyond"
                        if level else f"no level has {MIN_BEYOND} cells beyond it")
                lines.append(f"stats {fam}: {n} cells in {len(roots)} traced units, "
                             f"p50 {statistics.median(ms):.3f} ms, "
                             f"p90 {'reported' if enough else 'not reported'}; {tail}")
        put("stats.gmm_iter_capped", capped / n_iter, "count")

        put("classify.fit_grid_s", dur["classify.fit_grid"] / n_iter, "s")
        put("classify.score_s",
            (dur["classify.quantile_mse"] + dur["classify.auprc"]) / n_iter, "s")
        put("classify.dsa_s", dur["classify.dsa"] / n_iter, "s")

        by_layer = defaultdict(float)
        for name, st in self_by_name.items():
            by_layer[name.split(".")[0]] += st
        for layer in LAYERS:
            put(f"self_s.{layer}", by_layer[layer] / n_iter, "s")
        put("self_s.unattributed", self_by_name[ROOT] / n_iter, "s")

        for name in sorted(self_by_name, key=self_by_name.get, reverse=True):
            lines.append(f"span {name}: {count[name]} calls, "
                         f"total {dur[name]:.4f} s, self {self_by_name[name]:.4f} s")
        return m, lines
