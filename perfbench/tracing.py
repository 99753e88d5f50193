"""Spans and counters recorded from outside the library.

Wrappers replace public functions at the module attributes where the library
looks them up (``ctxdl.cli.parse``, ``ctxdl.verify.find_model``,
``ctxdl.strategies.contextualize`` ...), so calls made inside the library go
through them without any change under ``src/``. They are installed only
around traced passes and removed afterwards.

A span is ``[name, start, end, parent, cell]``; a layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name). Each library function is wrapped at every
# module that imports it, because ``from x import f`` copies the binding.
SPAN_SITES = [
    ("cli", "run", "cli.run"),
    ("cli", "parse", "textio.parse"),
    ("cli", "serialize", "textio.serialize"),
    ("cli", "find_model", "search.find_model"),
    ("cli", "check_entailment", "search.check_entailment"),
    ("cli", "contextualize", "strategies.contextualize"),
    ("cli", "combine_contexts", "strategies.combine"),
    ("cli", "check_soundness", "verify.check"),
    ("cli", "check_inconsistency_preservation", "verify.check"),
    ("cli", "check_entailment_preservation", "verify.check"),
    ("verify", "check_soundness", "verify.check"),
    ("verify", "check_inconsistency_preservation", "verify.check"),
    ("verify", "check_entailment_preservation", "verify.check"),
    ("verify", "find_model", "search.find_model"),
    ("verify", "check_entailment", "search.check_entailment"),
    ("verify", "contextualize", "strategies.contextualize"),
    ("strategies", "contextualize", "strategies.contextualize"),
    ("strategies", "relativize_ontology", "relativize.relativize"),
    ("textio", "validate_annotation", "annotation.validate"),
]

# Hot inner calls of the search: counted, never timed.
COUNT_SITES = [
    ("search", "satisfies", "semantics.satisfies_calls"),
    ("search", "eval_concept", "semantics.eval_calls"),
    ("search", "eval_role", "semantics.eval_calls"),
]

LAYERS = ["cli", "verify", "strategies", "relativize", "annotation", "textio", "search"]

# Per-layer metrics: name -> unit. The order is the order of BENCHMARK.json.
METRIC_UNITS = {
    "search.find_model_s": "s",
    "search.check_entailment_s": "s",
    "search.calls": "count",
    "search.budget_outs": "count",
    "search.explored_at_budget_out": "count",
    "search.witness_size": "elements",
    "semantics.satisfies_calls": "count",
    "semantics.eval_calls": "count",
    "strategies.contextualize_s": "s",
    "strategies.combine_s": "s",
    "strategies.calls": "count",
    "strategies.axioms_in": "count",
    "strategies.axioms_out": "count",
    "relativize.relativize_s": "s",
    "textio.parse_s": "s",
    "textio.parse_chars": "count",
    "textio.serialize_s": "s",
    "textio.serialize_chars": "count",
    "annotation.validate_s": "s",
    "cli.run_s": "s",
    "cli.self_s": "s",
    "verify.check_s": "s",
    "verify.checks": "count",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "harness.share": "ratio",
    "trace.traced_suite_s": "s",
    "trace.untraced_suite_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans of every traced pass, kept in memory, and counters of the current one."""

    def __init__(self, mods):
        self.mods = mods
        self.budget_error = mods.semantics.BoundTooLargeError
        self.spans: list[list] = []
        self.finished: list[list[list]] = []  # spans of earlier traced passes
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cell = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span_name in SPAN_SITES:
            self._replace(mod_name, attr, lambda fn, n=span_name: self._timed(n, fn))
        for mod_name, attr, counter in COUNT_SITES:
            self._replace(mod_name, attr, lambda fn, c=counter: self._counted(c, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, mod_name: str, attr: str, make) -> None:
        module = getattr(self.mods, mod_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        # Only the search span counts a budget-out; outer spans see it pass by.
        budget_error = self.budget_error if name.startswith("search.") else ()

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.cell]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                span[2] = clock()
                counts["search.budget_outs"] += 1
                counts["search.explored_at_budget_out"] += exc.explored
                raise
            except BaseException:
                span[2] = clock()
                raise
            finally:
                stack.pop()
            span[2] = clock()
            _count_call(counts, name, args, result)
            return result

        return wrapper

    # -- per-pass results -------------------------------------------------

    def reset(self) -> None:
        if self.spans:
            self.finished.append(self.spans)
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def pass_metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass just traced (wall time ``pass_s``)."""
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _cell in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, _parent, _cell) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        layer_self: Counter = Counter()
        for name, value in self_time.items():
            layer_self[name.split(".")[0]] += value
        counts = self.counts
        witnesses = counts["search.witnesses"]
        metrics = {
            "search.find_model_s": self_time["search.find_model"],
            "search.check_entailment_s": self_time["search.check_entailment"],
            "search.calls": calls["search.find_model"] + calls["search.check_entailment"],
            "search.budget_outs": counts["search.budget_outs"],
            "search.explored_at_budget_out": counts["search.explored_at_budget_out"],
            "search.witness_size": counts["search.witness_size"] / witnesses if witnesses else 0.0,
            "semantics.satisfies_calls": counts["semantics.satisfies_calls"],
            "semantics.eval_calls": counts["semantics.eval_calls"],
            "strategies.contextualize_s": self_time["strategies.contextualize"],
            "strategies.combine_s": self_time["strategies.combine"],
            "strategies.calls": calls["strategies.contextualize"] + calls["strategies.combine"],
            "strategies.axioms_in": counts["strategies.axioms_in"],
            "strategies.axioms_out": counts["strategies.axioms_out"],
            "relativize.relativize_s": self_time["relativize.relativize"],
            "textio.parse_s": self_time["textio.parse"],
            "textio.parse_chars": counts["textio.parse_chars"],
            "textio.serialize_s": self_time["textio.serialize"],
            "textio.serialize_chars": counts["textio.serialize_chars"],
            "annotation.validate_s": self_time["annotation.validate"],
            "cli.run_s": total["cli.run"],
            "cli.self_s": self_time["cli.run"],
            "verify.check_s": self_time["verify.check"],
            "verify.checks": calls["verify.check"],
        }
        for layer in LAYERS:
            metrics[f"{layer}.share"] = layer_self[layer] / pass_s
        metrics["harness.share"] = 1.0 - sum(layer_self.values()) / pass_s
        return metrics

    def dump(self, path: Path) -> None:
        """Write the spans of every traced pass to ``path`` as JSON lines."""
        with path.open("w", encoding="utf-8") as fh:
            for index, spans in enumerate([*self.finished, self.spans]):
                for name, start, end, parent, cell in spans:
                    record = {"pass": index, "name": name, "start": start, "end": end,
                              "parent": parent, "cell": cell}
                    fh.write(json.dumps(record) + "\n")


def _count_call(counts: Counter, name: str, args: tuple, result) -> None:
    """Work counts taken at a span boundary from the call's arguments and result."""
    if name == "textio.parse":
        counts["textio.parse_chars"] += len(args[0])
    elif name == "textio.serialize":
        counts["textio.serialize_chars"] += len(result)
    elif name == "strategies.contextualize":
        annotated = args[1]
        ontology = getattr(annotated, "ontology", None)
        counts["strategies.axioms_in"] += len(ontology.axioms) if ontology is not None else 1
        counts["strategies.axioms_out"] += len(result.axioms)
    elif name in ("search.find_model", "search.check_entailment"):
        model = getattr(result, "model", None) or getattr(result, "countermodel", None)
        if model is not None:
            counts["search.witnesses"] += 1
            counts["search.witness_size"] += model.size
