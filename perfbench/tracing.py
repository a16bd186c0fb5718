"""Layer spans recorded from outside the program.

``Tracer.install`` rebinds icc_kit's layer entry points, in the modules
that call them, to timing wrappers; ``uninstall`` restores them. Spans
(name, op id, parent, start, end, work counts) stay in memory until the
run ends. An entry point that a later refactor removed is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import resource
import time

# (module whose global is rebound, attribute, layer span name)
ENTRY_POINTS = [
    ("icc_kit.cli", "sample_code", "codes.sample_code"),
    ("icc_kit.cli", "random_poly", "poly.random_poly"),
    ("icc_kit.cli", "storage_phase", "protocol.storage_phase"),
    ("icc_kit.cli", "computation_phase", "protocol.computation_phase"),
    ("icc_kit.cli", "evaluate", "poly.evaluate"),
    ("icc_kit.protocol", "key_gen", "codes.key_gen"),
    ("icc_kit.protocol", "encode", "codes.encode"),
    ("icc_kit.protocol", "shift", "codes.shift"),
    ("icc_kit.protocol", "trivial_superset", "rm.trivial_superset"),
    ("icc_kit.protocol", "evaluate_batch", "poly.evaluate_batch"),
    ("icc_kit.protocol", "select_available_infoset", "rm.select_available_infoset"),
    ("icc_kit.rm", "decode_at_key", "rm.decode_at_key"),
    ("icc_kit.codes", "mat_vec_left", "gf.mat_vec_left"),
    ("icc_kit.infometrics", "mutual_information", "infometrics.mutual_information"),
    ("icc_kit.infometrics", "pushforward_encode", "infometrics.pushforward_encode"),
    ("icc_kit.infometrics", "conditional_encoded", "infometrics.conditional_encoded"),
    ("icc_kit.infometrics", "check_entropy_gap", "infometrics.check_entropy_gap"),
    ("icc_kit.infometrics", "random_dirichlet", "infometrics.random_dirichlet"),
] + [
    ("icc_kit.infometrics", attr, "infometrics.divergences")
    for attr in ("v_distance", "v_p_distance", "kl_divergence", "renyi_divergence",
                 "pinsker_check", "check_divergence_distance_relation")
] + [
    ("icc_kit.infometrics", attr, "infometrics.bounds")
    for attr in ("renyi_entropy", "marginal", "keysize_lower_bound", "leakage_bounds_both")
]


def _enumeration(args, kwargs, result):
    dist, code = args[0], args[1]
    return {"infometrics.joint_outcomes": dist.q ** (dist.n + code.m),
            "infometrics.key_shifts": dist.q ** code.m}


# Work counts read off a call's arguments and result.
COUNTERS = {
    "poly.random_poly": lambda a, k, r: {"poly.terms": len(r.terms)},
    "poly.evaluate_batch": lambda a, k, r: {"poly.evaluate_batch.term_evals": len(a[1]) * len(a[0].terms)},
    "rm.trivial_superset": lambda a, k, r: {"rm.dimension": a[0].dimension},
    "protocol.storage_phase": lambda a, k, r: {"protocol.workers": len(r.admin.shares)},
    "protocol.computation_phase": lambda a, k, r: {"protocol.download_symbols": a[0].last_answer_count},
    "infometrics.mutual_information": _enumeration,
    "infometrics.pushforward_encode": _enumeration,
}
RSS_LAYERS = {"poly.random_poly", "rm.trivial_superset", "infometrics.mutual_information"}


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# A span is a list with these fields; lists keep large traces small.
SPAN_FIELDS = ("name", "op", "parent", "start", "end", "counts", "rss_growth_mb")
NAME, OP, PARENT, START, END, COUNTS, RSS = range(len(SPAN_FIELDS))


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.op_wall = {}  # op id -> wall time the cli layer's self time is taken from
        self.import_s = []  # one per process that imported icc_kit.cli
        self.processes = 0
        self.absent = set()
        self._stack = []
        self._originals = []

    def install(self) -> None:
        for module_name, attr, name in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        track_rss = name in RSS_LAYERS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else None, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            rss_before = maxrss_mb() if track_rss else 0.0
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if track_rss:
                span[RSS] = maxrss_mb() - rss_before
            if counter is not None:
                try:
                    span[COUNTS] = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.absent.add(f"counts of {name}")
            return result

        return wrapper

    def ingest(self, child: dict, op) -> None:
        """Add the spans a traced child process wrote for one op."""
        offset = len(self.spans)
        for span in child["spans"]:
            span[OP] = op
            if span[PARENT] is not None:
                span[PARENT] += offset
            self.spans.append(span)
        self.op_wall[op] = child["main_s"]
        self.import_s.append(child["import_s"])
        self.processes += 1
        self.absent.update(child["absent"])

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, after a header line naming the fields."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)

    def layer_metrics(self) -> dict:
        """Per-op means over traced ops (op id >= 0).

        ``.s`` is busy time (a span nested in one of the same name is not
        counted twice), ``.self_s`` is busy time minus wrapped children,
        ``.calls`` a call count. ``rss_growth_mb`` is the rise of
        ``ru_maxrss`` across calls, summed per process (warm-up included,
        since a high-water mark rises only once) and averaged over processes.
        """
        ops = [op for op in self.op_wall if op >= 0]
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        totals = {"cli.self_s": sum(self.op_wall[op] for op in ops)}
        rss = {}

        def add(table, key, value):
            table[key] = table.get(key, 0.0) + value

        for index, span in enumerate(self.spans):
            name = span[NAME]
            if span[RSS] is not None:
                add(rss, f"{name}.rss_growth_mb", span[RSS])
            if span[OP] is None or span[OP] < 0:
                continue
            duration = span[END] - span[START]
            if not self._nested_in_same(index):
                add(totals, f"{name}.s", duration)
            add(totals, f"{name}.self_s", duration - child_time[index])
            add(totals, f"{name}.calls", 1)
            for key, value in (span[COUNTS] or {}).items():
                add(totals, key, value)
            if span[PARENT] is None:
                add(totals, "cli.self_s", -duration)
        metrics = {key: value / max(1, len(ops)) for key, value in totals.items()}
        metrics.update({key: value / max(1, self.processes) for key, value in rss.items()})
        if self.import_s:
            metrics["cli.import_s"] = sum(self.import_s) / len(self.import_s)
        return metrics

    def _nested_in_same(self, index: int) -> bool:
        name = self.spans[index][NAME]
        parent = self.spans[index][PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False
