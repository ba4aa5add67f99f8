"""Per-layer spans taken from outside the library.

The tracer wraps every public function of the timed pencillab modules at
every module binding (kronecker_structure as bound in kcf, cli,
localization, numrange, matpoly and the package itself), so calls between
modules and inside one module both pass through a wrapper.  Nothing under
src/ changes.  Spans are kept in memory as (name, start, end, parent,
operation id, outcome) and written out when the benchmark ends.
"""

import functools
import importlib
import inspect
import json
import statistics
import time

# the library's layers; pencillab.oracles is test-only and not timed
LAYERS = ("cli", "fileio", "core", "kcf", "dh", "numrange", "localization", "matpoly")

# what counts as a useful outcome, for the ratio metrics
OUTCOMES = {
    "localization.eejjx_by_kronecker": bool,
    "localization.eejjx_falsify": lambda r: r is not None,
    "numrange.find_definite_combination": lambda r: r is not None,
    "numrange.sample_numerical_range": lambda r: r.sample_count,
    "matpoly.sample_rayleigh_roots": len,
}

# (metric name, unit); the metric's last part names how it is derived
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("fileio.load_pencil_file.busy_s", "s"),
    ("fileio.report_to_json.busy_s", "s"),
    ("fileio.points_to_csv.busy_s", "s"),
    ("fileio.atomic_write_text.busy_s", "s"),
    ("core.validate_posh.busy_s", "s"),
    ("core.probe_regular.calls", "count"),
    ("kcf.kronecker_structure.busy_s", "s"),
    ("kcf.kronecker_structure.calls", "count"),
    ("kcf.kronecker_structure.failed", "count"),
    ("dh.check_dh_equivalence.busy_s", "s"),
    ("localization.lhp_certificate.self_s", "s"),
    ("localization.eejjx_by_kronecker.busy_s", "s"),
    ("localization.eejjx_by_kronecker.proved_ratio", "ratio"),
    ("localization.eejjx_falsify.busy_s", "s"),
    ("localization.eejjx_falsify.witness_ratio", "ratio"),
    ("numrange.sample_numerical_range.busy_s", "s"),
    ("numrange.sample_numerical_range.samples_per_s", "samples/s"),
    ("numrange.definiteness_threshold.calls", "count"),
    ("numrange.definiteness_threshold.busy_s", "s"),
    ("numrange.find_definite_combination.busy_s", "s"),
    ("numrange.find_definite_combination.found_ratio", "ratio"),
    ("numrange.nocommon_chain_report.self_s", "s"),
    ("matpoly.sample_rayleigh_roots.roots_per_s", "roots/s"),
    ("matpoly.polynomial_index.busy_s", "s"),
    ("matpoly.cubic_stability.busy_s", "s"),
)


class Tracer:
    """Span recorder; install() wraps the library, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.op_id = None
        self.pass_id = None

    def _wrap(self, name, fn):
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = {"name": name, "parent": parent, "op": self.op_id, "pass": self.pass_id,
                    "outer": all(self.spans[i]["name"] != name for i in self._stack)}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["end"] = time.perf_counter()
                span["error"] = True
                raise
            finally:
                self._stack.pop()
            span["end"] = time.perf_counter()
            if outcome is not None:
                span["outcome"] = outcome(result)
            return result

        return wrapper

    def install(self):
        modules = [importlib.import_module(f"pencillab.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in [importlib.import_module("pencillab")] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


_EMPTY = {"busy": 0.0, "self": 0.0, "calls": 0, "failed": 0, "useful": 0}


def layer_metrics(spans, passes):
    """Median over traced passes of every PER_LAYER metric."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    per_pass = {p: {} for p in passes}
    for k, s in enumerate(spans):
        acc = per_pass.get(s["pass"])
        if acc is None:
            continue
        st = acc.setdefault(s["name"], dict(_EMPTY))
        st["calls"] += 1
        st["self"] += dur[k] - child[k]
        if s["outer"]:
            st["busy"] += dur[k]
        st["failed"] += int(bool(s.get("error")))
        st["useful"] += s.get("outcome") or 0
    values = {name: [] for name, _ in PER_LAYER}
    for acc in per_pass.values():
        for name, _ in PER_LAYER:
            func, kind = name.rsplit(".", 1)
            st = acc.get(func, _EMPTY)
            if kind == "busy_s":
                v = st["busy"]
            elif kind == "self_s":
                v = st["self"]
            elif kind == "calls":
                v = st["calls"]
            elif kind == "failed":
                v = st["failed"]
            elif kind.endswith("_ratio"):
                v = st["useful"] / st["calls"] if st["calls"] else 0.0
            else:  # samples_per_s, roots_per_s
                v = st["useful"] / st["busy"] if st["busy"] else 0.0
            values[name].append(float(v))
    return {name: statistics.median(v) for name, v in values.items()}
