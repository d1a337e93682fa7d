"""Spans and counters for the traced run, installed from outside the program.

``Tracer.install`` wraps, in place, the public functions and methods of
the package's modules.  Each call of a wrapped function records a span
(name, start, end, parent) in memory; ``write`` dumps them when the run
ends.  A layer's self time is the time of its spans minus the time their
child spans cover.

A few functions run once per label or matrix entry; a span each would
cost more than their work, so they are not wrapped (``LEAF``) and their
time counts toward the enclosing span.  The ones whose call counts the
benchmark reports are wrapped with a bare counter instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("linalg", "laws", "grading", "diffhopf", "semidirect", "pareigis", "chains")

LEAF = {
    "linalg.atom", "linalg.left", "linalg.right", "linalg.factors",
    "linalg.label_key", "linalg.show_label", "linalg.label_to_json",
    "linalg.label_from_json", "linalg.Vec", "linalg.Space", "linalg.LinMap",
    "linalg.Counterexample", "linalg.CheckResult",
    "grading.monomial", "grading.degree_of", "grading.Bicharacter",
    "grading.GradedModule",
    "pareigis.monomial", "pareigis.word_of", "pareigis.rewrite_once",
    "chains.mat", "chains.zeros", "chains.eye", "chains.is_zero", "chains.mat_eq",
    "chains.ChainComplex.rank", "chains.ChainComplex.d",
    "chains.ChainComplex.degrees", "chains.ChainComplex.total_rank",
    "chains.ChainComplex.basis", "chains.ChainMap.block", "chains.GradedMap.block",
    "chains.Bicomplex.rank", "chains.Bicomplex.vertical", "chains.Bicomplex.second",
    "chains.Bicomplex.cells", "chains.Bicomplex.basis",
    "diffhopf.cyclic_tensor",
}

COUNTED = {
    "linalg.pair": "linalg.pair_calls",
    "linalg.split_label": "linalg.split_label_calls",
    "pareigis.normalize_word": "pareigis.normalize_word_calls",
}

SUITE_LAWS = (
    "associativity", "unit-left", "unit-right", "coassociativity",
    "counit-left", "counit-right", "epsilon-eta", "epsilon-mu", "delta-eta",
    "interchange", "antipode-left", "antipode-right",
    "coelement-ax1", "coelement-ax2", "coelement-ax3",
    "comodule-counit", "comodule-coassociativity", "comodule-morphism",
)

# per-layer time metrics: the outermost spans of these names
SPAN_TIMES = {
    "linalg.window_check_s": ("linalg.equal_on_window",),
    "grading.coelement_check_s": ("laws.check_coelement",),
    "diffhopf.build_s": ("diffhopf.build_differential_hopf",),
    "semidirect.product_s": ("semidirect.semidirect_product",),
    "semidirect.antipode_s": ("semidirect.semidirect_antipode",),
    "semidirect.comparison_s": ("check:comparison",),
    "pareigis.identify_s": ("pareigis.identify_semidirect",),
    "pareigis.transport_s": ("pareigis.chain_to_comodule", "pareigis.comodule_to_chain"),
    "chains.tensor_s": ("check:tensor",),
    "chains.curry_s": ("check:curry",),
    "chains.triangle_s": ("check:triangle",),
    "chains.comonad_s": ("check:comonad",),
    "chains.bicomplex_s": ("chains.second_differential",),
}

# per-layer call counts: the number of spans of these names
SPAN_COUNTS = {
    "laws.suite_runs": "laws.check_bialgebra_laws",
    "semidirect.product_builds": "semidirect.semidirect_product",
    "diffhopf.builds": "diffhopf.build_differential_hopf",
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []     # [name id, start, end, parent index or -1]
        self.stack = []
        self.counts = {key: [0] for key in (
            "linalg.apply_calls", "linalg.memo_hits", "linalg.memo_entries",
            "linalg.maps_built", "linalg.vec_ops", *COUNTED.values())}
        self.law_labels = {}
        self.law_seconds = {}
        self._undo = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn):
        "Run fn() inside a span called ``name``."
        return self._spanned(name, fn)()

    def _spanned(self, name, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _counted(self, key, fn):
        cell = self.counts[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _window_check(self, fn):
        "equal_on_window: a span, plus labels and seconds per law."
        spanned = self._spanned("linalg.equal_on_window", fn)
        labels, seconds, clock = self.law_labels, self.law_seconds, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = spanned(*args, **kwargs)
            law = kwargs.get("law", args[3] if len(args) > 3 else "")
            law = law.split("[")[0]
            labels[law] = labels.get(law, 0) + result.instances
            seconds[law] = seconds.get(law, 0.0) + clock() - start
            return result
        return wrapper

    def _apply(self, fn):
        "LinMap.apply: calls, answers served from the per-label memo, labels stored."
        calls = self.counts["linalg.apply_calls"]
        hits = self.counts["linalg.memo_hits"]
        stored = self.counts["linalg.memo_entries"]

        @functools.wraps(fn)
        def apply(m, label):
            calls[0] += 1
            cache = getattr(m, "_cache", None)
            if cache is None:
                return fn(m, label)
            if label in cache:
                hits[0] += 1
                return fn(m, label)
            out = fn(m, label)
            if label in cache:
                stored[0] += 1
            return out
        return apply

    # -- installing -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hopfchains" or n.startswith("hopfchains."))]
        for layer in LAYERS:
            mod = sys.modules["hopfchains." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if name in LEAF:
                    continue
                if inspect.isfunction(obj):
                    self._replace_everywhere(modules, obj, self._wrap_function(name, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(name, obj)
        linalg = sys.modules["hopfchains.linalg"]
        self._set(linalg.LinMap, "apply", self._apply(linalg.LinMap.apply))
        self._set(linalg.LinMap, "__init__",
                  self._counted("linalg.maps_built", linalg.LinMap.__init__))
        for op in ("__add__", "__rmul__", "tensor"):
            self._set(linalg.Vec, op, self._counted("linalg.vec_ops", getattr(linalg.Vec, op)))

    def _wrap_function(self, name, fn):
        if name in COUNTED:
            return self._counted(COUNTED[name], fn)
        if name == "linalg.equal_on_window":
            return self._window_check(fn)
        return self._spanned(name, fn)

    def _wrap_class(self, name, cls):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and attr != "__init__":
                continue
            full = name if attr == "__init__" else "%s.%s" % (name, attr)
            if full not in LEAF:
                self._set(cls, attr, self._spanned(full, obj))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._set(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting --------------------------------------------------------

    def _outermost_seconds(self, names):
        ids = {self._ids[n] for n in names if n in self._ids}
        total = 0.0
        for rec in self.spans:
            if rec[0] not in ids:
                continue
            parent = rec[3]
            while parent >= 0 and self.spans[parent][0] not in ids:
                parent = self.spans[parent][3]
            if parent < 0:
                total += rec[2] - rec[1]
        return total

    def self_seconds(self):
        "Self time per layer; root spans opened by the benchmark count as 'bench'."
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, rec in enumerate(self.spans):
            name = self.names[rec[0]]
            layer = "bench" if name.startswith("check:") else name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (rec[2] - rec[1]) - covered[i]
        return out

    def metrics(self):
        "Per-layer values as {name: (value, unit)}."
        c = {k: v[0] for k, v in self.counts.items()}
        calls = c["linalg.apply_calls"]
        out = {
            "linalg.apply_calls": (calls, "count"),
            "linalg.memo_hit_ratio": (c["linalg.memo_hits"] / calls if calls else 0.0, "ratio"),
            "linalg.memo_entries": (c["linalg.memo_entries"], "count"),
            "linalg.maps_built": (c["linalg.maps_built"], "count"),
            "linalg.pair_calls": (c["linalg.pair_calls"], "count"),
            "linalg.split_label_calls": (c["linalg.split_label_calls"], "count"),
            "linalg.vec_ops": (c["linalg.vec_ops"], "count"),
            "linalg.labels_checked": (sum(self.law_labels.values()), "count"),
            "pareigis.normalize_word_calls": (c["pareigis.normalize_word_calls"], "count"),
        }
        for law in SUITE_LAWS:
            labels, secs = self.law_labels.get(law, 0), self.law_seconds.get(law, 0.0)
            out["laws.%s.labels_per_s" % law] = (labels / secs if secs else 0.0, "1/s")
        for metric, names in SPAN_TIMES.items():
            out[metric] = (self._outermost_seconds(names), "s")
        for metric, name in SPAN_COUNTS.items():
            nid = self._ids.get(name)
            out[metric] = (sum(1 for rec in self.spans if rec[0] == nid), "count")
        selfs = self.self_seconds()
        for layer in LAYERS:
            out["%s.self_s" % layer] = (selfs.get(layer, 0.0), "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path):
        "One JSON line of span names, then one line per span."
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
