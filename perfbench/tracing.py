"""Outside-in tracing of cispectra's layers.

`Tracer.install()` replaces each public function of the layer modules, in
every cispectra module namespace that binds it, with a wrapper that records
a span: kind, start, end, parent span and request id.  A few methods that
carry a layer's work are wrapped on their class.  Spans stay in memory
until `save()`; `layer_metrics()` derives the per-layer figures.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("ptable", "cyclotomic", "spectral", "reference", "cli")
# Plumbing called once per tuple or table point.  It carries no metric, and
# wrapping it would make the traced run mostly measure the tracer.
UNTRACED = {"digit_rows", "index_of", "digits_of", "evaluate_terms"}


def _tuples_scanned(args, result) -> int:
    """Lexicographic rank of the returned witness plus one, or n!/(n-m)!."""
    f, m = args[0], args[1]
    if result is None:
        return math.perm(f.n, m)
    rank, free = 0, list(range(1, f.n + 1))
    for pos, v in enumerate(result.indices):
        rank += free.index(v) * math.perm(f.n - pos - 1, m - pos - 1)
        free.remove(v)
    return rank + 1


def _subsets_scanned(args, result) -> int:
    """Rank of the witness subset among combinations(range(1, n+1), m) plus
    one, or C(n, m) when every restriction is balanced."""
    f, m = args[0], args[1]
    if result is None:
        return math.comb(f.n, m)
    subset, rank, prev = result[0], 0, 0
    for pos, v in enumerate(subset):
        for skipped in range(prev + 1, v):
            rank += math.comb(f.n - skipped, m - pos - 1)
        prev = v
    return rank + 1


def _table_size(args, result) -> int:
    return args[0].size


# (module, class, attribute, work) for methods traced on their class.
METHODS = (
    ("ptable", "PFunction", "__init__", _table_size),
    ("cyclotomic", "CycloElement", "from_root_counts", None),
    ("spectral", "SpectrumDump", "compute", None),
    ("spectral", "SpectrumDump", "to_json", None),
)
WORK = {
    "spectral.first_failing_tuple": _tuples_scanned,
    "spectral.first_unbalanced_restriction": _subsets_scanned,
    "spectral.dft_float": _table_size,
    "spectral.autocorrelation": _table_size,
}


class Tracer:
    def __init__(self):
        self.kinds: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.request = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        kind_id = len(self.kinds)
        self.kinds.append(name)
        clock = time.perf_counter
        kind, parent, req, start, end, wk, stack = (
            self.kind, self.parent, self.req, self.start, self.end, self.work, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            kind.append(kind_id)
            parent.append(stack[-1])
            req.append(self.request)
            end.append(0.0)
            wk.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if work is not None:
                wk[i] = work(args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        pkg = importlib.import_module("cispectra")
        mods = {name: importlib.import_module(f"cispectra.{name}") for name in LAYERS}
        namespaces = [pkg, *mods.values()]
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in UNTRACED or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped = self._wrap(f"{layer}.{name}", obj, WORK.get(f"{layer}.{name}"))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._set(ns, bound, wrapped)
        for layer, cls_name, attr, work in METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, work)))
            else:
                self._set(cls, attr, self._wrap(name, raw, work))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict:
        return {
            "kind": np.array(self.kind, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.req, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "work": np.array(self.work, dtype=np.float64),
        }

    def save(self, path: str):
        """Write every span, with the kind names, as a compressed npz file."""
        np.savez_compressed(path, kinds=np.array(self.kinds), **self.arrays())


# reference method entry points -> metric name
METHOD_ENTRIES = {
    "reference.definition_witness": "reference.definition_s",
    "reference.chrestenson_cyclic_witness": "reference.chrestenson_cyclic_s",
    "reference.chrestenson_linear_witness": "reference.chrestenson_linear_s",
    "reference.matrix_test": "reference.matrix_s",
    "reference.orthogonal_array_witness": "reference.orthogonal_array_s",
}


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-request sums of span times and counts, by layer metric.

    `_s` metrics are self times of the listed spans, except the stage
    metrics ci_order_s, resiliency_s and consensus_s, which are inclusive.
    A reference method's time is the self time of its entry span plus that
    of the reference spans below it, so the cyclotomic reductions and
    function builds it triggers count in their own layers.
    """
    a = tracer.arrays()
    kind, parent = a["kind"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    ids = {name: i for i, name in enumerate(tracer.kinds)}

    def mask(*names):
        return np.isin(kind, [ids[n] for n in names])

    def self_of(*names):
        return float(self_t[mask(*names)].sum())

    def incl_of(*names):
        return float(dur[mask(*names)].sum())

    def count_of(*names):
        return float(mask(*names).sum())

    def work_of(*names):
        return float(a["work"][mask(*names)].sum())

    # Attribute reference-layer self time to the method entry above it.
    entry = {ids[k]: v for k, v in METHOD_ENTRIES.items()}
    spectral_method = ids["spectral.first_failing_tuple"]
    consensus = ids["reference.consensus"]
    is_reference = [k.startswith("reference.") for k in tracer.kinds]
    method_s = dict.fromkeys([*METHOD_ENTRIES.values(), "reference.spectral_method_s"], 0.0)
    kinds, parents, selfs = kind.tolist(), parent.tolist(), self_t.tolist()
    owner: list[str | None] = [None] * len(kinds)
    for i, (k, par) in enumerate(zip(kinds, parents)):
        if k in entry:
            owner[i] = entry[k]
        elif k == spectral_method and par >= 0 and kinds[par] == consensus:
            owner[i] = "reference.spectral_method_s"
        elif par >= 0 and is_reference[k]:
            owner[i] = owner[par]
        if owner[i] is not None:
            method_s[owner[i]] += selfs[i]

    cli_kinds = [k for k in tracer.kinds if k.startswith("cli.")]
    out = {
        "ptable.parse_s": self_of("ptable.read_table", "ptable.parse_polynomial", "ptable.parse_terms"),
        "ptable.symmetry_s": self_of("ptable.is_symmetric", "ptable.apply_permutation"),
        "ptable.balance_s": self_of("ptable.is_balanced"),
        "ptable.write_s": self_of("ptable.write_table"),
        "ptable.build_s": self_of("ptable.PFunction.__init__"),
        "ptable.entries_built": work_of("ptable.PFunction.__init__"),
        "spectral.ci_order_s": incl_of("spectral.ci_order", "spectral.ci_order_symmetric"),
        "spectral.tuple_scan_s": self_of("spectral.first_failing_tuple"),
        "spectral.tuples_scanned": work_of("spectral.first_failing_tuple"),
        "spectral.resiliency_s": incl_of("spectral.resiliency_order"),
        "spectral.subsets_scanned": work_of("spectral.first_unbalanced_restriction"),
        "spectral.dft_s": self_of("spectral.dft_float"),
        "spectral.autocorrelation_s": self_of("spectral.autocorrelation"),
        "spectral.transform_entries": work_of("spectral.dft_float", "spectral.autocorrelation"),
        "spectral.dump_s": self_of("spectral.SpectrumDump.compute", "spectral.SpectrumDump.to_json"),
        "spectral.exact_conjugates_s": self_of("spectral.exact_spectrum_conjugates"),
        "cyclotomic.elements_built": count_of("cyclotomic.CycloElement.from_root_counts"),
        "cyclotomic.reduce_s": self_of("cyclotomic.CycloElement.from_root_counts"),
        "reference.consensus_s": incl_of("reference.consensus"),
        "reference.consensus_calls": count_of("reference.consensus"),
        **method_s,
        "reference.c_vectors_evaluated": count_of(
            "reference.chrestenson_cyclic", "reference.chrestenson_linear", "reference.count_matrix"),
        "cli.self_s": self_of(*cli_kinds),
    }
    return {k: v / requests for k, v in out.items()}
