"""Span tracing around the program's layers, from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
namespace that holds it: its home module, every ``tricoh`` module that
imported it by name, and the ``tricoh`` package re-exports. Wrapping by
identity means an alias such as ``adiabatic.eig_hermitian`` or
``coherence.partial_trace`` is traced too. ``numpy.linalg.eigh`` and
``eigvalsh`` are wrapped the same way for the kernel counts. A name that no
longer exists is reported as absent and its metrics read 0.

Spans live in flat in-memory arrays (name, start, end, parent, item, count)
and are written out once, at the end of the run. A span's self time is its
duration minus the time covered by its child spans.
"""

from array import array
import builtins
import importlib
import math
import os
import sys
from time import perf_counter

import numpy as np


def _matrices(args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs.get("a"))
    return math.prod(shape[:-2])


def _steps(args, kwargs, result):
    return len(getattr(result, "j_values", ()))


# (layer, module, attribute, has traced children, per-span count)
TARGETS = (
    ("linalg.eigh", "numpy.linalg", "eigh", False, _matrices),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh", False, _matrices),
    ("coherence.coherence_report", "tricoh.coherence", "coherence_report", True, None),
    ("coherence.qjsd", "tricoh.coherence", "qjsd", True, None),
    ("coherence.relative_entropy", "tricoh.coherence", "relative_entropy", True, None),
    ("coherence.von_neumann_entropy", "tricoh.coherence", "von_neumann_entropy", True, None),
    ("coherence.embed_tetrahedron", "tricoh.coherence", "embed_tetrahedron", False, None),
    ("states.marginals", "tricoh.states", "marginals", True, None),
    ("states.pi_product", "tricoh.states", "pi_product", True, None),
    ("states.split_1_23", "tricoh.states", "split_1_23", True, None),
    ("qmat.partial_trace", "tricoh.qmat", "partial_trace", False, None),
    ("models.hamiltonian", "tricoh.models", "hamiltonian", False, None),
    ("models.hamiltonian_parts", "tricoh.models", "hamiltonian_parts", False, None),
    ("models.with_coupling", "tricoh.models", "with_coupling", False, None),
    ("qmat.eig_hermitian", "tricoh.qmat", "eig_hermitian", True, None),
    ("adiabatic.ground_sweep", "tricoh.adiabatic", "ground_sweep", True, _steps),
    ("qmat.expm_hermitian", "tricoh.qmat", "expm_hermitian", True, None),
    ("adiabatic.evolve", "tricoh.adiabatic", "evolve", True, None),
    ("adiabatic.trotter_pair", "tricoh.adiabatic", "trotter_pair", True, None),
    ("adiabatic.gap_adaptive_schedule", "tricoh.adiabatic", "gap_adaptive_schedule", True, None),
    ("adiabatic.schedule_from_density", "tricoh.adiabatic", "schedule_from_density", False, None),
    ("adiabatic.refocus_params", "tricoh.adiabatic", "refocus_params", False, None),
    ("adiabatic.min_steps_search", "tricoh.adiabatic", "min_steps_search", True, None),
    ("perturbation.secular_solve", "tricoh.perturbation", "secular_solve", True, None),
    ("perturbation.zz_fidelity_formula", "tricoh.perturbation", "zz_fidelity_formula", False, None),
    ("perturbation.zzz_fidelity_formula", "tricoh.perturbation", "zzz_fidelity_formula", False, None),
    ("qmat.load_density", "tricoh.qmat", "load_density", False, None),
    ("qmat.validate_density", "tricoh.qmat", "validate_density", True, None),
    ("qmat.root_fidelity", "tricoh.qmat", "root_fidelity", True, None),
    ("cli.main", "tricoh.cli", "main", True, None),
)
KERNELS = ("linalg.eigh", "linalg.eigvalsh")
CLI_WRITE = "cli.write"

# derived per-layer metrics: name -> unit
DERIVED = {
    "linalg.matrices_per_call": "ratio",
    "coherence.spectra_per_qjsd": "ratio",
    "adiabatic.eigh_per_step": "ratio",
    "adiabatic.min_steps_search.evolves_per_search": "ratio",
}


def metric_units():
    """Every per-pass layer metric this module reports, with its unit."""
    units = {}
    for layer, _, _, has_children, _ in TARGETS:
        units[f"{layer}.calls"] = "count"
        if layer in KERNELS:
            units[f"{layer}.matrices"] = "count"
        else:
            units[f"{layer}.self_s"] = "s"
        if has_children or layer in KERNELS:
            units[f"{layer}.total_s"] = "s"
    units.update({f"{CLI_WRITE}.calls": "count", f"{CLI_WRITE}.self_s": "s", f"{CLI_WRITE}.bytes": "B"})
    units.update(DERIVED)
    return units


class Tracer:
    """Records nested spans; one instance per traced phase of a run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.count = array("q")
        self.item_id = -1
        self.absent = []
        self._stack = [-1]
        self._installed = []

    def name_id(self, layer):
        if layer not in self._ids:
            self._ids[layer] = len(self.names)
            self.names.append(layer)
        return self._ids[layer]

    def open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self.item_id)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i, count=0):
        self.end[i] = perf_counter()
        self.count[i] = count
        self._stack.pop()

    # ------------------------------------------------------------ wrappers

    def _wrap(self, nid, fn, measure):
        def traced(*args, **kwargs):
            i = self.open(nid)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    n = measure(args, kwargs, result)
                return result
            finally:
                self.close(i, n)

        return traced

    def install(self):
        """Wrap every target in every namespace that holds it."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "tricoh" or n.startswith("tricoh.")]
        for layer, module_name, attr, _, measure in TARGETS:
            nid = self.name_id(layer)
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(layer)
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(nid, original, measure)
            for ns in [home] + namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._installed.append((ns, key, original))
        self._install_cli_write()

    def _install_cli_write(self):
        """Trace files the CLI opens for writing, from open to close, with their size."""
        cli = sys.modules.get("tricoh.cli")
        nid = self.name_id(CLI_WRITE)
        if cli is None:
            self.absent.append(CLI_WRITE)
            return
        tracer = self

        class TracedFile:
            def __init__(self, fh, path):
                self._fh = fh
                self._path = path
                self._span = tracer.open(nid)

            def __enter__(self):
                return self._fh

            def __exit__(self, *exc):
                self.close()

            def __getattr__(self, attr):
                return getattr(self._fh, attr)

            def close(self):
                if self._span is not None:
                    self._fh.close()
                    tracer.close(self._span, os.path.getsize(self._path))
                    self._span = None

        def traced_open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            if "w" in mode or "a" in mode:
                return TracedFile(fh, file)
            return fh

        self._installed.append((cli, "open", None))
        cli.open = traced_open

    def uninstall(self):
        for ns, key, original in reversed(self._installed):
            if original is None:
                delattr(ns, key)
            else:
                setattr(ns, key, original)
        self._installed.clear()

    # ------------------------------------------------------------ output

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "item": np.frombuffer(self.item, dtype=np.intc).astype(np.int64),
            "count": np.frombuffer(self.count, dtype=np.int64),
        }

    def save(self, path, **per_item):
        np.savez(path, names=np.array(self.names), **self.arrays(), **per_item)


def _under(ids, name, parent):
    """Mask of spans that have an ancestor whose name id is in ``ids``."""
    mask = np.zeros(len(name), dtype=bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        mask[live] |= np.isin(name[anc[live]], ids)
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return mask


def layer_metrics(tracer, item_pass, item_slowdown, n_passes):
    """Per-pass layer metrics, one dict per pass, from the recorded spans.

    ``item_pass[item_id]`` is the pass an item belongs to, and span times
    are divided by ``item_slowdown[item_id]`` to give them at reference
    speed. A span nested directly in a span of its own name counts once
    towards ``total_s``.
    """
    a = tracer.arrays()
    name, parent, count = a["name"], a["parent"], a["count"]
    dur = (a["end"] - a["start"]) / np.asarray(item_slowdown)[a["item"]]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    outer = ~has_parent | (name[np.where(has_parent, parent, 0)] != name)
    passes = np.asarray(item_pass)[a["item"]]

    def ids(*layers):
        return [tracer.name_id(layer) for layer in layers]

    in_qjsd = _under(ids("coherence.qjsd"), name, parent)
    in_report = _under(ids("coherence.coherence_report"), name, parent)
    in_sweep = _under(ids("adiabatic.ground_sweep"), name, parent)
    in_search = _under(ids("adiabatic.min_steps_search"), name, parent)
    kernel_ids = ids(*KERNELS)
    (eigh_id,) = ids("linalg.eigh")

    results = []
    for p in range(n_passes):
        sel = passes == p
        calls = np.bincount(name[sel], minlength=len(tracer.names))
        per_name_self = np.bincount(name[sel], weights=self_time[sel], minlength=len(tracer.names))
        per_name_total = np.bincount(name[sel & outer], weights=dur[sel & outer], minlength=len(tracer.names))
        per_name_count = np.bincount(name[sel], weights=count[sel], minlength=len(tracer.names))
        m = {}
        for layer, _, _, has_children, _ in TARGETS + ((CLI_WRITE, None, None, False, None),):
            k = tracer.name_id(layer)
            m[f"{layer}.calls"] = int(calls[k])
            if layer in KERNELS:
                m[f"{layer}.matrices"] = int(per_name_count[k])
            else:
                m[f"{layer}.self_s"] = float(per_name_self[k])
            if has_children or layer in KERNELS:
                m[f"{layer}.total_s"] = float(per_name_total[k])
        m[f"{CLI_WRITE}.bytes"] = int(per_name_count[tracer.name_id(CLI_WRITE)])

        kernel = sel & np.isin(name, kernel_ids)
        kernel_calls = int(kernel.sum())
        m["linalg.matrices_per_call"] = _ratio(count[kernel].sum(), kernel_calls)
        m["coherence.spectra_per_qjsd"] = _ratio(count[kernel & in_qjsd].sum(), m["coherence.qjsd.calls"])
        sweep_eigh = sel & (name == eigh_id) & in_sweep & ~in_report
        steps = per_name_count[tracer.name_id("adiabatic.ground_sweep")]
        m["adiabatic.eigh_per_step"] = _ratio(sweep_eigh.sum(), steps)
        evolves = (sel & (name == tracer.name_id("adiabatic.evolve")) & in_search).sum()
        m["adiabatic.min_steps_search.evolves_per_search"] = _ratio(evolves, m["adiabatic.min_steps_search.calls"])
        results.append(m)
    return results


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def code_of(fn):
    """The Python code object behind a (possibly dispatcher-wrapped) function."""
    fn = getattr(fn, "_implementation", fn)
    return getattr(fn, "__code__", None)


def count_python_calls(codes, fn, counts):
    """Run ``fn`` under a profiler that adds entries into each code object to ``counts``.

    This counts calls however they are reached, so it checks that the
    wrappers saw every call.
    """

    def profile(frame, event, arg):
        if event == "call":
            key = codes.get(frame.f_code)
            if key is not None:
                counts[key] += 1

    sys.setprofile(profile)
    try:
        return fn()
    finally:
        sys.setprofile(None)
