"""Per-layer spans for the traced benchmark run.

Each public function of a layer module is wrapped where its callers look it
up: every module-level binding of it (``from .exact import t_even`` in
``formulas`` is one binding, ``exact.t_even`` itself another, the package
namespace a third) gets its own wrapper, all recording spans under the same
name.  Spans (name, start, end, parent, request id) are kept in memory and
written out when the round ends.  Self time is a span's duration minus the
time its child spans cover, net of the tracer's own cost: ``calibrate``
times a wrapped no-op, and that per-call cost is taken off the self time of
each wrapped span (the part inside its clock reads) and of its parent (the
rest), so that a layer making many small calls is not charged for tracing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from time import perf_counter

LAYERS = ("exact", "series", "formulas", "oracle", "symfunc", "verify", "cli")
METHODS = (("series", "USeries", "recip"),)

# Names the per-layer metrics read.  One that a later change deletes is
# reported as absent and its metrics read 0.
WATCHED = (
    "exact.t_even", "exact.bernoulli", "exact.euler_number",
    "formulas.T_from_euler", "formulas.T_from_t_values", "formulas.T_from_bernoulli",
    "formulas.T_table_from_genfunc", "formulas.coeff_row",
    "series.genfunc_biseries", "series.USeries.recip",
    "symfunc.check_bivariate_factorization", "symfunc.check_monomial_expansion",
    "symfunc.monomial_depth_sum", "symfunc.specialize_odd_squares",
    "symfunc.elementary", "symfunc.complete",
    "oracle.t_numeric", "oracle.T_numeric", "oracle.pi_power_eval",
    "verify.run_suite", "cli.main",
)

SELF_TIMES = (
    "formulas.T_from_euler", "formulas.T_from_t_values", "formulas.T_from_bernoulli",
    "formulas.T_table_from_genfunc", "series.genfunc_biseries", "series.USeries.recip",
    "symfunc.check_bivariate_factorization", "symfunc.check_monomial_expansion",
    "symfunc.monomial_depth_sum", "symfunc.specialize_odd_squares",
    "oracle.t_numeric", "oracle.T_numeric", "oracle.pi_power_eval", "cli.main",
)
CALLS = ("exact.t_even", "formulas.coeff_row", "oracle.t_numeric", "oracle.T_numeric", "cli.main")


class Tracer:
    """Span recorder plus the counters the per-layer metrics need.

    Spans live in parallel flat arrays, so that recording a call creates no
    object the garbage collector has to trace: a traced exact-sweep round
    keeps close to a million spans, and with a list per span the
    collector's passes over them added about 1 s to the round.
    """

    def __init__(self) -> None:
        # Span i is (names[i], starts[i], ends[i], parents[i]); its request is
        # that of its nearest ancestor opened with one (see ``request_ids``).
        self.names: list[str] = []
        self.starts, self.ends, self.parents = array("d"), array("d"), array("q")
        self.opened_for: dict[int, int] = {}  # span index -> request id
        self.current = [-1]  # index of the open span
        self.absent: list[str] = []
        self.counts = {"exact.bernoulli.max_index": 0, "exact.euler_number.max_index": 0,
                       "oracle.terms_summed": 0, "symfunc.poly_terms_max": 0}
        self._caches: list = []
        self._undo: list[tuple[object, str, object]] = []
        self.cost_in = self.cost_out = 0.0  # tracer seconds per wrapped call, see calibrate

    def open(self, name: str, request: int = -1) -> int:
        idx = len(self.names)
        if request >= 0:
            self.opened_for[idx] = request
        self.names.append(name)
        self.parents.append(self.current[0])
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        self.current[0] = idx
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.current[0] = self.parents[idx]

    def wrap(self, name: str, fn, observe=None):
        # Kept lean: everything but the two clock reads runs outside the span.
        names, starts, ends = self.names, self.starts, self.ends
        parents, current, clock = self.parents, self.current, perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current[0]
            idx = current[0] = len(names)
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parent
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def calibrate(self, calls: int = 20_000, batches: int = 9) -> None:
        """Measure what one wrapped call costs on top of the bare call.

        ``cost_in`` is the part inside the span's clock reads, which lands
        in the span's own self time; ``cost_out`` is the rest, which lands in
        its parent's.  Each is the median over batches of a wrapped
        one-argument no-op.  An observer's cost is not included.
        """
        def noop(x):
            return x

        inside, outside = [], []
        for _ in range(batches):
            probe = Tracer()
            wrapped = probe.wrap("probe", noop)
            probe.open("probe.outer")
            t0 = perf_counter()
            for i in range(calls):
                noop(i)
            t1 = perf_counter()
            for i in range(calls):
                wrapped(i)
            t2 = perf_counter()
            bare = (t1 - t0) / calls
            spanned = (sum(probe.ends) - sum(probe.starts) - probe.ends[0] + probe.starts[0]) / calls
            inside.append(max(spanned - bare, 0.0))
            outside.append(max((t2 - t1) / calls - bare - inside[-1], 0.0))
        self.cost_in, self.cost_out = statistics.median(inside), statistics.median(outside)

    # ------------------------------------------------------------ observers

    def _max_index(self, key):
        def observe(args, kwargs, result):
            if args and args[0] > self.counts[key]:
                self.counts[key] = args[0]
        return observe

    def _terms(self, default_terms: int):
        def observe(args, kwargs, result):
            params = args[1] if len(args) > 1 else kwargs.get("params")
            terms = params.terms if params is not None else default_terms
            self.counts["oracle.terms_summed"] += len(args[0]) * terms
        return observe

    def _poly_size(self, args, kwargs, result):
        if type(result).__name__ == "SymPoly" and len(result.terms) > self.counts["symfunc.poly_terms_max"]:
            self.counts["symfunc.poly_terms_max"] = len(result.terms)

    # -------------------------------------------------------------- install

    def install(self, package: str = "tsums") -> None:
        """Wrap every public function of every layer at each of its bindings."""
        pkg = importlib.import_module(package)
        mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        namespaces = [pkg, *mods.values()]
        seen = set()
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, type) or not callable(fn) or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                observe = None
                if name in ("exact.bernoulli", "exact.euler_number"):
                    observe = self._max_index(f"{name}.max_index")
                elif name == "oracle.t_numeric":
                    observe = self._terms(getattr(mod, "DEFAULT_TERMS", 0))
                elif layer == "symfunc":
                    observe = self._poly_size
                if name in ("symfunc.elementary", "symfunc.complete") and hasattr(fn, "cache_info"):
                    self._caches.append(fn)
                for ns in namespaces:
                    if ns.__dict__.get(attr) is fn:
                        self._undo.append((ns, attr, fn))
                        setattr(ns, attr, self.wrap(name, fn, observe))
                seen.add(name)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            fn = cls.__dict__.get(meth) if isinstance(cls, type) else None
            if callable(fn):
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", fn))
                seen.add(f"{layer}.{cls_name}.{meth}")
        self.absent = [name for name in WATCHED if name not in seen]

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -------------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far.

        The benchmark's own spans are named ``bench.*`` and are not wrapped
        calls; the layer self times plus ``bench.self_s`` plus
        ``trace.subtracted_s`` (the calibrated tracer cost) add up to the
        outermost span.
        """
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        # Time a span does not own: its children's spans and the tracer cost.
        taken = [0.0] * len(names)
        subtracted = 0.0
        for i, name in enumerate(names):
            parent = parents[i]
            if parent >= 0:
                taken[parent] += ends[i] - starts[i]
            if not name.startswith("bench."):
                taken[i] += self.cost_in
                subtracted += self.cost_in
                if parent >= 0:
                    taken[parent] += self.cost_out
                    subtracted += self.cost_out
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, start, end, covered in zip(names, starts, ends, taken):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        out: dict[str, float] = {}
        for layer in LAYERS + ("bench",):
            names = [n for n in calls if n.split(".", 1)[0] == layer]
            if layer != "bench":
                out[f"{layer}.calls"] = sum(calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        out.update(self.counts)
        out["oracle.ns_per_term"] = (1e9 * out["oracle.t_numeric.self_s"] / out["oracle.terms_summed"]
                                     if out["oracle.terms_summed"] else 0.0)
        hits = sum(fn.cache_info().hits for fn in self._caches)
        total = hits + sum(fn.cache_info().misses for fn in self._caches)
        out["symfunc.poly_cache.hit_ratio"] = hits / total if total else 0.0
        out["trace.wall_s"] = sum(end - start for start, end, parent in zip(starts, ends, parents)
                                  if parent < 0)
        out["trace.subtracted_s"] = subtracted
        return out

    def request_ids(self) -> list[int]:
        """Each span's request id, -1 outside any request.  A parent is
        always recorded before its children, so one pass suffices."""
        out: list[int] = []
        for i, parent in enumerate(self.parents):
            out.append(self.opened_for.get(i, out[parent] if parent >= 0 else -1))
        return out

    def write(self, path) -> None:
        """Write the spans as CSV: name,start,end,parent,request."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,request\n")
            for name, start, end, parent, req in zip(self.names, self.starts, self.ends,
                                                     self.parents, self.request_ids()):
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{req}\n")
