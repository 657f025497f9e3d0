"""Layer spans for the traced benchmark run.

Wraps every public function of the unicover modules at every name that is
bound to it (modules import helpers with ``from .groups import haar_sample``,
so each importer holds its own reference), plus the numpy/scipy LAPACK entry
points the package calls, which form the ``kernel`` layer.  Spans are
aggregated in memory: inclusive time and call count per entry point, and
self time per layer (span time minus the time its child spans cover).

Nothing is wrapped outside a ``with tracer.installed():`` block, so untraced
rounds run the program unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np
import numpy.linalg
import numpy.linalg._linalg
import scipy.linalg

LAYERS = ("cli", "entropy", "metrics", "invariants", "verify", "groups", "matcore")


def _matrices(a) -> int:
    """Number of matrices in a (possibly batched) stack of shape (..., m, n)."""
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    """Aggregated span statistics; one per traced run."""

    def __init__(self):
        self.calls = defaultdict(int)  # "<layer>.<fn>" -> call count
        self.seconds = defaultdict(float)  # "<layer>.<fn>" -> inclusive time
        self.self_s = defaultdict(float)  # "<layer>" -> self time
        self.extra = defaultdict(float)  # computed counters (pairs, bytes, nfev, ...)
        self._child = []  # child-time accumulator per open span
        self.modules = {name: importlib.import_module(f"unicover.{name}") for name in LAYERS}
        self._patches = self._plan()

    # -- span accounting -------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, after=None):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._child.pop()
                if self._child:
                    self._child[-1] += dt
                self.calls[key] += 1
                self.seconds[key] += dt
                self.self_s[layer] += dt - child
            if after is not None:
                after(out, args, kwargs)
            return out

        return span

    # -- computed counters -------------------------------------------------

    def _count_matrices(self, name):
        def after(out, args, kwargs):
            self.extra[f"kernel.{name}.matrices"] += _matrices(args[0])

        return after

    def _after_stack(self, out, args, kwargs):
        self.extra["kernel.stack.bytes"] += out.nbytes

    def _after_minimize(self, out, args, kwargs):
        self.extra["metrics.minimize.nfev"] += int(out.nfev)

    def _after_dists(self, out, args, kwargs):
        self.extra["entropy.dists_to_centers.pairs"] += len(out)

    def _after_packing_for(self, fn):
        sig = inspect.signature(fn)

        def after(out, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            initial = bound.arguments["initial"]
            offered = bound.arguments["sampler_budget"] + (len(initial) if initial else 0)
            self.extra["entropy.packing.offered"] += offered
            self.extra["entropy.packing.accepted"] += out.count

        return after

    # -- installation ------------------------------------------------------

    def _plan(self):
        """List of (namespace, attribute, original, wrapper) to patch."""
        originals = {}  # id(fn) -> (fn, wrapper)
        for layer, mod in self.modules.items():
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                after = None
                if (layer, name) == ("entropy", "dists_to_centers"):
                    after = self._after_dists
                elif (layer, name) == ("entropy", "greedy_packing"):
                    after = self._after_packing_for(fn)
                originals[id(fn)] = (fn, self._wrap(layer, name, fn, after))
        patches = []
        namespaces = [importlib.import_module("unicover"), *self.modules.values()]
        for ns in namespaces:
            for attr, value in vars(ns).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((ns, attr, value, hit[1]))
        metrics = self.modules["metrics"]
        if hasattr(metrics, "minimize"):
            patches.append((metrics, "minimize", metrics.minimize,
                            self._wrap("metrics", "minimize", metrics.minimize,
                                       self._after_minimize)))
        # numpy.linalg.norm reaches svd through the private module's global,
        # so patch both bindings to count the operator norms' SVDs too
        for name in ("svd", "eigh", "eigvals", "qr"):
            fn = getattr(numpy.linalg, name)
            after = self._count_matrices(name) if name != "qr" else None
            wrapper = self._wrap("kernel", name, fn, after)
            patches.append((numpy.linalg, name, fn, wrapper))
            patches.append((numpy.linalg._linalg, name, fn, wrapper))
        patches.append((np, "stack", np.stack,
                        self._wrap("kernel", "stack", np.stack, self._after_stack)))
        patches.append((scipy.linalg, "schur", scipy.linalg.schur,
                        self._wrap("kernel", "schur", scipy.linalg.schur)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        try:
            yield self
        finally:
            for ns, attr, original, _ in self._patches:
                setattr(ns, attr, original)

    # -- reporting -----------------------------------------------------------

    def entry_point_exists(self, layer: str, name: str) -> bool:
        if layer == "kernel":
            return True
        return hasattr(self.modules[layer], name)

    def value(self, metric: str, rounds: int):
        """Per-round value of a per-layer metric named <layer>.<fn>.<stat>,
        or None when the named entry point no longer exists."""
        layer, rest = metric.split(".", 1)
        if rest == "self.s":
            return self.self_s[layer] / rounds
        if metric == "entropy.packing.accept_ratio":
            if not self.entry_point_exists("entropy", "greedy_packing"):
                return None
            offered = self.extra["entropy.packing.offered"]
            return self.extra["entropy.packing.accepted"] / offered if offered else 0.0
        fn, stat = rest.rsplit(".", 1)
        if not self.entry_point_exists(layer, fn):
            return None
        key = f"{layer}.{fn}"
        if stat == "calls":
            return self.calls[key] / rounds
        if stat == "s":
            return self.seconds[key] / rounds
        return self.extra[metric] / rounds
