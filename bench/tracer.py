"""Span tracing of gburgers' public functions, installed at run time by the
benchmark only; nothing under ``src/`` knows about it.

Every wrapped call adds to its name's call count, inclusive time and self
time (its duration minus the part covered by its direct children).  Calls
at or above the operation level (passes, ops, sweeps, solves, catalog
builds, transforms) are also kept in memory as spans ``(name, start, end,
parent)`` and written out when the run ends.  Per-point calls (jets, Jet3
products, residuals, validity predicates, boundary data) are only
aggregated: a catalog pass makes millions of them, and a span each would
cost more memory than the program itself.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.spans: list = []                # (name, start, end, parent index)
        self._child = [0.0]                  # time covered by children, per open call
        self._open = [-1]                    # index of the innermost open span
        self._patches: list = []

    def wrap(self, name: str, fn, record: bool = False):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        clock = time.perf_counter
        if not record:
            def traced(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    inner = child.pop()
                    child[-1] += d
                    stats[0] += 1
                    stats[1] += d
                    stats[2] += d - inner
            return traced

        def traced_span(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced_span

    @contextmanager
    def span(self, name: str):
        """A recorded span; also used around benchmark passes and operations."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1]
        self._open.append(idx)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            d = t1 - t0
            inner = self._child.pop()
            self._child[-1] += d
            self._open.pop()
            self.spans[idx] = (name, t0, t1, parent)
            stats[0] += 1
            stats[1] += d
            stats[2] += d - inner

    def patch(self, owner, attr: str, name: str, record: bool = False, after=None) -> None:
        """Replace ``owner.attr`` and every gburgers module binding of the same
        function (``from .verify import sweep`` makes a second one)."""
        orig = getattr(owner, attr)
        fn = orig
        if after is not None:
            def fn(*args, **kwargs):
                return after(orig(*args, **kwargs))
        wrapped = self.wrap(name, fn, record)
        targets = [owner] + [m for key, m in list(sys.modules.items())
                             if key.split(".")[0] == "gburgers" and m is not owner
                             and getattr(m, attr, None) is orig]
        for t in targets:
            self._patches.append((t, attr, orig))
            setattr(t, attr, wrapped)

    def unpatch(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the layer boundaries of gburgers (imports it if needed)."""
        from gburgers import ansatz, catalog, equivalence, jets, numsolve, verify

        def wrap_field(obj, attr, name):
            object.__setattr__(obj, attr, self.wrap(name, getattr(obj, attr)))
            return obj

        self.patch(jets.ScalarField, "jet", "jets.jet")
        self.patch(jets.ScalarField, "value", "jets.value")
        self.patch(jets.ScalarField, "sample", "jets.sample")
        self.patch(jets.Jet3, "__mul__", "jets.mul")
        self.patch(jets.Antiderivative, "__call__", "jets.antiderivative")
        self.patch(catalog, "get_case", "catalog.build", record=True,
                   after=lambda e: wrap_field(e, "valid", "catalog.valid"))
        self.patch(ansatz, "phi", "ansatz.phi")
        self.patch(ansatz, "build_solution", "ansatz.build",
                   after=lambda s: wrap_field(s, "valid", "ansatz.valid"))
        self.patch(equivalence, "transform_solution", "equivalence.transform", record=True)
        self.patch(equivalence, "apply_point", "equivalence.apply_point")
        self.patch(verify, "sweep", "verify.sweep", record=True)
        self.patch(verify, "gbe_residual_scaled", "verify.gbe")
        self.patch(verify, "pfde_residual_scaled", "verify.pfde")
        self.patch(verify, "potential_residual_scaled", "verify.potential")
        self.patch(verify, "reduced_system_residual_scaled", "verify.reduced")
        self.patch(verify, "determining_residuals", "verify.determining")
        self.patch(numsolve, "solve_ibvp", "numsolve.solve", record=True)
        self.patch(numsolve.IbvpSpec, "boundary_values", "numsolve.boundary")
        self.patch(numsolve, "compare", "numsolve.compare", record=True)

    def merge(self, stats: dict) -> None:
        """Add another process's aggregates (a traced CLI child)."""
        for name, (calls, total, self_) in stats.items():
            s = self.stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"stats": self.stats,
                       "spans": [list(s) for s in self.spans if s is not None]}, fh)
