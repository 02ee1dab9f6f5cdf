"""Out-of-program tracing: wrap dfipp's public callables and record spans.

Each target callable is wrapped once, and the wrapper is bound in place of
every reference to the original that a dfipp module attribute holds (a
function imported into five modules is rebound in all five); methods are
patched on their class.  A wrapper records one span per call -- name id,
start, end, parent span and op id -- into flat integer arrays that stay in
memory until `write`.  Self time (duration minus the time covered by child
spans) is accumulated while the spans close.

Generator functions return before doing any work, so their spans time each
`next()` on the generator instead of the call.  Per-query leaves
(`OracleHandles.query`, `InputTensor.flat`) are not wrapped: their counts
come from the ledger.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass


@dataclass
class Agg:
    calls: int = 0      # invocations (for generators: generator objects created)
    items: int = 0      # generators only: values yielded
    incl_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Spans and per-callable totals for callables named "<module>.<attribute path>".

    "field.lde_eval" is dfipp.field.lde_eval; "distributions.Pmf.sample" is
    the method sample of dfipp.distributions.Pmf.
    """

    def __init__(self, names):
        self.names = list(names)
        self.aggs = {name: Agg() for name in self.names}
        # one span = five parallel entries
        self.s_name = array("q")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("q")
        self.s_op = array("q")
        self._stack: list[list[int]] = []   # [span index, child time ns]
        self.op_id = -1

    # --- span bookkeeping ---------------------------------------------------------

    def _open(self, name_id: int) -> list[int]:
        idx = len(self.s_name)
        self.s_name.append(name_id)
        self.s_parent.append(self._stack[-1][0] if self._stack else -1)
        self.s_op.append(self.op_id)
        self.s_end.append(0)
        frame = [idx, 0]
        self._stack.append(frame)
        self.s_start.append(time.perf_counter_ns())
        return frame

    def _close(self, frame: list[int], agg: Agg) -> None:
        end = time.perf_counter_ns()
        idx, child_ns = frame
        self._stack.pop()
        self.s_end[idx] = end
        dur = end - self.s_start[idx]
        agg.incl_ns += dur
        agg.self_ns += dur - child_ns
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap_fn(self, name_id: int, fn):
        agg = self.aggs[self.names[name_id]]
        tracer = self

        def traced(*args, **kwargs):
            agg.calls += 1
            frame = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, agg)

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, name_id: int, fn):
        agg = self.aggs[self.names[name_id]]
        tracer = self

        def steps(gen):
            try:
                while True:
                    frame = tracer._open(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame, agg)
                    agg.items += 1
                    yield item
            finally:
                gen.close()

        def traced(*args, **kwargs):
            agg.calls += 1
            return steps(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # --- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every named callable of the loaded dfipp modules, rebinding every alias.

        There is no uninstall: the caller re-imports dfipp for its next pass.
        """
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "dfipp" or name.startswith("dfipp."))]
        for name_id, name in enumerate(self.names):
            modname, *path = name.split(".")
            owner = sys.modules[f"dfipp.{modname}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrap = self._wrap_gen if inspect.isgeneratorfunction(original) else self._wrap_fn
            wrapper = wrap(name_id, original)
            if len(path) > 1:   # a method: patch it on its class
                setattr(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # --- results ------------------------------------------------------------------

    def snapshot(self) -> dict[str, tuple[int, int, int, int]]:
        return {n: (a.calls, a.items, a.incl_ns, a.self_ns) for n, a in self.aggs.items()}

    @property
    def span_count(self) -> int:
        return len(self.s_name)

    def write(self, path) -> None:
        """Spans as five little-endian int64 columns of equal length, plus a names file."""
        columns = (self.s_name, self.s_start, self.s_end, self.s_parent, self.s_op)
        with open(path, "wb") as fh:
            for col in columns:
                if sys.byteorder != "little":
                    col = array("q", col)
                    col.byteswap()
                col.tofile(fh)
        with open(str(path) + ".names.json", "w") as fh:
            json.dump({"spans": self.span_count,
                       "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": self.names}, fh, indent=1)
            fh.write("\n")
