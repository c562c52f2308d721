"""Traced execution of one dgff CLI command, and the span arithmetic.

    python3 perfbench/tracer.py SPANS_JSON OP_ID -- <dgff arguments>

Run with the checkout's ``src`` on PYTHONPATH. The script imports the dgff
package, wraps every public module-level function of each layer module from
outside, and rebinds each wrapper under every name that any dgff module
holds for the original, so a ``from .operators import green`` in hadamard
is traced as well. Two private hooks add what the public functions do not
show: ``OperatorStack._memo`` counts memo hits and misses, and
``verify._Ladder.run`` opens one span per ladder rung. It then runs
``dgff.cli.main`` on the given arguments. Spans stay in memory and are
written to SPANS_JSON when the command ends; the exit code is the CLI's.

Nothing in the dgff sources is touched: a function that is removed or
renamed simply stops appearing in the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("graph", "foliation", "operators", "linalg", "kernels", "hadamard",
          "sampling", "verify", "cli")


def _arg(fn, args, kwargs, name):
    """Value of parameter `name` in a call of `fn`."""
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _shape0(fn, args, kwargs, name):
    return int(_arg(fn, args, kwargs, name).shape[0])


# Work counters measured where the work happens. Each maps a traced function
# to (before, after): `before(fn, args, kwargs)` runs ahead of the call and
# `after(fn, args, kwargs, result, before_value)` returns {stat: increment}.
COUNTERS = {
    "kernels.normal_block": (None, lambda fn, a, kw, r, _: {
        "draws": int(_arg(fn, a, kw, "ndraws")) * len(_arg(fn, a, kw, "streams"))}),
    "sampling.oracle_block": (None, lambda fn, a, kw, r, _: {
        "draws": int(_arg(fn, a, kw, "trials")) * _arg(fn, a, kw, "kern").cluster.size}),
    "linalg.jacobi_eigen": (None, lambda fn, a, kw, r, _: {"n3": _shape0(fn, a, kw, "a") ** 3}),
    "linalg.cholesky": (None, lambda fn, a, kw, r, _: {"n3": _shape0(fn, a, kw, "a") ** 3}),
    "linalg.write_matrix_csv": (
        lambda fn, a, kw: _arg(fn, a, kw, "fh").tell(),
        lambda fn, a, kw, r, start: {"bytes": _arg(fn, a, kw, "fh").tell() - start}),
}


class Tracer:
    """Spans and counters of one traced process.

    A span is [name, start, end, parent index]; times are perf_counter
    seconds from the tracer's creation, parent -1 marks a root span.
    """

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.open: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.wrapped: list[str] = []
        self.originals: list = []
        self.bypassed: list[str] = []

    def _enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.open[-1] if self.open else -1]
        self.open.append(len(self.spans))
        self.spans.append(span)
        self.calls[name] += 1
        span[1] = time.perf_counter() - self.t0
        return span

    def _leave(self, span: list) -> None:
        span[2] = time.perf_counter() - self.t0
        self.open.pop()

    def wrap(self, name: str, fn):
        before, after = COUNTERS.get(name, (None, None))
        track_bytes = name.startswith("sampling.")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = before(fn, args, kwargs) if before else None
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(span)
            if after:
                for stat, value in after(fn, args, kwargs, result, start).items():
                    tracer.counts[f"{name}.{stat}"] += value
            nbytes = getattr(result, "nbytes", None)
            if track_bytes and nbytes is not None:
                tracer.maxima["sampling.block_bytes_max"] = max(
                    tracer.maxima.get("sampling.block_bytes_max", 0), nbytes)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and the two hooks."""
        importlib.import_module("dgff.cli")
        for layer in LAYERS:
            mod = importlib.import_module(f"dgff.{layer}")
            names: dict[int, list[str]] = {}
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    names.setdefault(id(obj), []).append(attr)
            for aliases in names.values():
                # kernels binds e.g. normal_block = normal_block_numpy: one
                # function, traced once under its shortest (dispatch) name.
                attr = min(aliases, key=lambda s: (len(s), s))
                original = getattr(mod, attr)
                qualname = f"{layer}.{attr}"
                self._rebind(original, self.wrap(qualname, original))
                self.originals.append(original)
                self.wrapped.append(qualname)
        self._hook_memo()
        self._hook_rungs()
        self.bypassed = self._find_unwrapped()

    def _rebind(self, original, wrapper) -> None:
        for mod in self._dgff_modules():
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, attr, wrapper)

    def _find_unwrapped(self) -> list[str]:
        """Names in dgff modules that still refer to a wrapped original."""
        originals = {id(original) for original in self.originals}
        return sorted(f"{mod.__name__}.{attr}"
                      for mod in self._dgff_modules()
                      for attr, obj in vars(mod).items() if id(obj) in originals)

    @staticmethod
    def _dgff_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "dgff" or name.startswith("dgff."))]

    def _hook_memo(self) -> None:
        hadamard = sys.modules["dgff.hadamard"]
        cls = getattr(hadamard, "OperatorStack", None)
        memo = getattr(cls, "_memo", None)
        if memo is None:
            return
        calls, counts = self.calls, self.counts

        def _memo(stack, kind, n, build):
            built = []

            def counted():
                built.append(True)
                return build()

            result = memo(stack, kind, n, counted)
            calls["hadamard.OperatorStack._memo"] += 1
            counts["hadamard.OperatorStack.memo_misses" if built
                   else "hadamard.OperatorStack.memo_hits"] += 1
            return result

        cls._memo = _memo
        self.wrapped.append("hadamard.OperatorStack._memo")

    def _hook_rungs(self) -> None:
        ladder = getattr(sys.modules["dgff.verify"], "_Ladder", None)
        run = getattr(ladder, "run", None)
        if run is None:
            return
        tracer = self

        def traced_run(self_, name, *args, **kwargs):
            tracer.calls["verify._Ladder.run"] += 1
            span = tracer._enter(f"verify.rung.{name}")
            try:
                return run(self_, name, *args, **kwargs)
            finally:
                tracer._leave(span)

        ladder.run = traced_run
        self.wrapped.append("verify._Ladder.run")

    def to_json(self) -> dict:
        return {"op": self.op_id, "spans": self.spans, "calls": dict(self.calls),
                "counts": dict(self.counts), "maxima": self.maxima,
                "wrapped": self.wrapped, "bypassed": self.bypassed}


# ---------------------------------------------------------------------------
# Span arithmetic (used by the benchmark driver on the JSON written above)
# ---------------------------------------------------------------------------

def span_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self seconds per span name.

    Inclusive time counts a span only when no ancestor has the same name, so
    recursion is not counted twice. Self time is a span's duration minus the
    durations of its direct children.
    """
    inclusive: Counter = Counter()
    self_s: Counter = Counter()
    child_total = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += (end - start) - child_total[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += end - start
    return dict(inclusive), dict(self_s)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, op_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(op_id)
    tracer.install()
    cli = sys.modules["dgff.cli"]
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as e:  # argparse rejects bad arguments this way
        code = e.code if isinstance(e.code, int) else 2
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
