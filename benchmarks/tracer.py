"""Run the `cqs` CLI with every public function of its layers timed.

Usage: python3 benchmarks/tracer.py <cqs arguments...>

The layers are the modules cli, representations, cone_geometry,
deformations and verify.  Each public function they define is replaced,
in every `cqs` module that holds a reference to it, by a wrapper that opens
a span on entry and closes it on exit.  `lattice` is left alone: its
functions are called hundreds of thousands of times per sweep and a
wrapper would cost more than the work it measures; their time shows in
the self time of their callers.

Spans are reduced as they close: each adds its duration to its parent's
child time, and its own duration minus its children to the self time of
its name.  When the CLI returns, one line `PERFBENCH_TRACE <json>` is
written to stderr with calls, self time and inclusive time per function,
plus the zone counters: fibers (sum of <alpha, R> over zone_points calls,
the u-range each call walks), points (zone points returned) and the
points returned under w_dims_oracle.  Standard output is the CLI's own.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from types import FunctionType

LAYERS = ("cli", "representations", "cone_geometry", "deformations", "verify")
MARKER = "PERFBENCH_TRACE "


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # child time of each open span
        self._open: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn: FunctionType, observe=None):
        children, open_, calls, self_s, total_s = (
            self._children, self._open, self.calls, self.self_s, self.total_s
        )

        def traced(*args, **kwargs):
            children.append(0.0)
            open_[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = children.pop()
                open_[name] -= 1
                if children:
                    children[-1] += duration
                calls[name] += 1
                self_s[name] += duration - child
                if not open_[name]:
                    total_s[name] += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_zone(self, args, points) -> None:
        zone, cone = args
        self.counts["zone_points.fibers"] += cone.alpha.x * zone.R.u + cone.alpha.y * zone.R.v
        self.counts["zone_points.points"] += len(points)
        if self._open["deformations.w_dims_oracle"]:
            self.counts["w_dims_oracle.zone_points"] += len(points)

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every reference."""
        replace = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cqs.{layer}")
            for attr, obj in vars(module).items():
                if isinstance(obj, FunctionType) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    observe = self._observe_zone if name == "cone_geometry.zone_points" else None
                    replace[id(obj)] = self.wrap(name, obj, observe)
        for modname, module in list(sys.modules.items()):
            if modname == "cqs" or modname.startswith("cqs."):
                for attr, obj in list(vars(module).items()):
                    if isinstance(obj, FunctionType) and id(obj) in replace:
                        setattr(module, attr, replace[id(obj)])

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
        }


def main(argv: list[str]) -> int:
    import cqs.cli

    tracer = Tracer()
    tracer.install()
    try:
        return cqs.cli.main(argv)
    finally:
        sys.stdout.flush()
        print(MARKER + json.dumps(tracer.summary()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
