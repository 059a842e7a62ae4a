"""Run the rskcheck CLI with a span recorded around each call into a layer.

    python3 bench/tracer.py SPAN_DIR ARG...

runs `rskcheck ARG...` as `python -m rskcheck` would, after wrapping the
public functions, constructors and methods of each module (the layers
named in LAYERS) and rebinding every reference to them inside the
package. The program's files are not changed.

A span is (name, start_ns, end_ns, id, parent_id). Each process keeps its
spans and per-name call counts and self times in memory, and writes them
to SPAN_DIR/spans-<pid>.json when it ends: the CLI process after `main`
returns, a forked pool worker from its multiprocessing exit hook. Only
the first SPAN_CAP spans of a process are stored; counts and self times
cover every call.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time
import types
from pathlib import Path

LAYERS = ("permutations", "tableaux", "rsk", "evacuation", "reverse_maps", "enumeration", "cli")
SPAN_CAP = 5_000


class Tracer:
    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.role = "cli"
        self.next_id = 1
        self.stack: list[list[int]] = []  # open spans: [id, ns covered by children]
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}

    def wrap(self, name: str, fn):
        stack, spans, calls, self_ns = self.stack, self.spans, self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                calls[name] = calls.get(name, 0) + 1
                self_ns[name] = self_ns.get(name, 0) + duration - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((name, start, end, sid, parent[0] if parent else 0))

        return traced

    def start_worker(self) -> None:
        """In a forked pool worker: drop the parent's state, dump at exit."""
        self.role = "worker"
        self.stack.clear()
        self.spans.clear()
        self.calls.clear()
        self.self_ns.clear()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def dump(self) -> None:
        payload = {
            "pid": os.getpid(),
            "role": self.role,
            "calls": self.calls,
            "self_ns": self.self_ns,
            "spans": self.spans,
        }
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public callables and rebind every reference."""
    import rskcheck.cli  # noqa: F401  (imports every layer)

    wrapped: dict[object, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"rskcheck.{layer}"]
        for attr in getattr(module, "__all__", ("main", "build_parser")):
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                _wrap_methods(tracer, f"{layer}.{attr}", obj)
            elif isinstance(obj, types.FunctionType) and not inspect.isgeneratorfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if name == "rskcheck" or name.startswith("rskcheck."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(module, attr, wrapped[value])


def _wrap_methods(tracer: Tracer, prefix: str, cls: type) -> None:
    for attr, value in list(vars(cls).items()):
        if attr != "__init__" and attr.startswith("_"):
            continue
        name = prefix if attr == "__init__" else f"{prefix}.{attr}"
        if isinstance(value, types.FunctionType):
            setattr(cls, attr, tracer.wrap(name, value))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, value.__func__)))


def load(span_dir: Path) -> list[dict]:
    """What every traced process wrote."""
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(span_dir.glob("spans-*.json"))]


def layer_table(processes: list[dict]) -> dict[str, dict[str, float]]:
    """Calls and self time per layer, summed over the CLI and its workers."""
    table: dict[str, dict[str, float]] = {}
    for proc in processes:
        for name, calls in proc["calls"].items():
            row = table.setdefault(name.split(".")[0], {"calls": 0, "self_ms": 0.0})
            row["calls"] += calls
            row["self_ms"] += proc["self_ns"][name] / 1e6
    return table


def main() -> int:
    tracer = Tracer(Path(sys.argv[1]))
    install(tracer)
    multiprocessing.util.register_after_fork(tracer, Tracer.start_worker)
    from rskcheck import cli

    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
