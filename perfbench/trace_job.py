"""Traced driver: run one grouplab CLI job in this interpreter, with spans.

    python3 perfbench/trace_job.py SPANS_OUT JOB_ID -- <grouplab arguments>

Before calling ``grouplab.cli.main``, every public function of the layers in
`layers.py` is replaced by a wrapper in every ``grouplab.*`` namespace that
binds it, because modules import each other's functions by name.  Each call
records a span (name, start, end, parent span, whether it raised, and for
the enumerators the length of the returned list).  Spans stay in memory and
are written to SPANS_OUT once, when the job ends.  The exit code is the
CLI's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import ENUMERATORS, FUNCTIONS, MODULES  # noqa: E402


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        record_length = name in ENUMERATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_index, clock(), 0, stack[-1], 0, -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if record_length:
                span[5] = len(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function of the traced layers wherever it is bound."""
    importlib.import_module("grouplab.cli")
    wrappers: dict[int, object] = {}
    for short in MODULES:
        module = importlib.import_module(f"grouplab.{short}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                wrappers[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
        for fn in FUNCTIONS.get(short, ()):
            cls_name, _, method = fn.rpartition(".")
            attr = "__init__" if method == "init" else method
            cls = getattr(module, cls_name, None)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, tracer.wrap(f"{short}.{fn}", vars(cls)[attr]))
            elif cls_name or id(getattr(module, fn, None)) not in wrappers:
                # its metrics read 0; the job itself still runs
                sys.stderr.write(f"trace_job: grouplab.{short} does not define {fn}\n")
    for modname, module in list(sys.modules.items()):
        if modname != "grouplab" and not modname.startswith("grouplab."):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def main() -> int:
    out_path, job_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    install(tracer)
    from grouplab.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        Path(out_path).write_text(json.dumps({"job": job_id, "names": tracer.names,
                                              "spans": tracer.spans}), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
