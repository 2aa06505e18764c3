"""Span recorder for the traced benchmark run.

Recorder wraps the public functions of segtool's modules from outside the
program: each call becomes a span (op, parent, name, layer, start, end,
size). A function is replaced in its defining module and under every name
other segtool modules imported it by, so calls made through `report`,
`cli` or `evaluation` are seen too. Spans stay in memory until the run
writes them out.

A layer's self time is its spans' durations minus the parts covered by
their child spans; time spent in unwrapped code (methods, private
helpers) counts toward the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("corpus", "agreement", "significance", "segmenters", "evaluation", "report", "cli")
# Public methods that do a layer's characteristic work.
METHODS = {"report": ("Report.to_tsv", "Report.to_json")}

OP, PARENT, NAME, LAYER, START, END, SIZE = range(7)


def _source_bytes(args, kwargs) -> int:
    """Input size of a corpus loader call: bytes given, or the file's size."""
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (bytes, bytearray)):
        return len(source)
    if isinstance(source, (str, os.PathLike)):
        return os.path.getsize(source)
    return 0


def _trials(args, kwargs) -> int:
    return int(kwargs["trials"] if "trials" in kwargs else args[2])


# Names whose calls also record a size: bytes read, or trials simulated.
SIZES = {
    "corpus.load_narrative": _source_bytes,
    "corpus.load_annotations": _source_bytes,
    "corpus.load_fic_coding": _source_bytes,
    "significance.null_calibration": _trials,
}


class Recorder:
    """Patches segtool's layers on enter and restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        """Start a new op: later spans share its identifier."""
        self.op += 1

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [self.op, stack[-1] if stack else -1, name, layer, clock(), 0,
                    size(args, kwargs) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Recorder":
        modules = {layer: importlib.import_module(f"segtool.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(layer, f"{layer}.{attr}", obj)
            for qualname in METHODS.get(layer, ()):
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self._wrap(layer, f"{layer}.{qualname}", getattr(cls, attr)))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON array per span: op, parent, name, layer, start_ns, end_ns, size."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def per_op(spans) -> dict[int, dict]:
    """Self time, call counts and sizes per op, by layer and by span name.

    Returns {op: {"self_ns": {layer: ns}, "calls": {layer: n},
    "name_calls": {name: n}, "name_ns": {name: inclusive ns},
    "name_size": {name: size}}}.
    """
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    ops: dict[int, dict] = {}
    for index, span in enumerate(spans):
        if span[OP] not in ops:
            ops[span[OP]] = {key: defaultdict(int) for key in
                             ("self_ns", "calls", "name_calls", "name_ns", "name_size")}
        stats = ops[span[OP]]
        duration = span[END] - span[START]
        stats["self_ns"][span[LAYER]] += duration - covered[index]
        stats["calls"][span[LAYER]] += 1
        stats["name_calls"][span[NAME]] += 1
        stats["name_ns"][span[NAME]] += duration
        stats["name_size"][span[NAME]] += span[SIZE]
    return ops
