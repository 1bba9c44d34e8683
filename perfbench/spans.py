"""Per-layer spans recorded from outside the package.

Every public function of the traced ``locclab`` modules is wrapped, and the
wrapper is put in place of the original under every name that holds it in
any ``locclab`` module: ``from .worlds import deliver_pair`` binds the
function by value in ``cli``, ``bell`` and ``distinguish``, so patching
``worlds`` alone would miss those calls.  ``DensityMatrix.__post_init__``,
which validates every state built (an ``eigvalsh`` included), is wrapped on
the class as the span ``linalg.DensityMatrix``: its calls count the states
created.  A span's self time is its duration minus the durations of the
wrapped calls it made.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
import weakref
from collections import defaultdict

TRACED_MODULES = ("linalg", "worlds", "instruments", "protocols", "distinguish", "bell", "cli")
#: (module, class, method) wrapped on the class; the span is named ``module.class``.
TRACED_METHODS = (("linalg", "DensityMatrix", "__post_init__"),)


class Tracer:
    """Calls, self time and per-layer counters of the wrapped functions."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._distinct: dict[str, weakref.WeakSet] = defaultdict(weakref.WeakSet)
        self._local = threading.local()
        self._hooks = {
            "worlds.deliver_pair": self._count_world,
            "instruments.validate_instrument": self._count_instrument,
            "distinguish.accessible_distribution": self._count_branches,
            "bell.chsh_transcript": self._count_trials,
            "bell.format_transcript": self._count_rows,
            "cli.run": self._count_payload,
        }
        self._patched: list[tuple[object, str, object]] = []

    # -- counters at layer boundaries ------------------------------------

    def _first_seen(self, key: str, obj) -> None:
        # identity, held weakly: a new object reusing a dead one's id counts again
        seen = self._distinct[key]
        if obj not in seen:
            seen.add(obj)
            self.counts[key] += 1

    def _count_world(self, args, result):
        self._first_seen("worlds.distinct", args[0])

    def _count_instrument(self, args, result):
        self._first_seen("instruments.distinct", args[0])

    def _count_branches(self, args, result):
        self.counts["distinguish.branches"] += len(result.entries)

    def _count_trials(self, args, result):
        self.counts["bell.trials"] += result.shape[0]
        self.counts["bell.transcript_bytes"] += result.size * result.itemsize

    def _count_rows(self, args, result):
        self.counts["bell.format_transcript.rows"] += len(args[0])

    def _count_payload(self, args, result):
        self.counts["cli.payload_bytes"] += len(result.payload_text.encode("utf-8"))

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        local = self._local
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)  # time spent in wrapped children
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules wherever it is bound."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"locclab.{short}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{obj.__name__}", obj))
        for short, cls_name, method in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"locclab.{short}"), cls_name)
            original = vars(cls)[method]
            setattr(cls, method, self._wrap(f"{short}.{cls_name}", original))
            self._patched.append((cls, method, original))
        for modname, module in list(sys.modules.items()):
            if modname != "locclab" and not modname.startswith("locclab."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
