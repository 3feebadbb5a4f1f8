"""Per-layer tracing by wrapping the library's public callables from outside.

``Tracer.install`` wraps, in each layer module, every public function and the
``__init__`` and public methods of every public class defined there.  A
wrapped function is rebound under every name any ``nomfix`` module holds it
by (``nomfix.fsfunc.make_perm`` as well as ``nomfix.perm.make_perm``), so
calls between modules are counted too; classes are patched in place.

For each wrapped callable it records the exact call count and the wall time
of its outermost activations (recursive re-entries are not double counted);
for each module it records self time, the time inside its wrapped calls minus
the time inside wrapped calls nested in them.
"""

import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("perm", "values", "nomset", "abstraction", "fsfunc", "serialize",
          "termgraph", "nomauto", "cli")


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0
    active: int = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self._stack = []
        self._undo = []

    def _wrap(self, layer, key, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.active -= 1
                if not stat.active:
                    stat.seconds += elapsed
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        return wrapper

    def install(self):
        modules = {layer: sys.modules[f"nomfix.{layer}"] for layer in LAYERS}
        holders = [m for name, m in sys.modules.items()
                   if name == "nomfix" or name.startswith("nomfix.")]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, f"{layer}.{name}", obj)
                    for holder in holders:
                        for alias, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, alias, wrapped)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not inspect.isfunction(member):
                            continue
                        if attr == "__init__":
                            key = f"{layer}.{name}"
                        elif not attr.startswith("_"):
                            key = f"{layer}.{name}.{attr}"
                        else:
                            continue
                        self._set(obj, attr, self._wrap(layer, key, member))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def calls(self, key):
        stat = self.stats.get(key)
        return stat.calls if stat else 0

    def seconds(self, key):
        stat = self.stats.get(key)
        return stat.seconds if stat else 0.0
