"""Per-layer tracing of the diskcontact library from outside it.

`Tracer.install()` wraps every public module-level function of each
layer module (plus `gf2.Eliminator.add`/`reduce`) and rebinds every
binding of it in the loaded `diskcontact.*` modules, because modules
import each other's functions by name (`kom` and `functor` both hold
their own `tight_basic`).  Nothing inside `src/` is edited.

Each wrapped call counts one call for its function and adds its duration,
minus the time of wrapped calls nested inside it, to its layer's self
time.  Spans (one per `run_suite` call or per query) record the layer
calls and self time accumulated between their start and end; they are
kept in memory and written out by the caller when the run ends.

Wrappers return exactly what the wrapped function returns and carry over
`cache_info`/`cache_clear`, so `lru_cache` statistics stay readable.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "diskcontact"
LAYERS = ("divset", "bypass", "homs", "functor", "kom", "gf2")


def _vectors_in(args, result) -> int:
    seq = args[0]
    return len(seq) if hasattr(seq, "__len__") else 0


# Work counters measured at chosen boundaries: key -> (counter name, amount).
# gf2 counters only count calls made from outside gf2, so a `solve` is not
# counted again through the `Eliminator.add` calls inside it.
_MEASURES = {
    "kom.map_basis": ("kom.map_basis.entries", lambda args, result: len(result)),
    "gf2.rank": ("gf2.vectors_reduced", _vectors_in),
    "gf2.solve": ("gf2.vectors_reduced", lambda args, result: len(args[0]) + 1),
    "gf2.nullspace": ("gf2.vectors_reduced", _vectors_in),
    "gf2.Eliminator.add": ("gf2.vectors_reduced", lambda args, result: 1),
    "gf2.Eliminator.reduce": ("gf2.vectors_reduced", lambda args, result: 1),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield name, obj


class Tracer:
    def __init__(self):
        self.layers = LAYERS
        self.calls: Counter = Counter()  # "layer.function" -> calls
        self.inclusive_s: Counter = Counter()  # "layer.function" -> seconds
        self.counts: Counter = Counter()  # entries of _MEASURES
        self.layer_calls = dict.fromkeys(self.layers, 0)
        self.layer_self_s = dict.fromkeys(self.layers, 0.0)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [layer, seconds in nested wrapped calls]
        self._undo: list[tuple] = []
        self._origin = time.perf_counter()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn):
        calls, inclusive, counts = self.calls, self.inclusive_s, self.counts
        layer_calls, layer_self, stack = self.layer_calls, self.layer_self_s, self._stack
        clock = time.perf_counter
        counter, amount = _MEASURES.get(key, (None, None))

        def traced(*args, **kwargs):
            outer = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if outer is not None:
                    outer[1] += dt
                layer_self[layer] += dt - frame[1]
                layer_calls[layer] += 1
                calls[key] += 1
                inclusive[key] += dt
            if counter is not None and not (layer == "gf2" and outer and outer[0] == "gf2"):
                counts[counter] += amount(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every reference."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in self.layers:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{name}", fn))
        gf2 = importlib.import_module(f"{PACKAGE}.gf2")
        for name in ("add", "reduce"):
            fn = vars(gf2.Eliminator)[name]
            self._rebind(gf2.Eliminator, name, self._wrap("gf2", f"gf2.Eliminator.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, hit[1])

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every rebound name."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- spans and readings ------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        calls0, self0 = dict(self.layer_calls), dict(self.layer_self_s)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append(
                {
                    "id": len(self.spans),
                    "parent": None,
                    "name": name,
                    **attrs,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    "layers": {
                        layer: {
                            "calls": self.layer_calls[layer] - calls0[layer],
                            "self_s": self.layer_self_s[layer] - self0[layer],
                        }
                        for layer in self.layers
                        if self.layer_calls[layer] != calls0[layer]
                    },
                }
            )

    def cache_entries(self) -> dict[str, int]:
        """Per layer, the summed `currsize` of every lru_cache its module
        defines, private ones included (not those it imports)."""
        out = {}
        for layer in self.layers:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            out[layer] = sum(
                obj.cache_info().currsize
                for obj in vars(module).values()
                if hasattr(obj, "cache_info")
                and getattr(obj, "__module__", None) == module.__name__
            )
        return out

    def snapshot(self) -> dict:
        """Everything measured so far, as plain JSON-ready data."""
        rc = importlib.import_module(f"{PACKAGE}.homs").rounded_components.cache_info()
        lookups = rc.hits + rc.misses
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
            "counts": dict(self.counts),
            "layer_calls": dict(self.layer_calls),
            "layer_self_s": dict(self.layer_self_s),
            "cache_entries": self.cache_entries(),
            "rounded_components_hit_ratio": rc.hits / lookups if lookups else 0.0,
            "spans": self.spans,
        }
