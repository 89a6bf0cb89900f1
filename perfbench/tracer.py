"""Outside-in span tracer for the qsvt_refine layers.

The tracer never edits the library. It replaces each named public
function with a timing wrapper at every ``qsvt_refine.*`` module binding
that holds the original function object, so calls made through
``from .numerics import svd`` in another module are seen too. A layer
whose function has been renamed, moved out of reach or deleted is simply
not wrapped and reports 0 calls; nothing raises. ``uninstall`` puts every
original back.

A span is ``(name, start, end, parent, request)``; ``parent`` is the index
of the enclosing span or -1. One thread, no queues: a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

PACKAGE = "qsvt_refine"

# (module, function) pairs wrapped in a traced run; the layer name is
# "<module>.<function>".
LAYERS = (
    ("numerics", "svd"),
    ("invpoly", "inverse_cheb_series"),
    ("invpoly", "enforce_qsvt_bounds"),
    ("invpoly", "max_abs_on_interval"),
    ("invpoly", "clenshaw_eval"),
    ("qsp_phases", "find_phases"),
    ("blockenc", "dilation_encoding"),
    ("qsvt_core", "apply_inverse_state"),
    ("qsvt_core", "build_u_phi"),
    ("refine", "denormalize"),
)

_MARK = "__perfbench_layer__"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def installed_wrappers() -> list[str]:
    """``module.attr`` of every tracer wrapper currently bound anywhere in
    the package (empty outside a traced run)."""
    found = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if callable(value) and hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
    return found


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.request = -1
        self.wrapped_layers: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._observers: dict[str, object] = {}

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                           self.request))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            _, _, _, parent, request = self.spans[index]
            self.spans[index] = (name, start, end, parent, request)

    def observe(self, layer: str, callback) -> None:
        """Call ``callback(args, kwargs, result)`` after each call of
        ``layer``; a callback that no longer fits the result is ignored."""
        self._observers[layer] = callback

    def _wrap(self, layer: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = original(*args, **kwargs)
            callback = self._observers.get(layer)
            if callback is not None:
                try:
                    callback(args, kwargs, result)
                except (TypeError, ValueError, AttributeError, IndexError, KeyError):
                    pass
            return result

        setattr(wrapper, _MARK, layer)
        return wrapper

    def install(self) -> list[str]:
        """Wrap every layer that can still be found; return the missing ones."""
        missing = []
        for mod_name, fn_name in LAYERS:
            layer = f"{mod_name}.{fn_name}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                missing.append(layer)
                continue
            original = getattr(home, fn_name, None)
            if not callable(original) or hasattr(original, _MARK):
                missing.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            self.wrapped_layers.append(layer)
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per-span self time in seconds, aligned with ``spans``."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, requests=None, weight=None) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` summed over spans, optionally
        only those of the given request ids, each span's self time
        multiplied by ``weight[request]`` when given."""
        out: dict[str, tuple[int, float]] = {}
        for (name, _, _, _, request), own in zip(self.spans, self.self_times()):
            if requests is not None and request not in requests:
                continue
            calls, secs = out.get(name, (0, 0.0))
            out[name] = (calls + 1, secs + own * (weight[request] if weight else 1.0))
        return out
