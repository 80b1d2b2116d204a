"""Per-layer host self time from a ``sys.setprofile`` boundary hook.

A layer is a ``repro`` package (``repro.sim``, ``repro.dse``, ...).  The
hook keeps a stack of the layer each Python frame runs in.  Entering a
frame of another layer, or returning into one, closes the running
interval and charges it to the layer that was on top, so each layer gets
its *self* time: time with its own code on top of the stack.  A resumed
generator raises a ``call`` event, so resumes count as calls.  Frames
outside ``repro`` (numpy's Python code, the standard library, this
benchmark) and C functions have no layer of their own: they are charged
to the layer that called them.  Only layer changes read the clock.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import Any, Dict, Optional

#: layer of code that runs outside every ``repro`` frame (the benchmark)
HOST = "host"

_UNSET = object()


class LayerTracer:
    """Install with :meth:`start`, remove with :meth:`stop`; then read
    :attr:`self_s` and :attr:`calls` (both keyed by layer name)."""

    def __init__(self, package_dir: str) -> None:
        self._prefix = os.path.normpath(package_dir) + os.sep
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._layer_of: Dict[Any, Optional[str]] = {}

    def _classify(self, code: Any) -> Optional[str]:
        path = os.path.normpath(code.co_filename)
        if not path.startswith(self._prefix):
            layer = None
        else:
            head = path[len(self._prefix):].split(os.sep, 1)
            # Modules directly under repro/ (__init__, errors) form "repro".
            layer = sys.intern(head[0]) if len(head) == 2 else "repro"
        self._layer_of[code] = layer
        return layer

    def start(self) -> None:
        stack = [HOST]
        layer_of = self._layer_of
        classify = self._classify
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        state = [HOST, clock()]  # running layer, start of its interval

        def hook(frame: Any, event: str, arg: Any) -> None:
            if event == "call":
                code = frame.f_code
                layer = layer_of.get(code, _UNSET)
                if layer is _UNSET:
                    layer = classify(code)
                if layer is None:
                    layer = stack[-1]
                else:
                    calls[layer] += 1
                stack.append(layer)
            elif event == "return":
                if len(stack) > 1:
                    stack.pop()
                layer = stack[-1]
            else:
                return
            if layer is not state[0]:
                now = clock()
                self_s[state[0]] += now - state[1]
                state[0] = layer
                state[1] = now

        self._state = state
        sys.setprofile(hook)

    def stop(self) -> None:
        sys.setprofile(None)
        state = self._state
        self.self_s[state[0]] += time.perf_counter() - state[1]

    def repro_total(self) -> float:
        """Self time summed over every ``repro`` layer."""
        return sum(v for k, v in self.self_s.items() if k != HOST)
