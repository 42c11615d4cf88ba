"""Host-time attribution per simulator layer, for the traced run only.

:func:`install` replaces public methods on the *instances* of a built
:class:`FullSystem` with wrappers that count calls and time them with
``perf_counter``.  Process-generator methods are timed per resume: the
wrapper steps the real generator itself and times each ``send``/``throw``,
so only host time spent inside the layer's frames is charged, never the
simulated waits between resumes.  A layer's self time is its inclusive
time minus the time of wrapped calls nested inside it.

The wrappers pass every yielded event and every sent value through
unchanged and schedule nothing, so a traced run must reproduce the
untraced run's outputs exactly; ``run.py`` checks that it does.
"""

from __future__ import annotations

from time import perf_counter
from types import GeneratorType
from typing import Dict, List, Tuple

#: layer name -> (attribute path from the FullSystem, public methods)
LAYER_METHODS: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {
    "core": [("", ("submit_io",))],
    "hostos": [("blocklayer", ("submit",)),
               ("blocklayer.scheduler", ("add", "next"))],
    "host": [("cpu", ("execute",)),
             ("memory", ("access",)),
             ("dma", ("to_device", "to_host", "control_to_device",
                      "control_to_host")),
             ("link", ("send", "receive", "mmio_write", "mmio_read"))],
    "nvme": [("adapter", ("submit", "interrupt")),
             ("controller", ("doorbell",))],
    "hil": [("ssd.hil", ("submit",))],
    "icl": [("ssd.icl", ("read", "write", "trim", "flush_all"))],
    "ftl": [("ssd.ftl", ("translate", "service_line_reads",
                         "service_line_write", "trim"))],
    "fil": [("ssd.fil", ("read", "program", "erase", "read_group",
                         "program_group"))],
    "storage": [("ssd.backend", ("read_page", "program_page",
                                 "program_multiplane", "erase_block"))],
    "computation": [("ssd.cores", ("execute",)),
                    ("ssd.dram", ("access",))],
    "setup": [("ssd", ("precondition_sequential",))],
}

LAYERS = tuple(LAYER_METHODS)


class LayerClock:
    """Per-layer call counts and self time for one traced repeat."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        # one accumulator of nested wrapped time per open frame; the
        # bottom entry collects top-level wrapped time
        self._stack: List[float] = [0.0]

    def wrapped_s(self) -> float:
        """Host time spent inside any wrapped call, nested or not."""
        return self._stack[0]

    def _timed(self, layer: str, step, arg):
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return step(arg)
        finally:
            elapsed = perf_counter() - t0
            nested = stack.pop()
            self.self_s[layer] += elapsed - nested
            stack[-1] += elapsed

    def _resumes(self, layer: str, gen: GeneratorType):
        """Drive ``gen`` exactly as ``yield from`` would, timing each resume."""
        send, throw = gen.send, gen.throw
        step, arg = send, None
        while True:
            try:
                target = self._timed(layer, step, arg)
            except StopIteration as stop:
                return stop.value
            try:
                arg = yield target
                step = send
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel
                step, arg = throw, exc

    def wrap(self, layer: str, method):
        def call(*args, **kwargs):
            self.calls[layer] += 1
            result = self._timed(layer, lambda _: method(*args, **kwargs), None)
            if isinstance(result, GeneratorType):
                return self._resumes(layer, result)
            return result
        return call


def _resolve(system, path: str):
    obj = system
    for name in filter(None, path.split(".")):
        obj = getattr(obj, name)
    return obj


def install(system, clock: LayerClock) -> None:
    """Shadow every listed public method on ``system``'s layer instances."""
    for layer, targets in LAYER_METHODS.items():
        for path, methods in targets:
            obj = _resolve(system, path)
            for name in methods:
                setattr(obj, name, clock.wrap(layer, getattr(obj, name)))
