"""The kernel's one observation seam.

Tooling that watches a simulation — telemetry epochs, the runtime
sanitizer, span tracing — never reaches into
the kernel and the kernel never imports it.  Instead a tool installs a
*construction hook* here (:func:`add_hook`); every new
:class:`~repro.sim.Simulator` runs the installed hooks, which may attach
a tracer (``sim.tracer``) or append an :class:`Observer` to
``sim.observers``.

With no observer attached, :meth:`Simulator.run` takes its plain loop
and pays nothing per event.  With any attached, it drives
:meth:`Simulator.step`, which calls every observer in attachment order.
Observers only *watch*: they must not schedule events, acquire
resources or move the clock, so an observed run is bit-identical to a
plain one.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple


class Observer:
    """No-op base for kernel observers; override the hooks you need."""

    __slots__ = ()

    def on_event(self, when: int, event: Any) -> None:
        """A live event was popped at ``when`` and is about to run."""

    def on_stop(self, drained: bool) -> None:
        """A ``run`` call returned; ``drained`` when the queue ran dry
        with no deadline (the point where nothing can happen any more)."""

    def on_failure(self, error: BaseException) -> None:
        """A ``run_process`` call is about to raise ``error``."""

    def watch_process(self, process: Any) -> None:
        """A process was created."""

    def watch_resource(self, resource: Any) -> None:
        """A resource was created."""

    def on_double_cancel(self, timeout: Any) -> None:
        """An already-cancelled timeout was cancelled again."""


_hooks: List[Callable[[Any], None]] = []


def add_hook(hook: Callable[[Any], None]) -> None:
    """Run ``hook(sim)`` for every simulator built from now on (idempotent)."""
    if hook not in _hooks:
        _hooks.append(hook)


def remove_hook(hook: Callable[[Any], None]) -> None:
    """Stop running ``hook`` for new simulators (no-op if absent)."""
    if hook in _hooks:
        _hooks.remove(hook)


def hooks() -> Tuple[Callable[[Any], None], ...]:
    """The installed construction hooks, in installation order."""
    return tuple(_hooks)
