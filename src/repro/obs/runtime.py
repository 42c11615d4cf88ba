"""Process-wide tracing switch and collection point.

Experiments build a fresh :class:`~repro.sim.Simulator` per data point,
so there is no single object a CLI flag could hand a tracer to.  This
module is the rendezvous: :func:`enable_tracing` installs a construction
hook (:mod:`repro.sim.observe`), after which every newly-constructed
``Simulator`` receives a live :class:`~repro.sim.tracer.Tracer`
(registered here for later export) instead of the shared
:data:`~repro.sim.tracer.NULL_TRACER`.  Metric snapshots taken at the
end of each run land here too, labelled per system.

With the switch off — the default, and the state every tier-1 test runs
under — no hook is installed and both collection functions are no-ops,
so simulation behaviour and figure output are byte-identical to a build
without this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs import causal as _causal
from repro.sim import observe
from repro.sim.tracer import Tracer

_active = False
_tracers: List[Tracer] = []
_metric_snapshots: List[Tuple[str, Dict[str, float]]] = []


def tracing_enabled() -> bool:
    """True while the process-wide tracing switch is on."""
    return _active


def enable_tracing() -> None:
    """Turn tracing on and clear anything collected previously."""
    global _active
    _active = True
    _tracers.clear()
    _metric_snapshots.clear()
    sync_tracer_hook()


def disable_tracing() -> None:
    """Turn tracing off and drop collected tracers and snapshots."""
    global _active
    _active = False
    _tracers.clear()
    _metric_snapshots.clear()
    sync_tracer_hook()


def sync_tracer_hook() -> None:
    """Install the tracer hook while tracing or causal capture is on."""
    if _active or _causal.causal_enabled():
        observe.add_hook(_attach)
    else:
        observe.remove_hook(_attach)


def _attach(sim) -> None:
    """Construction hook: give a new simulator a live tracer.

    When causal capture (:mod:`repro.obs.causal`) is armed the tracer is
    a :class:`~repro.obs.causal.CausalTracer` — still a full span tracer
    when plain tracing is *also* on (``retain_spans``), so Chrome-trace
    export and causal records come from one pass.
    """
    if _causal.causal_enabled():
        tracer: Tracer = _causal.causal_tracer_for(sim, retain_spans=_active)
    else:
        tracer = Tracer(sim)
    if _active:
        _tracers.append(tracer)
    sim.tracer = tracer


def tracers() -> List[Tracer]:
    """Every live tracer handed out since tracing was enabled."""
    return list(_tracers)


def label_latest_tracer(label: str) -> None:
    """Attach a human-readable label to the most recent tracer.

    Exporters show it as the Chrome-trace process name; harmless no-op
    when tracing is off.
    """
    if _tracers:
        _tracers[-1].label = label
    _causal.label_latest(label)


def collect_metrics(label: str, snapshot: Dict[str, float]) -> None:
    """Record one system's end-of-run metric snapshot (no-op when off)."""
    if _active:
        _metric_snapshots.append((label, dict(snapshot)))


def metric_snapshots() -> List[Tuple[str, Dict[str, float]]]:
    """Labelled metric snapshots collected since tracing was enabled."""
    return list(_metric_snapshots)
