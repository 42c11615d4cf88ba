"""Sampling self-profiler: where does *simulation* host time go?

The paper's pitch — modeling all SSD resources is affordable — lives or
dies on simulator speed, and the next speedup needs to know **which
models burn the host CPU**, not just how long a whole run took.
Tracing (:mod:`repro.sim.tracer`) answers that in *simulated* time;
this module answers it in *host* time.

:func:`enable_profiling` arms ``ITIMER_PROF`` at a fixed
:data:`INTERVAL_S` of process CPU time (the kernel rounds it up to its
tick) and installs a ``SIGPROF`` handler.  Each sample walks the
interrupted stack toward the root and is charged to the innermost frame
whose code lives in a **model layer**
(``core``/``hostos``/``host``/``nvme``/``icl``/``ftl``/``gc``/``fil``/…,
see :func:`_categorize`).  A stack whose only repro frames are the
kernel's is charged to ``sim``; a stack with no ``Simulator.run`` frame
at all — building systems, preconditioning bookkeeping, rendering — is
charged to ``setup``.  :func:`attribution` turns sample counts into
seconds: each layer's share of the samples times the process CPU
seconds measured since :func:`enable_profiling`.

Nothing is attached to any simulator — no construction hook, no
observer — so a profiled run takes the kernel's plain loop and is
**bit-identical** to an unprofiled one (``tests/test_obs_profiler.py``
pins this against the perf scenarios); the handler only reads frames.
Its cost is one short stack walk per sample, not a clock read per
event.

Exports: :func:`attribution` (per-layer totals), :func:`hottest_layers`
and :func:`attribution_markdown` (the table the next perf change
reads), written by :func:`write_profile`.  CLI surface: ``--profile``
on ``python -m repro.experiments`` and on ``python -m repro.fleet run``
(per-job layer totals land in the run journal).

This module is one of simlint's designated wall-clock modules (SIM110):
its process-time reads never enter simulated results.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.sim import Simulator

#: (path fragment, layer) — first match wins, checked on "/"-normalized
#: code-object filenames; the order goes from most to least specific.
_CATEGORY_RULES: Tuple[Tuple[str, str], ...] = (
    ("/repro/ssd/firmware/ftl/gc", "gc"),
    ("/repro/ssd/firmware/ftl/", "ftl"),
    ("/repro/ssd/firmware/icl", "icl"),
    ("/repro/ssd/firmware/fil", "fil"),
    ("/repro/ssd/firmware/", "hil"),
    ("/repro/ssd/storage/", "flash"),
    ("/repro/ssd/", "ssd"),
    ("/repro/interfaces/nvme/", "nvme"),
    ("/repro/interfaces/sata/", "sata"),
    ("/repro/interfaces/ufs/", "ufs"),
    ("/repro/interfaces/ocssd/", "ocssd"),
    ("/repro/interfaces/", "interface"),
    ("/repro/hostos/", "hostos"),
    ("/repro/host/", "host"),
    ("/repro/core/", "core"),
    ("/repro/workloads/", "core"),
    ("/repro/baselines/", "baseline"),
    ("/repro/sim/", "sim"),
)

#: sampling interval in seconds of process CPU time
INTERVAL_S = 0.001

#: the frame that marks "inside a simulation run"
_RUN_CODE = Simulator.run.__code__

#: id(code object) -> (layer, "file:function"), memoized across samples;
#: keyed by identity because code objects from different files compare
#: equal when their bodies match.  ``_codes`` keeps the ids from reuse.
_by_code: Dict[int, Tuple[str, str]] = {}
_codes: List[Any] = []
#: (charged layer, charged site) -> sample count
_samples: Dict[Tuple[str, str], int] = {}
_unattributed = 0
_cpu_start = 0.0
#: process CPU seconds sampled by the last finished profiling session
_cpu_s = 0.0
#: the SIGPROF handler to restore; None while profiling is off
_previous_handler: Any = None
_armed = False


def profiling_enabled() -> bool:
    """True while the sampling timer is armed."""
    return _armed


def enable_profiling() -> None:
    """Start sampling this process; drops any previous samples."""
    global _previous_handler, _armed, _unattributed, _cpu_start
    if _armed:
        disable_profiling()
    _samples.clear()
    _unattributed = 0
    _previous_handler = signal.signal(signal.SIGPROF, _on_sample)
    _armed = True
    _cpu_start = time.process_time()  # simlint: disable=SIM101 -- the profiler measures host time; it never enters simulated results
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def disable_profiling() -> None:
    """Disarm the timer and restore the previous ``SIGPROF`` handler.

    The collected samples stay readable until the next
    :func:`enable_profiling`.
    """
    global _previous_handler, _armed, _cpu_s
    if not _armed:
        return
    signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
    _cpu_s = _cpu_now()
    signal.signal(signal.SIGPROF, _previous_handler)
    _previous_handler = None
    _armed = False


def _cpu_now() -> float:
    """Process CPU seconds since :func:`enable_profiling`."""
    return time.process_time() - _cpu_start  # simlint: disable=SIM101 -- the profiler measures host time; it never enters simulated results


def _categorize(filename: Optional[str]) -> str:
    """Map a code-object filename onto its layer category."""
    if not filename:
        return "sim"
    path = filename.replace(os.sep, "/")
    for marker, category in _CATEGORY_RULES:
        if marker in path:
            return category
    return "other"


def _site(code) -> Tuple[str, str]:
    """The memoized (layer, ``file:function``) of a code object."""
    hit = _by_code.get(id(code))
    if hit is None:
        filename = code.co_filename
        hit = _by_code[id(code)] = (
            _categorize(filename),
            f"{os.path.basename(filename)}:{code.co_name}")
        _codes.append(code)
    return hit


def _charge(frame) -> Tuple[str, str]:
    """The (layer, site) one sample of the stack at ``frame`` pays.

    The innermost model-layer frame wins; failing that the innermost
    kernel frame, booked under ``sim``.  Without a ``Simulator.run``
    frame anywhere on the stack the sample is ``setup``.
    """
    innermost = _site(frame.f_code)
    layer = kernel = None
    while frame is not None:
        code = frame.f_code
        if code is _RUN_CODE:
            return layer or kernel or ("sim", _site(code)[1])
        if layer is None:
            hit = _site(code)
            if hit[0] == "sim":
                if kernel is None:
                    kernel = hit
            elif hit[0] != "other":
                layer = hit
        frame = frame.f_back
    return ("setup", (layer or kernel or innermost)[1])


def _on_sample(_signum, frame) -> None:
    """``SIGPROF`` handler: charge one sample to the interrupted stack."""
    global _unattributed
    if frame is None:
        _unattributed += 1
        return
    key = _charge(frame)
    _samples[key] = _samples.get(key, 0) + 1


# -- aggregation and exports --------------------------------------------------


def attribution() -> Dict:
    """Per-layer host-time attribution of the samples taken so far.

    ``layers`` maps layer -> ``{"samples", "seconds", "share"}`` where
    ``share`` is the layer's fraction of all samples and ``seconds`` that
    share of ``cpu_s``, the process CPU time from
    :func:`enable_profiling` to now (or to :func:`disable_profiling`).
    ``sites`` keeps the finer ``file:function`` grain of the charged
    frames.  The "attribute >= 95% of samples" contract is pinned by
    test.
    """
    samples = dict(_samples)    # one C-level copy: no sample lands mid-read
    cpu_s = _cpu_now() if _armed else _cpu_s
    attributed = sum(samples.values())
    total = attributed + _unattributed
    layers: Dict[str, Dict[str, float]] = {}
    sites: Dict[str, Dict[str, float]] = {}
    for (layer, site), count in samples.items():
        for table, key in ((layers, layer), (sites, site)):
            entry = table.setdefault(key, {"samples": 0, "seconds": 0.0})
            entry["samples"] += count
    for table in (layers, sites):
        for entry in table.values():
            entry["share"] = entry["samples"] / total
            entry["seconds"] = entry["share"] * cpu_s
    return {
        "cpu_s": cpu_s,
        "interval_s": INTERVAL_S,
        "samples": total,
        "attributed_fraction": attributed / total if total else 0.0,
        "layers": layers,
        "sites": sites,
    }


def hottest_layers(doc: Dict, n: int = 3) -> List[str]:
    """The ``n`` layers with the most attributed host time, hottest first."""
    ranked = sorted(doc["layers"].items(),
                    key=lambda item: (-item[1]["seconds"], item[0]))
    return [name for name, _entry in ranked[:n]]


def attribution_markdown(title: str = "Host-time attribution") -> str:
    """Render :func:`attribution` as the Markdown table CI uploads."""
    doc = attribution()
    out: List[str] = [f"# {title}", ""]
    out.append(f"Sampled {doc['cpu_s']:.4f}s of process CPU time: "
               f"{doc['samples']} sample(s) at a "
               f"{doc['interval_s'] * 1e3:g} ms interval, "
               f"{doc['attributed_fraction'] * 100.0:.1f}% attributed "
               "(`sim` = kernel loop only, `setup` = outside any run).")
    out += ["", "| layer | samples | CPU ms | share |",
            "|---|---:|---:|---:|"]
    for name in hottest_layers(doc, n=len(doc["layers"])):
        entry = doc["layers"][name]
        out.append(f"| `{name}` | {entry['samples']} "
                   f"| {entry['seconds'] * 1e3:.2f} "
                   f"| {entry['share'] * 100.0:.1f}% |")
    top = hottest_layers(doc)
    if top:
        out += ["", "Top-{n} hottest layers: {names}.".format(
            n=len(top), names=", ".join(f"`{name}`" for name in top))]
    hot_sites = sorted(doc["sites"].items(),
                       key=lambda item: (-item[1]["seconds"], item[0]))[:10]
    if hot_sites:
        out += ["", "| hottest call sites | samples | CPU ms |",
                "|---|---:|---:|"]
        for name, entry in hot_sites:
            out.append(f"| `{name}` | {entry['samples']} "
                       f"| {entry['seconds'] * 1e3:.2f} |")
    out.append("")
    return "\n".join(out)


def write_profile(base_path,
                  title: str = "Host-time attribution") -> List[str]:
    """Write ``<base>.md``; returns the written paths.

    The CLI surface (``--profile``) funnels here so every entry point
    emits the same artifact.
    """
    base = str(base_path)
    if base.endswith(".md"):
        base = base[:-len(".md")]
    markdown_path = base + ".md"
    with open(markdown_path, "w", encoding="utf-8") as handle:
        handle.write(attribution_markdown(title=title))
    return [markdown_path]
