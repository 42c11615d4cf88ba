"""The simulation-safety lint rules (docs/ANALYSIS.md has the catalog).

Each rule encodes one invariant the simulator's determinism or resource
accounting depends on.  They are deliberately pragmatic AST checks — a
finding means "this pattern has bitten us or trivially could", not a
proof of a bug; genuinely intentional sites carry a
``# simlint: disable=RULE -- reason`` suppression where they live.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.registry import Site, SourceFile, rule

# -- shared AST helpers -------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted thing they import.

    ``import time as _time`` -> ``{"_time": "time"}``;
    ``from random import randint`` -> ``{"randint": "random.randint"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name != "*":
                    aliases[name.asname or name.name] = \
                        f"{node.module}.{name.name}"
    return aliases


def _resolve_call(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted name of a call target, alias-expanded."""
    dotted = _dotted(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expansion = aliases.get(head)
    if expansion is not None:
        return f"{expansion}.{rest}" if rest else expansion
    return dotted


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _has_own_yield(func: ast.AST) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _own_nodes(func))


# -- SIM101: wall-clock reads -------------------------------------------------

_WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@rule("SIM101", "wall-clock",
      "Host wall-clock reads are nondeterministic; simulated logic must "
      "derive every timestamp from `sim.now`. Measuring simulator *speed* "
      "is the one legitimate use — those sites are suppressed with the "
      "reason, and their outputs live in golden VOLATILE_KEYS.")
def check_wallclock(src: SourceFile) -> Iterator[Site]:
    aliases = _import_aliases(src.tree)
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Call):
            target = _resolve_call(node.func, aliases)
            if target in _WALLCLOCK:
                yield node, node.col_offset, \
                    f"wall-clock read `{target}()` in simulation code"


# -- SIM110: wall-clock containment -------------------------------------------

#: path fragments of the modules designated to read the wall clock:
#: the self-profiler, the run journal, worker lifecycle stamps and trace
#: replay.  Checked against "/"-normalized paths.
_WALLCLOCK_MODULES = (
    "repro/obs/profiler",
    "repro/obs/journal",
    "repro/fleet/runner",
    "repro/baselines/replay",
)


def _in_wallclock_module(path: str) -> bool:
    """Whether ``path`` is one of the designated wall-clock modules."""
    normalized = path.replace(os.sep, "/")
    return any(marker in normalized for marker in _WALLCLOCK_MODULES)


@rule("SIM110", "wall-clock-containment",
      "Wall-clock reads are only legal in the designated profiling "
      "modules (repro.obs.profiler, repro.obs.journal, "
      "repro.fleet.runner, repro.baselines.replay), whose outputs are "
      "declared wall-clock-tainted side artifacts. Anywhere else, even "
      "a *suppressed* SIM101 read is a containment leak: route it "
      "through repro.obs.journal.wall_now or move the code into a "
      "designated module, so `grep` over four files audits every clock "
      "in the tree.")
def check_wallclock_containment(src: SourceFile) -> Iterator[Site]:
    if _in_wallclock_module(src.path):
        return
    aliases = _import_aliases(src.tree)
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Call):
            target = _resolve_call(node.func, aliases)
            if target in _WALLCLOCK:
                yield node, node.col_offset, \
                    f"wall-clock read `{target}()` outside the designated " \
                    "profiling modules"


# -- SIM102: unseeded randomness ----------------------------------------------

_GLOBAL_RNG_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "expovariate", "betavariate", "paretovariate", "vonmisesvariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes", "seed",
}


@rule("SIM102", "unseeded-random",
      "The module-level `random.*` functions share one process-global, "
      "wall-clock-seeded RNG; any draw from it makes runs irreproducible. "
      "Construct `random.Random(seed)` and thread it explicitly.")
def check_unseeded_random(src: SourceFile) -> Iterator[Site]:
    aliases = _import_aliases(src.tree)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve_call(node.func, aliases)
        if target is None:
            continue
        if target.startswith("random.") and \
                target.split(".", 1)[1] in _GLOBAL_RNG_FNS:
            yield node, node.col_offset, \
                f"`{target}()` draws from the process-global RNG"
        elif target == "random.Random" and not node.args and not node.keywords:
            yield node, node.col_offset, \
                "`random.Random()` without a seed falls back to wall-clock " \
                "entropy"
        elif target.startswith("numpy.random.") or \
                target.startswith("np.random."):
            yield node, node.col_offset, \
                f"`{target}()` uses numpy's global RNG state; pass a " \
                "`numpy.random.Generator` seeded explicitly"


# -- SIM103: unordered iteration ----------------------------------------------


def _is_setish(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _dotted(node.func) in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_setish(node.left, set_names) or \
            _is_setish(node.right, set_names)
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


def _scopes(src: SourceFile) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
    """(scope node, its own statements) for the module and each function."""
    yield src.tree, list(_own_nodes_module(src.tree))
    for func in src.functions():
        yield func, list(_own_nodes(func))


def _own_nodes_module(tree: ast.Module) -> Iterator[ast.AST]:
    stack: List[ast.AST] = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@rule("SIM103", "unordered-iteration",
      "Iterating a set visits elements in hash order, which changes "
      "between interpreter runs under string-hash randomization; anything "
      "it feeds — event scheduling, float accumulation, victim selection — "
      "silently loses bit-reproducibility. Wrap the iterable in sorted().")
def check_unordered_iteration(src: SourceFile) -> Iterator[Site]:
    for _scope, nodes in _scopes(src):
        assigns: List[Tuple[int, str, bool]] = []
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                assigns.append((node.lineno, node.targets[0].id,
                                _is_setish(node.value, set())))

        def latest_is_set(name: str, before: int) -> bool:
            prior = [is_set for line, n, is_set in assigns
                     if n == name and line <= before]
            return bool(prior) and prior[-1]

        for node in nodes:
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                set_names = {name for line, name, is_set in assigns if is_set}
                direct = _is_setish(it, set())
                via_name = isinstance(it, ast.Name) and \
                    it.id in set_names and \
                    latest_is_set(it.id, node.lineno)
                if direct or via_name:
                    yield node, node.col_offset, \
                        "iteration over a set is hash-ordered and not " \
                        "reproducible across runs; use sorted(...)"


# -- SIM104: discarded waits / processes that never yield ---------------------

_EVENT_MAKERS = {"timeout", "acquire", "all_of", "any_of"}


@rule("SIM104", "discarded-event",
      "A wait primitive used as a bare statement is a silent no-op wait: "
      "the event is still created (and a Timeout still *schedules* itself, "
      "perturbing events_processed) but nobody resumes on it. Either "
      "`yield` it or don't create it. Also flags generator functions "
      "handed to `sim.process(...)` that contain no yield at all.")
def check_discarded_event(src: SourceFile) -> Iterator[Site]:
    # (a) expression statements that create-and-drop a wait
    for node in ast.walk(src.tree):
        if not (isinstance(node, ast.Expr) and
                isinstance(node.value, ast.Call)):
            continue
        call = node.value
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in _EVENT_MAKERS:
                yield node, node.col_offset, \
                    f"result of `.{func.attr}(...)` is discarded; the " \
                    "wait never happens"
            elif func.attr == "get" and not call.args and not call.keywords:
                yield node, node.col_offset, \
                    "result of `.get()` is discarded; the item (or the " \
                    "wait for it) is lost"
        else:
            dotted = _dotted(func)
            if dotted is not None and dotted.split(".")[-1] == "Timeout":
                yield node, node.col_offset, \
                    "Timeout(...) is discarded; it still schedules an event"

    # (b) local functions driven as processes but containing no yield
    defs: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(src.tree):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        name = None
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in {"process", "run_process"}:
            if node.args and isinstance(node.args[0], ast.Call):
                inner = node.args[0].func
                name = inner.attr if isinstance(inner, ast.Attribute) else \
                    (inner.id if isinstance(inner, ast.Name) else None)
        if name and name in defs and \
                all(not _has_own_yield(d) for d in defs[name]):
            yield node, node.col_offset, \
                f"`{name}` is driven as a process but never yields; " \
                "`process()` requires a generator function"


# -- SIM105: leaked timeouts --------------------------------------------------


@rule("SIM105", "timeout-leak",
      "A Timeout bound to a name that is never used again still fires: "
      "it sits in the heap, advances nothing, and inflates the schedule. "
      "Yield it, cancel() it, or stop creating it.")
def check_timeout_leak(src: SourceFile) -> Iterator[Site]:
    for func in src.functions():
        nodes = list(_own_nodes(func))
        loads: Dict[str, int] = {}
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[node.id] = loads.get(node.id, 0) + 1
        for node in nodes:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)):
                continue
            call_func = node.value.func
            is_timeout = (isinstance(call_func, ast.Attribute)
                          and call_func.attr == "timeout")
            if not is_timeout:
                dotted = _dotted(call_func)
                is_timeout = dotted is not None and \
                    dotted.split(".")[-1] == "Timeout"
            if is_timeout and not loads.get(node.targets[0].id):
                yield node, node.col_offset, \
                    f"timeout bound to `{node.targets[0].id}` is never " \
                    "yielded, cancelled or passed on — it still fires"


# -- SIM106: acquire/release pairing ------------------------------------------


def _finally_ranges(func: ast.AST) -> List[Tuple[int, int]]:
    ranges = []
    for node in _own_nodes(func):
        if isinstance(node, ast.Try) and node.finalbody:
            start = node.finalbody[0].lineno
            end = max(getattr(stmt, "end_lineno", stmt.lineno)
                      for stmt in node.finalbody)
            ranges.append((start, end))
    return ranges


@rule("SIM106", "acquire-release",
      "Every `Resource.acquire()` needs a `release()` on *all* exit paths "
      "of the same function: an exception (Interrupt, model error) thrown "
      "into the process between the two leaks the token and deadlocks "
      "every later waiter. Put the release in a try/finally when any "
      "yield sits between them.")
def check_acquire_release(src: SourceFile) -> Iterator[Site]:
    for func in src.functions():
        nodes = list(_own_nodes(func))
        acquires: List[Tuple[ast.Call, str]] = []
        releases: List[Tuple[ast.Call, str]] = []
        for node in nodes:
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                if node.func.attr == "acquire":
                    acquires.append((node, ast.unparse(node.func.value)))
                elif node.func.attr == "release":
                    releases.append((node, ast.unparse(node.func.value)))
        if not acquires:
            continue
        protected = _finally_ranges(func)
        yield_lines = sorted(n.lineno for n in nodes
                             if isinstance(n, (ast.Yield, ast.YieldFrom)))
        for call, recv in acquires:
            matching = [(n, any(lo <= n.lineno <= hi for lo, hi in protected))
                        for n, r in releases if r == recv]
            if not matching:
                yield call, call.col_offset, \
                    f"`{recv}.acquire()` has no matching " \
                    f"`{recv}.release()` in this function"
                continue
            after = [n.lineno for n, _p in matching if n.lineno > call.lineno]
            first_release = min(after) if after else max(
                n.lineno for n, _p in matching)
            crosses_yield = any(call.lineno < line < first_release
                                for line in yield_lines)
            if crosses_yield and not any(p for _n, p in matching):
                yield call, call.col_offset, \
                    f"`{recv}` is held across a yield but released " \
                    "outside try/finally; an exception leaks the token"


# -- SIM107: mutable default arguments ----------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque",
                  "defaultdict", "OrderedDict", "Counter"}


@rule("SIM107", "mutable-default",
      "A mutable default argument is shared across every call and every "
      "simulator instance — state leaks between supposedly independent "
      "runs, the classic cross-run determinism bug. Default to None.")
def check_mutable_default(src: SourceFile) -> Iterator[Site]:
    for func in src.functions():
        args = func.args
        for default in list(args.defaults) + \
                [d for d in args.kw_defaults if d is not None]:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                       ast.ListComp, ast.DictComp,
                                       ast.SetComp))
            if not bad and isinstance(default, ast.Call):
                dotted = _dotted(default.func)
                bad = dotted is not None and \
                    dotted.split(".")[-1] in _MUTABLE_CALLS
            if bad:
                yield default, default.col_offset, \
                    f"mutable default argument in `{func.name}()` is " \
                    "shared between calls"


# -- SIM109: fleet worker seeding ---------------------------------------------

#: substrings marking a function as a per-job/worker execution entry point
_WORKER_NAME_MARKERS = ("worker", "_job", "job_", "run_job")

#: names that, appearing anywhere in a seed expression, prove derivation
#: from the job's identity (config hash or a seed threaded from one)
_SEED_SOURCE_MARKERS = ("hash", "seed")

#: seed sources that vary with scheduling/host state, never with config
_FORBIDDEN_SEED_CALLS = {"os.getpid", "os.getppid", "os.urandom",
                         "uuid.uuid4", "id"}


def _seed_expr_verdict(expr: ast.AST,
                       aliases: Dict[str, str]) -> Optional[str]:
    """Why a worker seed expression is unacceptable, or None if fine."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            target = _resolve_call(node.func, aliases)
            if target in _FORBIDDEN_SEED_CALLS:
                return f"seeded from `{target}()`, which varies with " \
                       "scheduling, not with the job's configuration"
    mentions: List[str] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            mentions.append(node.id.lower())
        elif isinstance(node, ast.Attribute):
            mentions.append(node.attr.lower())
    derived = any(marker in name
                  for name in mentions
                  for marker in _SEED_SOURCE_MARKERS)
    if not derived:
        if not mentions:
            return "seeded from a constant: every job draws the same " \
                   "stream, so a fleet of 'independent' configs is N " \
                   "copies of one"
        return "seed does not derive from the job's config hash (no " \
               "`*hash*`/`*seed*` name in the expression)"
    return None


@rule("SIM109", "fleet-seed",
      "A worker-process RNG must be seeded from the job's config hash "
      "(repro.fleet.spec.derive_seed) — never from a constant, a pid, or "
      "the clock. A constant collapses the fleet onto one stream; "
      "pid/clock seeds make results depend on which worker ran the job, "
      "breaking the 1-worker == N-worker determinism guarantee and "
      "poisoning the content-addressed result cache.")
def check_fleet_seed(src: SourceFile) -> Iterator[Site]:
    aliases = _import_aliases(src.tree)
    for func in src.functions():
        name = func.name.lower()
        if not any(marker in name for marker in _WORKER_NAME_MARKERS):
            continue
        for node in _own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call(node.func, aliases)
            seed_args: List[ast.AST] = []
            if target == "random.Random" and node.args:
                seed_args.append(node.args[0])
            elif isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "seed" and node.args:
                seed_args.append(node.args[0])
            for arg in seed_args:
                verdict = _seed_expr_verdict(arg, aliases)
                if verdict is not None:
                    yield node, node.col_offset, \
                        f"worker `{func.name}` {verdict}"
