"""In-memory span recorder and the import-site patches that feed it.

Spans come only from wrappers this file installs around public functions of
each susyspectra module; nothing inside the package changes.  Every wrapper
is installed at each name the caller looks up (``cli.solve_morse`` and
``analysis.solve_morse`` get the same wrapper), so a call is recorded once.

A span holds name, start, end, parent span, thread id and the index of the
benchmark op it belongs to.  Pool threads (``gamma_sweep``) start with an
empty stack; their first span is parented to the innermost span open on the
thread that owns the op, which is the ``gamma_sweep`` call that started them.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans of one traced run, kept in memory until the run writes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._owner = threading.get_ident()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        span = Span(name, time.perf_counter(), math.nan, parent,
                    threading.get_ident(), self.op)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int, **counts) -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].counts.update(counts)
        self._stack().pop()

    def wrap(self, fn, name: str, count=None):
        """Wrapper recording one span per call; count(args, kwargs, result)
        returns the counters attached to the span (result is None when the
        call raised)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts = count(args, kwargs, None) if count else {}
                self.end(idx, raised=type(exc).__name__, **counts)
                raise
            self.end(idx, **(count(args, kwargs, result) if count else {}))
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "thread": s.thread, "op": s.op,
                 "counts": s.counts} for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the part of the span's interval its children cover
    (children on pool threads may overlap; the union is subtracted)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run = None
        for lo, hi in sorted(children.get(i, ())):
            if run is None or lo > run[1]:
                if run is not None:
                    covered += run[1] - run[0]
                run = [lo, hi]
            else:
                run[1] = max(run[1], hi)
        if run is not None:
            covered += max(0.0, run[1] - run[0])
        out.append(max(0.0, (s.end - s.start) - covered))
    return out


def _size(x) -> int:
    return int(np.size(x))


def _solve_counts(args, kwargs, result) -> dict:
    """Counters for analysis.solve_morse/solve_pt(params, kind, grid): the
    closed-form level count for the kind (partner wells lose the zero mode)
    and the levels returned."""
    params = args[0]
    kind = kwargs.get("kind", args[1] if len(args) > 1 else "shifted")
    strength = params.a if hasattr(params, "a") else params.mu
    expected = int(math.ceil(strength - 1e-9))
    if kind == "partner":
        expected -= 1
    levels = 0 if result is None else int(result.bound_count)
    return {"levels": levels, "levels_expected": expected}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every traced name; returns (module, attr, original) triples for
    ``uninstall``."""
    from susyspectra import analysis, cli, eigensolver, numerics, transforms

    patched: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}

    def wrapped(original, name, count):
        if id(original) not in wrappers:
            wrappers[id(original)] = tracer.wrap(original, name, count)
        return wrappers[id(original)]

    def patch(module, attr, name, count=None):
        original = getattr(module, attr)
        setattr(module, attr, wrapped(original, name, count))
        patched.append((module, attr, original))

    def patch_dict(table: dict, name, count=None):
        for key, original in list(table.items()):
            table[key] = wrapped(original, name, count)
            patched.append((table, key, original))

    # numerics
    patch(numerics, "_sturm_counts", "numerics.sturm")
    patch(eigensolver, "tridiag_eigen", "numerics.tridiag_eigen",
          lambda a, k, r: {"pairs": len(r or ())})
    bessel_count = lambda a, k, r: {"elements": _size(a[1])}
    patch(transforms, "bessel_j", "numerics.bessel_j", bessel_count)
    patch(numerics, "bessel_j", "numerics.bessel_j", bessel_count)
    patch(transforms, "integrate_oscillatory_bessel", "numerics.oscillatory",
          lambda a, k, r: {"evaluations": r.evaluations if r else 0})
    patch(transforms, "cubic_interp", "numerics.cubic_interp",
          lambda a, k, r: {"points": _size(a[3])})

    # transforms
    patch(transforms, "hankel", "transforms.hankel",
          lambda a, k, r: {"mac": int(a[1].nodes.size) * _size(a[2])})
    patch(cli, "wavefunction_map", "transforms.wavefunction_map")
    patch(cli, "potential_term_map", "transforms.term_map",
          lambda a, k, r: {"max_residual": r.max_residual if r else 0.0})
    patch(cli, "potential_term_sandwich", "transforms.sandwich")
    for module in (cli, transforms):
        patch(module, "morse_state_on_plan", "transforms.resample")
    patch(cli, "pt_state_on_nodes", "transforms.resample")

    # eigensolver
    patch(analysis, "solve_bound_states", "eigensolver.solve",
          lambda a, k, r: {"nodes": int(a[1].n)})
    patch(eigensolver, "discretize", "eigensolver.discretize")

    # potentials: sampled through the kind tables (solves) and by name
    # (potential-curve); rho_min through the default grids and the CLI
    sample_count = lambda a, k, r: {"points": _size(a[1])}
    patch_dict(analysis._MORSE_KINDS, "potentials.sample", sample_count)
    patch_dict(analysis._PT_KINDS, "potentials.sample", sample_count)
    for attr in ("morse_shifted", "morse_partner", "morse_generalized",
                 "pt_shifted", "pt_partner", "pt_generalized"):
        patch(cli, attr, "potentials.sample", sample_count)
    for module in (cli, eigensolver):
        patch(module, "morse_rho_min", "potentials.rho_min")
    patch(cli, "pt_rho_min", "potentials.rho_min")

    # analysis
    for module in (cli, analysis):
        patch(module, "solve_morse", "analysis.solve", _solve_counts)
        patch(module, "solve_pt", "analysis.solve", _solve_counts)
    patch(cli, "gamma_sweep", "analysis.gamma_sweep")

    # cli
    patch(cli, "write_table", "cli.write_table",
          lambda a, k, r: {"bytes": a[0].stat().st_size if a[0].exists() else 0})
    return patched


def uninstall(patched) -> None:
    for target, key, original in reversed(patched):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, measured on a no-op."""
    noop = lambda *a, **k: None
    wrapped = Tracer().wrap(noop, "calibrate")
    t0 = time.perf_counter()
    for _ in range(n):
        noop(1)
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped(1)
    return max(0.0, (time.perf_counter() - t0 - bare) / n)
