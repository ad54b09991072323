"""Spans around phaselab's public calls, installed from outside the program.

:class:`Tracer` wraps every public function of the six phaselab modules (the
names in each module's ``__all__``) at every module attribute that binds it.
That matters because the modules call each other through their own
bindings: ``cli_reporting`` imports names from ``fem2d``, ``parabolic`` and
``symmetry_checks`` with ``from ... import``, ``parabolic`` binds
``probe_deviation``, and ``fem2d.CircleSampler`` calls the module-global
``locate_points``.  ``CircleSampler.__init__`` and
``PhaseConfig.region_index_at`` are wrapped on their classes, which every
binding shares, and ``scipy.sparse.linalg.splu`` because ``parabolic``
calls it as ``spla.splu``.  :meth:`Tracer.remove` puts every original back.

A span records name, start, end and parent.  A span's self time is its
duration minus the durations of its child spans; the children of one span
never overlap, because phaselab runs one call at a time.  Counts are read
from returned objects or computed from array sizes where the work happens.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("geometry", "radial_core", "fem2d", "symmetry_checks", "parabolic", "cli_reporting")
METHODS = (("fem2d", "CircleSampler", "__init__"), ("geometry", "PhaseConfig", "region_index_at"))
SPLU = "parabolic.splu"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.installed: set[str] = set()
        self._wrappers: set = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        import scipy.sparse.linalg as spla

        pkg = [m for name, m in sys.modules.items() if name == "phaselab" or name.startswith("phaselab.")]
        for mod in MODULES:
            module = sys.modules.get(f"phaselab.{mod}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn in self._wrappers:
                    continue  # a class, a constant, or already wrapped under another name
                wrapper = self._wrap(f"{mod}.{attr}", fn)
                for holder in pkg:  # every module attribute that binds the function
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, name, wrapper)
        for mod, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"phaselab.{mod}"), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is not None:
                self._set(cls, meth, self._wrap(f"{mod}.{cls_name}.{meth}", fn))
        self._set(spla, "splu", self._wrap(SPLU, spla.splu, _record_factor))

    def remove(self) -> None:
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _set(self, holder, name: str, value) -> None:
        self._undo.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def _wrap(self, name: str, fn, on_return=None):
        self.installed.add(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1, "start": time.perf_counter()}
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            _record_counts(span, args, kwargs, out)
            if on_return is not None:
                on_return(span, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        self._wrappers.add(wrapper)
        return wrapper


def _record_counts(span: dict, args, kwargs, out) -> None:
    """Counts read from the returned objects; None where a field is gone."""
    name = span["name"]
    if name == "fem2d.solve_elliptic":
        span["solve_iterations"] = getattr(out, "iterations", None)
    elif name == "fem2d.assemble_system":
        span["free_dofs"] = len(out.free)  # computed
        span["stiffness_nnz"] = int(out.stiffness.nnz)  # computed
    elif name == "fem2d.locate_points":
        points = args[1] if len(args) > 1 else kwargs["points"]
        span["located_points"] = len(points)  # computed
    elif name == "parabolic.smallest_eigenvalue":
        span["eigen_iterations"] = getattr(out, "iterations", None)
    elif name == "parabolic.evolve":
        span["steps"] = getattr(out, "steps", None)


def _record_factor(span: dict, args, lu) -> None:
    span["factor_nnz"] = int(lu.nnz)  # entries SuperLU stores for L and U
    span["matrix_nnz"] = int(args[0].nnz)  # computed


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(spans: list[dict]) -> dict:
    """Per-name totals of self time, span time, calls and counters, for one pass.

    The result is plain JSON so a worker can send it to the benchmark runner.
    A factorization is filed under its parent's name (``parabolic.splu<evolve``)
    so the eigen-solver's factor and the step factors stay separate.
    """
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        name = s["name"]
        if name == SPLU:
            parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else "?"
            name = f"{SPLU}<{parent.rsplit('.', 1)[-1]}"
        counters = {k: v for k, v in s.items() if k not in ("name", "parent", "start", "end")}
        row = {"self_s": own, "total_s": s["end"] - s["start"], "calls": 1, **counters}
        _accumulate(out.setdefault(name, {}), row)
    return out


def merge_summaries(parts: list[dict]) -> dict:
    total: dict[str, dict] = {}
    for part in parts:
        for name, row in part.items():
            _accumulate(total.setdefault(name, {}), row)
    return total


def _accumulate(acc: dict, row: dict) -> None:
    """Add ``row`` into ``acc``; a counter missing (None) anywhere stays missing."""
    for key, value in row.items():
        prev = acc.get(key, 0)
        acc[key] = None if value is None or prev is None else prev + value
