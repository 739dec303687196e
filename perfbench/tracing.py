"""Span tracing of nilinv layer boundaries from outside the program.

The tracer replaces each listed public function by a wrapper in every
``nilinv`` module that holds a reference to it, so that calls between
modules (``checker.rank``, ``orbitlab.minor_poly`` ...) are caught, and
patches the listed ``Polynomial`` methods on the class.  Spans are kept in
memory as ``(name, start, end, parent, job)`` tuples and recorded only
while a job is open, so input generation and checking stay untraced.

``Polynomial.__mul__`` and ``__add__`` are deliberately not wrapped: they
run millions of times per pass and the wrapper would swamp the result.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _dim_m(ptype) -> int:
    sizes = ptype.block_sizes
    return sum(sizes[a] * sizes[b] for a in range(len(sizes)) for b in range(a + 1, len(sizes)))


# (layer, qualified name in its module, {count: value taken from (args, result)})
TRACED = [
    ("checker", "one_param_transform", {}),
    ("checker", "independence_details", {
        "attempts": lambda args, out: out.attempts,
        "verdicts": lambda args, out: int(out.independent),
    }),
    ("checker", "jacobian_rank_at", {}),
    ("checker", "case242_report", {}),
    ("invgen", "build_generators", {"terms_out": lambda args, out: sum(len(p.terms) for _, p in out.named())}),
    ("invgen", "invariant_values", {}),
    ("invgen", "y_coordinates", {}),
    ("invgen", "restrict", {}),
    ("exactpoly", "det_minor", {"terms_out": lambda args, out: len(out.terms)}),
    ("exactpoly", "rank", {"cells": lambda args, out: len(args[0]) * (len(args[0][0]) if args[0] else 0)}),
    ("exactpoly", "Polynomial.substitute", {}),
    ("exactpoly", "Polynomial.evaluate", {}),
    ("exactpoly", "Polynomial.derivative", {"terms_in": lambda args, out: len(args[0].terms)}),
    ("orbitlab", "orbit_dim", {"cells": lambda args, out: args[0].n * (args[0].n - 1) // 2 * _dim_m(args[0])}),
    ("orbitlab", "max_orbit_dim", {}),
    ("orbitlab", "reduce_to_canonical", {}),
    ("orbitlab", "verify_unique_intersection", {}),
    ("rootcomb", "compute_base", {}),
    ("rootcomb", "admissible_pairs", {}),
    ("rootcomb", "nilradical_roots", {}),
    ("rootcomb", "dims", {}),
    ("cli", "main", {}),
]

# rootcomb helpers are cheap and called everywhere; they are reported as one sum
SUMMED_LAYERS = {"rootcomb"}


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname}"


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its children.

    Children are clipped to their parent's interval, so the self times of a
    tree never sum to more than the duration of its root.
    """
    children = defaultdict(list)
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans at the traced boundaries while a job is open."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, counts: dict):
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job)
            for key, count in counts.items():
                self.counts[f"{name}.{key}"] += count(args, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every traced name in every loaded nilinv module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "nilinv" or n.startswith("nilinv.")]
        for layer, qualname, counts in TRACED:
            home = sys.modules[f"nilinv.{layer}"]
            name = span_name(layer, qualname)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, counts))
                continue
            original = getattr(home, qualname)
            wrapper = self.wrap(name, original, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, float]:
        """calls and self_s per traced function, plus the extra counts."""
        out: dict[str, float] = {}
        for layer, qualname, counts in TRACED:
            key = layer if layer in SUMMED_LAYERS else span_name(layer, qualname)
            out.setdefault(f"{key}.calls", 0)
            out.setdefault(f"{key}.self_s", 0.0)
            out.update({f"{key}.{count}": 0 for count in counts})
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            layer = name.split(".", 1)[0]
            key = layer if layer in SUMMED_LAYERS else name
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += own
        for name, value in self.counts.items():
            out[name] += value
        return out
