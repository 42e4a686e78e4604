"""Layer spans for the benchmark, recorded from outside the package.

A :class:`Tracer` wraps the public functions of each ``extgauss`` layer
and the ``numpy.linalg`` factorizations they call.  Installing it replaces
every binding of a wrapped function, in every ``extgauss`` module: the
package imports names directly (``from .subspace import intersect``), so
patching only the defining module would miss calls.  Spans are kept in
memory, one list per program, as ``[name, parent, start, end, extra]``;
nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# layer -> wrapped callables, as "function" or "Class.method"
LAYERS = {
    "cli": ["main"],
    "dsl": ["parse", "typecheck", "interpret"],
    "extended": [
        "observe", "conditional", "compose", "tensor", "pushforward",
        "translate", "marginal", "ExtendedGaussianMap.__init__",
    ],
    "decorated": ["rel_compose", "rel_tensor", "DecoratedRelation.__init__"],
    "linrel": ["graph_decompose"],
    "gauss": ["conditional", "psd_normalize", "GaussianMap.__init__"],
    "subspace": [
        "Subspace.__init__", "Subspace.annihilator", "orthonormal_columns",
        "intersect", "minkowski_sum", "image", "structured_complement",
        "oblique_projector", "pseudoinverse",
    ],
}

# numpy.linalg entry points counted as one factorization each; "norm2" is
# norm(A, 2) of a matrix, which numpy computes with an SVD
LINALG = ["svd", "eigh", "eigvalsh", "pinv", "solve", "norm2"]


def span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.replace('__init__', 'init')}"


FUNCTIONS = [span_name(layer, t) for layer, targets in LAYERS.items() for t in targets]


def _svd_flops(p: int, q: int, uv: bool, full: bool) -> float:
    """Golub-Reinsch SVD counts (Golub & Van Loan) for a p-by-q matrix."""
    p, q = max(p, q), min(p, q)
    if not uv:
        return 4 * p * q * q - 4 * q**3 / 3
    if full:
        return 4 * p * p * q + 8 * p * q * q + 9 * q**3
    return 14 * p * q * q + 8 * q**3


def linalg_flops(kind: str, args, kwargs) -> float:
    """Operation count of one call, computed from shapes, not measured."""
    a = np.shape(args[0])
    if kind == "svd":
        return _svd_flops(a[-2], a[-1], kwargs.get("compute_uv", True),
                          kwargs.get("full_matrices", True))
    if kind == "eigh":
        return 9 * a[-1] ** 3
    if kind == "eigvalsh":
        return 4 * a[-1] ** 3 / 3
    if kind == "pinv":
        p, q = max(a[-2], a[-1]), min(a[-2], a[-1])
        return _svd_flops(p, q, True, False) + 2 * p * q * q
    if kind == "solve":
        b = np.shape(args[1])
        n, k = a[-1], (b[-1] if len(b) == len(a) else 1)
        return 2 * n**3 / 3 + 2 * n * n * k
    return _svd_flops(a[-2], a[-1], False, False)  # norm2


def _is_spectral_norm(args, kwargs) -> bool:
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return order == 2 and np.ndim(args[0]) == 2


class Tracer:
    """Wrappers for every layer; :meth:`install` and :meth:`uninstall` swap them in.

    ``spans`` holds the current program's spans; :meth:`begin` starts a
    new program.  A linalg call made while another is running (``pinv``
    and ``norm(., 2)`` call ``svd``) is not recorded, so each top-level
    factorization counts once.
    """

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.in_linalg = False
        self.seen_bases: set = set()
        self._patches = self._plan()

    def begin(self):
        self.spans = []
        self.stack = [-1]
        self.seen_bases = set()

    def _record(self, name, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            rec = [name, tracer.stack[-1], 0.0, 0.0,
                   extra(args, kwargs) if extra else 0.0]
            tracer.stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                tracer.stack.pop()

        return wrapper

    def _linalg(self, kind, fn):
        tracer = self
        recorded = self._record(f"linalg.{kind}", fn,
                                lambda args, kwargs: linalg_flops(kind, args, kwargs))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_linalg or (kind == "norm2" and not _is_spectral_norm(args, kwargs)):
                return fn(*args, **kwargs)
            tracer.in_linalg = True
            try:
                return recorded(*args, **kwargs)
            finally:
                tracer.in_linalg = False

        return wrapper

    def _repeat_basis(self, args, kwargs) -> float:
        basis = args[0].basis
        key = (basis.shape, basis.tobytes())
        if key in self.seen_bases:
            return 1.0
        self.seen_bases.add(key)
        return 0.0

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        import extgauss.cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "extgauss" or n.startswith("extgauss."))]
        patches = []
        for layer, targets in LAYERS.items():
            home = sys.modules[f"extgauss.{layer}"]
            for target in targets:
                name = span_name(layer, target)
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    extra = self._repeat_basis if name == "subspace.Subspace.annihilator" else None
                    patches.append((cls, meth, original, self._record(name, original, extra)))
                    continue
                original = getattr(home, target)
                wrapper = self._record(name, original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            patches.append((module, attr, original, wrapper))
        for kind in LINALG:
            attr = "norm" if kind == "norm2" else kind
            original = getattr(np.linalg, attr)
            patches.append((np.linalg, attr, original, self._linalg(kind, original)))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def summarize(spans: list) -> dict:
    """Per span name: [calls, inclusive ms, self ms, sum of extras].

    Self time is a span's duration minus the durations of its recorded
    children, so the self times of one program add up to the root span.
    The row ``gauss.psd_normalize.clamps`` counts the ``eigh`` calls made
    directly by ``psd_normalize``: its clamp path.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    clamps = 0
    for i, (name, parent, start, end, extra) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) * 1e3
        row[2] += (end - start - child_time[i]) * 1e3
        row[3] += extra
        if name == "linalg.eigh" and parent >= 0 and spans[parent][0] == "gauss.psd_normalize":
            clamps += 1
    out["gauss.psd_normalize.clamps"] = [clamps, 0.0, 0.0, 0.0]
    return out
