"""Outside-in tracer: wraps besovlab's public functions without editing them.

Each traced function is replaced at every binding that refers to it: its
defining module and every besovlab module that imported it by name.
Methods are replaced on the class.  A wrapper records one span per call
(name, start, end, parent) plus one number of work done, in memory;
`restore` puts every original object back and checks that it did.
"""

import math
import sys
import time
from contextlib import contextmanager
from functools import update_wrapper

import numpy as np

from besovlab import association, besov, scales, signals  # noqa: F401  (loads every module)

# (module, attribute path, span name).  A name of None means the span name
# is chosen per call (lp_norm is split by its exponent p).
FUNCTIONS = [
    ("spectral", "lp_norm", None),
    ("spectral", "dft_synthesize", "spectral.dft_synthesize"),
    ("spectral", "convolve_scaled", "spectral.convolve_scaled"),
    ("spectral", "pairing", "spectral.pairing"),
    ("spectral", "SpectralFunction.derivative", "spectral.SpectralFunction.derivative"),
    ("spectral", "SpectralFunction.__post_init__", "spectral.SpectralFunction.construct"),
    ("kernels", "Kernel.profile", "kernels.Kernel.profile"),
    ("nets", "NetSpec.__call__", "nets.NetSpec.call"),
    ("nets", "net_sobolev_profile", "nets.net_sobolev_profile"),
    ("nets", "classify_moderate", "nets.classify_moderate"),
    ("nets", "classify_negligible", "nets.classify_negligible"),
    ("nets", "spike_integral", "nets.spike_integral"),
    ("association", "pairing_profile", "association.pairing_profile"),
    ("association", "association_verdict", "association.association_verdict"),
    ("scales", "critical_exponent", "scales.critical_exponent"),
    ("besov", "detect_regularity", "besov.detect_regularity"),
    ("besov", "detect_smooth", "besov.detect_smooth"),
] + [
    ("signals", f, "signals.generate")
    for f in ("dirac", "constant", "heaviside", "kink", "sine", "cosine", "lacunary", "bump")
]


def _lp_name(args, kwargs):
    p = args[1] if len(args) > 1 else kwargs["p"]
    if p is None or p == "inf" or math.isinf(float(p)):
        return "spectral.lp_norm.pinf"
    return f"spectral.lp_norm.p{float(p):g}"


def _windows_tried(args, kwargs, fit):
    """Candidate windows critical_exponent fitted, from its input and result."""
    if fit.is_sentinel:
        return 0.0
    n = (args[0] if args else kwargs["profile"]).norms
    usable = int(np.sum(n > scales.ZERO_RTOL * max(1.0, float(n.max()))))
    if fit.points == usable and fit.residual > scales.WINDOW_RESIDUAL_TOL:
        return float(usable - scales.MIN_WINDOW + 1)  # none clean: every window
    return float(usable - fit.points + 1)


class Tracer:
    """Spans in parallel lists; `work` holds one count per span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.work = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._seen_evals = set()
        self._eval_refs = []

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (set-up, one analysis)."""
        if name == "bench.analysis":
            self._seen_evals.clear()
            self._eval_refs.clear()
        idx = self._open(self._id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, work=None):
        tracer = self
        fixed = None if name is None else self._id(name)
        start, end, stack, spans_work = self.start, self.end, self._stack, self.work
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._id(_lp_name(args, kwargs))
            idx = tracer._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if work is not None:
                spans_work[idx] = work(args, kwargs, out)
            return out

        return update_wrapper(traced, fn)

    def _count_eval(self, args, kwargs, out):
        """1.0 for the first evaluation of a (net, eps) in this analysis."""
        key = (id(args[0]), float(args[1] if len(args) > 1 else kwargs["eps"]))
        if key in self._seen_evals:
            return 0.0
        self._seen_evals.add(key)
        self._eval_refs.append(args[0])  # keeps ids unique while the analysis runs
        return 1.0

    def install(self):
        """Wrap every traced function at every binding in a besovlab module."""
        modules = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("besovlab.")}
        work = {
            "spectral.dft_synthesize": lambda a, k, out: float(np.size(out)),
            "kernels.Kernel.profile": lambda a, k, out: float(np.size(out)),
            "scales.critical_exponent": _windows_tried,
            "besov.detect_regularity": lambda a, k, out: float(out.escalations),
            "nets.NetSpec.call": self._count_eval,
        }
        for mod, path, name in FUNCTIONS:
            owner = modules[mod]
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name, work.get(name)))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, name, work.get(name))
            for m in modules.values():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original back; raise if any binding is not the original."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched if vars(o)[a] is not orig]
        self._patched.clear()
        if wrong:
            raise RuntimeError(f"tracer left wrappers behind: {wrong}")

    def arrays(self):
        """Spans as numpy arrays, plus each span's self time in seconds."""
        name = np.asarray(self.name, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(dur.size)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, start, end, parent, dur - child

    def save(self, path):
        name, start, end, parent, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            work=np.asarray(self.work),
        )

