"""Seeded analysis corpus of the benchmark workloads, and its answer checks.

A workload is an endless sequence of mix blocks.  Every block holds the
same multiset of analysis templates, so the mix proportions are exact over
whole blocks and run-to-run changes in the latency percentiles come from
the library, not from how many slow analyses a seed happened to draw.  The
seed shuffles each block and draws the open choices of its templates.
Every input is translated; a translation multiplies coefficient m by
exp(-i xi_m x0), which moves the input without changing the theoretical
answer.

The library receives only the generated SpectralFunctions and nets: signal
bases are built once in set-up, and translating them happens outside the
timed region.
"""

import hashlib
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from besovlab import association, besov, kernels, nets, signals
from besovlab.spectral import SpectralFunction, Torus

PAIR_SIGMA = 32.0
PAIR_ETA = 0.5
BATTERY_SIZE = 16
# a fixed battery: with a seeded one the largest rate error swung with the seed
BATTERY_SEED = 7
ASSOC_GRID = {"y_max": 0.5, "count": 32}
ASSOC_Q = 2
# smooth detections run up to k_max = 8 (the detector default)
SMOOTH_K_MAX = 8

# Tolerances the tier-1 tests assert for the same detectors.
R_TOL = 0.1
R_TOL_LACUNARY = 0.07
SMOOTH_GROWTH_MAX = 0.1
SINGULAR_GROWTH_MIN = 0.9
B_TOL = 0.05

SMOOTH_SIGNALS = frozenset({"sine", "bump"})
SMOOTH_CHOICES = ("sine", "bump", "dirac", "heaviside", "lacunary-0.5")
LACUNARY = ("lacunary-0.3", "lacunary-0.5", "lacunary-0.7")


def _reg(p, signal, dim=1):
    return ("regularity", p, dim, (signal,))


def _smooth(p):
    return ("smooth", p, 1, SMOOTH_CHOICES)


def _lacunary_reg(p):
    return [_reg(p, s) for s in LACUNARY]


# Block templates: (kind, p, dimension, signal choices).  One choice is
# fixed; several are drawn by the seed.  The proportions keep p50 and p90
# inside the latency band of one analysis kind (see BENCHMARK.json).
BLOCKS = {
    # p50: un-escalated k = 1 Dirac runs; p90: escalated k = 3 runs.
    "detect-l2": (
        [_reg(2.0, "dirac")] * 12
        + [_reg(2.0, "heaviside")] * 2
        + [_reg(2.0, "kink")] * 2
        + _lacunary_reg(2.0)
        + [_smooth(2.0)]
    ),
    # p50: un-escalated k = 1 Dirac runs at p = 1; p90: escalated p = 1
    # and 2-d runs; the cheap p = inf runs sit below p50 (the short ones
    # swing most with the host's speed, so no percentile rests on them).
    "detect-lp": (
        [_reg("inf", "dirac"), _reg("inf", "heaviside"), _reg("inf", "kink")]
        + [("regularity", "inf", 1, LACUNARY)]
        + [_smooth("inf")]
        + [_reg(1.0, "dirac")] * 6
        + [_reg(1.0, "heaviside"), _reg(1.0, "kink")]
        + [("regularity", 1.0, 1, LACUNARY)] * 2
        + [_reg("inf", "dirac", dim=2)] * 2
    ),
    # one study per (T, amplitude); the spike classification is drawn
    "associate": [
        ("study", None, 1, (t, a))
        for t in ("dirac", "heaviside", "kink")
        for a in ("embed", "e^1", "e^2", "e^3", "exp(-1/e)", "1")
    ],
}
GRID_SIZE = {"detect-l2": 16384, "detect-lp": 4096, "associate": 4096}
GRID_SIZE_2D = 128

AMPLITUDES = {
    "e^1": lambda e: e,
    "e^2": lambda e: e**2,
    "e^3": lambda e: e**3,
    "exp(-1/e)": lambda e: math.exp(-1.0 / e),
    "1": lambda e: 1.0,
}
SPIKE_VARIANTS = ("remark1-moderate", "remark1-squared", "remark2-own-q", "remark2-double-q")
SPIKE_Q = (1.0, 2.0, 4.0)
# remark 1: the spike net at q is moderate with this smallest s
SPIKE_S_STAR = {1.0: 1, 2.0: 0, 4.0: -1}


@dataclass(frozen=True)
class Analysis:
    """One analysis of a workload: what runs, on which input, where."""

    index: int
    kind: str  # "regularity" | "smooth" | "study"
    p: object
    dim: int
    signal: str
    offset: tuple
    amplitude: str = ""
    spike: str = ""
    spike_q: float = 0.0

    def label(self):
        if self.kind == "study":
            return f"#{self.index} study {self.signal} a={self.amplitude} spike={self.spike}(q={self.spike_q:g})"
        return f"#{self.index} {self.kind} {self.signal} p={self.p} d={self.dim}"


def mix(workload):
    """Share of each template in a block; "a|b" marks a choice the seed draws."""
    block = BLOCKS[workload]
    counts = Counter(
        f"study {' '.join(choices)}" if kind == "study" else f"{kind} p={p} d={dim} {'|'.join(choices)}"
        for kind, p, dim, choices in block
    )
    return {k: n / len(block) for k, n in counts.items()}


# Offsets.  Grid-sup and quadrature answers depend on where an input sits
# between grid points, and association rates on where it sits against the
# bumps, both with narrow error peaks: with offsets drawn per seed, the run's
# largest exponent error swung by 16-32% between seeds.  So template j of
# block b takes the b-th point of a low-discrepancy sequence (golden ratio in
# 1-d, the R2 sequence in 2-d), once for the grid cell and once for the
# sub-cell phase; every run covers the same spread of positions, and the
# seed draws the order and the open choices.
_STEPS = {1: ((math.sqrt(5.0) - 1.0) / 2.0,), 2: (1.0 / 1.324717957244746, 1.0 / 1.324717957244746**2)}


def _offset(j, b, dim, n):
    out = []
    for i, step in enumerate(_STEPS[dim]):
        cell = math.floor(n * ((math.sqrt(3.0) * (j + 1) * (i + 1) + b * step) % 1.0))
        phase = (math.sqrt(2.0) * (j + 1) * (i + 1) + b * step) % 1.0
        out.append((cell + phase) / n)
    return tuple(out)


def blocks(workload, seed, stream=0):
    """Yield the workload's analyses block by block, forever.

    Stream 0 is the timed sequence; warm-up draws from stream 1.
    """
    templates = BLOCKS[workload]
    b = 0
    while True:
        rng = np.random.default_rng([stream, seed, b])
        out = []
        for j in map(int, rng.permutation(len(templates))):
            kind, p, dim, choices = templates[j]
            offset = _offset(j, b, dim, GRID_SIZE_2D if dim == 2 else GRID_SIZE[workload])
            index = b * len(templates) + len(out)
            if kind == "study":
                t, a = choices
                spike = SPIKE_VARIANTS[rng.integers(len(SPIKE_VARIANTS))]
                q = SPIKE_Q[rng.integers(len(SPIKE_Q))]
                out.append(Analysis(index, kind, p, dim, t, offset, a, spike, q))
            else:
                signal = choices[rng.integers(len(choices))]
                out.append(Analysis(index, kind, p, dim, signal, offset))
        yield out
        b += 1


def warmup_analyses(workload, seed):
    """One analysis of each kind (kind, p, dimension) in the workload."""
    seen, out = set(), []
    for a in next(blocks(workload, seed, stream=1)):
        key = (a.kind, a.p, a.dim)
        if key not in seen:
            seen.add(key)
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# Set-up: the objects every analysis of a workload shares
# ---------------------------------------------------------------------------


def _base_signals(torus):
    out = {
        "dirac": signals.dirac(torus),
        "heaviside": signals.heaviside(torus),
        "kink": signals.kink(torus),
        "sine": signals.sine(torus, 3),
        "bump": signals.bump(torus, 0.5, 0.05),
    }
    for name in LACUNARY:
        out[name] = signals.lacunary(torus, float(name.split("-")[1]))
    return out


@dataclass
class Context:
    pair: tuple
    bases: dict  # (dimension, signal) -> SpectralFunction
    grid: object = None
    battery: list = None
    perturbation: SpectralFunction = None


def build_context(workload):
    """Pair, signal bases and (for studies) grid, battery and perturbation."""
    pair = kernels.build_lp_pair(PAIR_SIGMA, PAIR_ETA)
    torus = Torus(1, 1.0, GRID_SIZE[workload])
    bases = {(1, k): v for k, v in _base_signals(torus).items()}
    ctx = Context(pair, bases)
    if any(dim == 2 for _, _, dim, _ in BLOCKS[workload]):
        ctx.bases[(2, "dirac")] = signals.dirac(Torus(2, 1.0, GRID_SIZE_2D))
    if workload == "associate":
        ctx.grid = besov.default_grid(torus, pair[0], **ASSOC_GRID)
        ctx.battery = association.bump_battery(torus, count=BATTERY_SIZE, seed=BATTERY_SEED)
        ctx.perturbation = signals.sine(torus, 5)
    return ctx


def translate(f, offset):
    """f(x - x0): coefficient m times exp(-i xi_m x0), per axis."""
    xi = f.torus.frequencies()
    phase = np.exp(-1j * xi * offset[0])
    if f.torus.dimension == 2:
        phase = phase[:, None] * np.exp(-1j * xi * offset[1])[None, :]
    return SpectralFunction(f.torus, f.coefficients * phase, f.tag)


def prepare(ctx, a):
    """The library inputs of one analysis (built outside the timed region)."""
    T = translate(ctx.bases[(a.dim, a.signal)], a.offset)
    if a.kind == "study":
        return T, translate(ctx.perturbation, a.offset)
    return T, None


# ---------------------------------------------------------------------------
# Running and checking one analysis
# ---------------------------------------------------------------------------


def run(ctx, a, inputs):
    """Run one analysis through the public API and return its answer.

    The answer is a flat tuple of numbers and strings: what the checks read
    and what the digest hashes.  Library calls go through module attributes
    so that an installed tracer sees them.
    """
    T, g = inputs
    pair = ctx.pair
    if a.kind == "regularity":
        rep = besov.detect_regularity(T, a.p, "inf", "auto", pair)
        return (rep.verdict, rep.r_hat, rep.k_used, rep.escalations, rep.stderr)
    if a.kind == "smooth":
        ev = besov.detect_smooth(T, a.p, "inf", pair, k_max=SMOOTH_K_MAX)
        return (ev.smooth, ev.growth_rate, ev.s_witness)
    phi, grid = pair[0], ctx.grid
    net = besov.embed(T, phi, grid)
    if a.amplitude != "embed":
        net = nets.perturbed_net(net, g, AMPLITUDES[a.amplitude])
    assoc = association.association_verdict(T, net, ctx.battery, ASSOC_Q, grid)
    mod = nets.classify_moderate(net, 2, p="inf", eps_grid=grid)
    neg = nets.classify_negligible(net.minus(besov.embed(T, phi, grid)), 2, eps_grid=grid)
    spike = _spike(a.spike, a.spike_q)
    return (assoc.verdict, assoc.b_hat, mod.moderate, mod.s_star, neg.negligible, spike)


def _spike(variant, q):
    if variant == "remark1-moderate":
        v = nets.classify_moderate(nets.SpikeNet(q=q), q)
        return (v.moderate, v.s_star)
    if variant == "remark1-squared":
        return (nets.classify_moderate(nets.SpikeNet(q=q).squared(), q).moderate, None)
    q_test = q if variant == "remark2-own-q" else 2.0 * q
    v = nets.classify_negligible(nets.SpikeNet(q=q, variant="remark2"), q_test)
    return (v.negligible, v.s_fail)


def theory_r(a):
    """Besov/Zygmund exponent of the (translated) input in dimension d."""
    inv_p = 0.0 if a.p == "inf" else 1.0 / a.p
    if a.signal == "dirac":
        return -a.dim + a.dim * inv_p
    if a.signal == "heaviside":
        return inv_p
    if a.signal == "kink":
        return 1.0 + inv_p
    if a.signal.startswith("lacunary-"):
        return float(a.signal.split("-")[1])
    raise ValueError(f"no exponent on record for {a.signal}")


def theory_b(a):
    """Pairing decay rate of a strongly associated study net, else None."""
    return float(a.amplitude[2:]) if a.amplitude.startswith("e^") else None


def exponent_error(a, answer):
    """|fitted - theory| for exponent-bearing answers, else None."""
    if a.kind == "regularity":
        return abs(answer[1] - theory_r(a))
    if a.kind == "study" and answer[0] == "strong" and theory_b(a) is not None:
        return abs(answer[1] - theory_b(a))
    return None


def check(a, answer):
    """Failures of one answer against theory; an empty list means correct."""
    fails = []
    if a.kind == "regularity":
        verdict, r_hat, k_used, _, _ = answer
        want = theory_r(a)
        tol = R_TOL_LACUNARY if a.signal.startswith("lacunary-") else R_TOL
        if verdict != "besov":
            fails.append(f"verdict {verdict}, want besov")
        if not abs(r_hat - want) <= tol:
            fails.append(f"r_hat {r_hat:.4f}, want {want:.4f} +- {tol}")
        if not k_used > r_hat + 1.0:
            fails.append(f"k_used {k_used} not above r_hat + 1")
    elif a.kind == "smooth":
        smooth, growth, _ = answer
        if a.signal in SMOOTH_SIGNALS:
            if not (smooth and growth < SMOOTH_GROWTH_MAX):
                fails.append(f"smooth={smooth} growth {growth:.4f}, want smooth with growth < {SMOOTH_GROWTH_MAX}")
        elif smooth or not growth > SINGULAR_GROWTH_MIN:
            fails.append(f"smooth={smooth} growth {growth:.4f}, want not smooth with growth > {SINGULAR_GROWTH_MIN}")
    else:
        fails.extend(_check_study(a, answer))
    return fails


def _check_study(a, answer):
    verdict, b_hat, moderate, _, negligible, spike = answer
    fails = []
    b = theory_b(a)
    if b is not None:
        if verdict != "strong" or not abs(b_hat - b) <= B_TOL:
            fails.append(f"association {verdict} b_hat {b_hat:.4f}, want strong {b} +- {B_TOL}")
    else:
        want = "none" if a.amplitude == "1" else "rapid"
        if verdict != want:
            fails.append(f"association {verdict}, want {want}")
    if not moderate:
        fails.append("study net not moderate")
    want_negligible = a.amplitude in ("embed", "exp(-1/e)")
    if negligible != want_negligible:
        fails.append(f"difference negligible={negligible}, want {want_negligible}")
    got, s = spike
    if a.spike == "remark1-moderate":
        if not (got and s == SPIKE_S_STAR[a.spike_q]):
            fails.append(f"spike net moderate={got} s*={s}, want s*={SPIKE_S_STAR[a.spike_q]}")
    elif a.spike == "remark1-squared":
        if got:
            fails.append("squared spike net classified moderate")
    elif got != (a.spike == "remark2-own-q"):
        fails.append(f"remark-2 spike net negligible={got} at q={a.spike_q:g} ({a.spike})")
    return fails


def expected_calls(ctx, a, answer):
    """Exact call counts of one analysis, derived from its own parameters.

    A detector makes one convolution per scale and one norm per (scale,
    derivative multi-index of order <= k); the verdict pairs every battery
    bump with the net at every scale.
    """
    if answer[0] == "raised":
        return {}
    if a.kind == "study":
        return {
            "association.association_verdict": 1,
            "spectral.pairing": len(ctx.battery) * ctx.grid.count,
        }
    torus = ctx.bases[(a.dim, a.signal)].torus
    n_scales = besov.default_grid(torus, ctx.pair[0]).count
    k = answer[2] if a.kind == "regularity" else SMOOTH_K_MAX
    orders = k + 1 if a.dim == 1 else (k + 1) * (k + 2) // 2
    return {"spectral.convolve_scaled": n_scales, "spectral.lp_norm": n_scales * orders}


def digest(answers):
    """Hash of answers with floats rounded to 1e-6, in analysis order."""
    h = hashlib.sha256()
    for ans in answers:
        h.update(repr(_rounded(ans)).encode())
    return h.hexdigest()[:16]


def _rounded(x):
    if isinstance(x, tuple):
        return tuple(_rounded(v) for v in x)
    if isinstance(x, float) and math.isfinite(x):
        return float(round(x, 6)) + 0.0
    return x
