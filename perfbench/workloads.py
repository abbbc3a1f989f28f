"""Seeded request pools for the benchmark workloads.

A workload is a fixed, ordered cycle of request slots.  Each slot fixes the
subcommand, its size, its output format and every discrete choice that
changes the cost of a request (observable kind, pointer generator, pointer
kind, halving).  The seed picks only the continuous inputs inside a slot:
amplitudes, diagonal observable entries, coupling strength, coherent
displacement, potential samples and label pairs.  So every seed gives the
same cost profile in the same order, and runs with different seeds agree.

qpl only ever receives explicit inputs (`amps:` kets, `diag:` observables,
explicit potentials), never a `random` selector, so the benchmark can check
every response from the numbers it generated itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import cos, sin, tau
from pathlib import Path

WORKLOADS = ("weak-large", "weak-small", "phase-space")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its response must satisfy.

    `slot` names the cost class (e.g. ``weak-5`` for a weak run with five
    exact evolutions, ``wigner-csv``).  `expect` holds the generated inputs
    the response checks need, in plain Python numbers.
    """

    slot: str
    kind: str
    fmt: str
    argv: tuple[str, ...]
    expect: dict


# --------------------------------------------------------------------------
# Cycles.  A run always ends on a whole cycle, so each slot contributes the
# same number of samples and every percentile rank sits at a fixed place in
# the sorted slots.
#
# A shared 2-vCPU VM (the one the pools were tuned on) switches between a
# slow and a fast state, about 1.4x apart, for seconds at a time, and a run
# is mostly in the slow state.  A percentile
# that falls in the middle of a cost class then flips between the two states
# from run to run; one at the class's 75th percentile reads the slow state
# unless the run was mostly fast.  So weak-large and phase-space put p50 and
# p90 each at about the 75th percentile of one cost class: the cheapest 20%
# of requests, a p50 class over the next 40% and a p90 class over the top
# 40%.
#
# Weak slots: (system_dim, pointer_dim, obs, pointer_gen, coherent, halving,
# fmt).  obs "diag" draws generic diagonal entries from the seed.  The exact
# evolution count is 3 + 2·halving + (coherent pointer with generator n).

_W3 = (  # cheapest class: 4x64, 3 exact evolutions
    (4, 64, "diag", "q", False, False, "json"),
    (4, 64, "number", "p", False, False, "csv"),
    (4, 64, "diag", "k", False, False, "json"),
    (4, 64, "diag", "g", False, False, "json"),
    (4, 64, "number", "g", False, False, "json"),
)
_WMID = (  # p50 class: 4x64 with 5 evolutions, 2x128 (dense coupling) with 3
    (4, 64, "diag", "n", False, True, "json"),
    (2, 128, "sx", "h0", False, False, "json"),
    (4, 64, "diag", "h0", True, True, "json"),
    (4, 64, "number", "h0", False, True, "csv"),
    (2, 128, "sy", "g", False, False, "json"),
    (4, 64, "diag", "q", False, True, "json"),
    (2, 128, "sy", "p", False, False, "json"),
    (4, 64, "number", "n", False, True, "json"),
    (4, 64, "diag", "p", True, True, "csv"),
    (2, 128, "sx", "k", False, False, "json"),
)
_W6 = tuple(  # p90 class: 4x64, 6 evolutions
    (4, 64, obs, "n", True, True, fmt)
    for obs, fmt in (("number", "json"), ("diag", "json"), ("number", "csv"), ("diag", "json"),
                     ("number", "json"), ("diag", "csv"), ("number", "json"), ("diag", "json"),
                     ("number", "json"), ("diag", "json"))
)


def _interleave(pattern: str, classes: dict) -> list:
    iters = {key: iter(slots) for key, slots in classes.items()}
    return [next(iters[key]) for key in pattern]


# Composite 256: 21 slots of 4x64 and 4 of 2x128.  The 2x128 runs spend a
# larger share outside the evolution (pointer-side products grow as
# pointer_dim³), so they are kept few.
_WEAK_LARGE = _interleave("TMCTMTMCTMTMCTMTMCTMTMCTM", {"C": _W3, "M": _WMID, "T": _W6})

# Composite 64-96 (9 slots of 2x32, 8 of 3x24, 8 of 3x32), always with
# halving, so every request does real work beyond the fixed CLI overhead.
_WEAK_SMALL = [
    (3, 24, "number", "p", False, True, "json"),
    (2, 32, "sx", "q", False, True, "json"),
    (3, 32, "diag", "g", False, True, "json"),
    (3, 24, "diag", "n", True, True, "json"),
    (2, 32, "sz", "h0", False, True, "csv"),
    (3, 32, "number", "q", False, True, "json"),
    (3, 24, "diag", "k", False, True, "json"),
    (2, 32, "number", "n", True, True, "json"),
    (3, 32, "diag", "p", True, True, "csv"),
    (3, 24, "number", "h0", False, True, "json"),
    (2, 32, "sy", "g", False, True, "json"),
    (3, 32, "number", "n", True, True, "json"),
    (3, 24, "diag", "q", False, True, "csv"),
    (2, 32, "diag", "p", False, True, "json"),
    (3, 32, "diag", "k", False, True, "json"),
    (3, 24, "number", "g", False, True, "json"),
    (2, 32, "sx", "n", True, True, "json"),
    (3, 32, "number", "h0", False, True, "json"),
    (3, 24, "diag", "p", False, True, "json"),
    (2, 32, "sz", "k", False, True, "json"),
    (3, 32, "diag", "n", False, True, "json"),
    (3, 24, "number", "q", True, True, "json"),
    (2, 32, "diag", "h0", True, True, "json"),
    (3, 32, "number", "g", False, True, "json"),
    (2, 32, "number", "p", False, True, "json"),
]

# Phase-space cycle of 40.  Ranks: az, nslit, gauss-trace and wigner-64
# JSON fill the bottom 27.5%, wigner-64 CSV 27.5-57.5% (p50 at its 75th
# percentile), one structure-constants run 57.5-60% and coherent-gram the
# top 40% (p90 at its 75th percentile).
_PHASE_SPACE_ORDER = (
    "cg-json", "wigner-csv", "cg-csv", "wigner-json", "wigner-csv",
    "cg-json", "az", "cg-csv", "wigner-csv", "wigner-json",
    "cg-json", "wigner-csv", "cg-csv", "sc-json", "wigner-csv",
    "cg-json", "wigner-json", "cg-csv", "wigner-csv", "nslit",
    "cg-json", "wigner-csv", "cg-csv", "wigner-json", "wigner-csv",
    "cg-json", "gauss-trace", "cg-csv", "wigner-csv", "wigner-json",
    "cg-json", "wigner-csv", "cg-csv", "wigner-json", "wigner-csv",
    "cg-json", "wigner-json", "cg-csv", "wigner-csv", "wigner-json",
)

PAULI = {
    "sx": ((0, 1), (1, 0)),
    "sy": ((0, -1j), (1j, 0)),
    "sz": ((1, 0), (0, -1)),
}

WIGNER_DIM = 64
STRUCTURE_DIM = 15
GRAM_DIM = 16
GAUSS_RANGE = (1, 64)
NSLIT_DIM = 64
AZ_FACTORS = ((7, 9), (5, 12), (8, 7), (4, 15), (3, 20), (11, 5))


def _ket(rng: random.Random, dim: int) -> list[complex]:
    return [complex(round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)) for _ in range(dim)]


def _fmt_complex(z: complex, digits: int = 6) -> str:
    return f"{z.real:.{digits}f}{z.imag:+.{digits}f}j"


def _amps_selector(ket) -> str:
    return "amps:" + ",".join(_fmt_complex(z) for z in ket)


def _overlap(a, b) -> complex:
    return sum(x.conjugate() * y for x, y in zip(a, b))


def _norm(a) -> float:
    return sum(abs(x) ** 2 for x in a) ** 0.5


def _pre_post(rng: random.Random, dim: int):
    """Pre/post kets whose normalized overlap is at least 0.3 (no degeneracy)."""
    while True:
        pre, post = _ket(rng, dim), _ket(rng, dim)
        if abs(_overlap(post, pre)) >= 0.3 * _norm(pre) * _norm(post):
            return pre, post


def _observable(rng: random.Random, kind: str, dim: int):
    """(selector text, matrix as nested lists) for one observable slot."""
    if kind == "diag":
        entries = [round(rng.uniform(-2, 2), 4) for _ in range(dim)]
        matrix = [[entries[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
        return "diag:" + ",".join(f"{e:.4f}" for e in entries), matrix
    if kind == "number":
        return "number", [[i if i == j else 0 for j in range(dim)] for i in range(dim)]
    return kind, [list(row) for row in PAULI[kind]]


def _weak_request(rng, slot, workdir: Path, name: str) -> Request:
    system_dim, pointer_dim, obs_kind, gen, coherent, halving, fmt = slot
    pre, post = _pre_post(rng, system_dim)
    obs_text, obs_matrix = _observable(rng, obs_kind, system_dim)
    eps = float(f"{10 ** rng.uniform(-3, -1.5):.4g}")
    lines = [
        f"system_dim = {system_dim}",
        f"pre = {_amps_selector(pre)}",
        f"post = {_amps_selector(post)}",
        f"obs = {obs_text}",
        f"eps = {eps!r}",
    ]
    if coherent:
        # Keep (|z| + 3)^2 well inside the truncation.
        limit = min(2.0, 0.8 * (pointer_dim**0.5 - 3))
        radius = rng.uniform(0.3, limit)
        phase = rng.uniform(0, tau)
        z = complex(round(radius * cos(phase), 4), round(radius * sin(phase), 4))
        lines.append(f"pointer = coherent:{_fmt_complex(z, 4)}")
    lines += [
        f"pointer_dim = {pointer_dim}",
        f"pointer_gen = {gen}",
        f"halving = {'true' if halving else 'false'}",
    ]
    path = workdir / f"{name}.cfg"
    path.write_text("\n".join(lines) + "\n")
    annihilator = coherent and gen == "n"
    evolutions = 3 + 2 * halving + annihilator
    return Request(
        slot=f"weak-{evolutions}",
        kind="weak",
        fmt=fmt,
        argv=("weak", "--config", str(path), "--format", fmt),
        expect={
            "pre": pre,
            "post": post,
            "obs": obs_matrix,
            "halving": halving,
            "annihilator": annihilator,
            "evolutions": evolutions,
        },
    )


def _phase_space_request(rng: random.Random, slot: str) -> Request:
    if slot.startswith("wigner-"):
        fmt = slot.split("-")[1]
        ket = _ket(rng, WIGNER_DIM)
        weights = [abs(z) ** 2 for z in ket]
        total = sum(weights)
        argv = ("wigner", "--n", str(WIGNER_DIM), "--state", _amps_selector(ket), "--format", fmt)
        expect = {"n": WIGNER_DIM, "position": [w / total for w in weights]}
        return Request(slot, "wigner", fmt, argv, expect)
    if slot.startswith("sc-"):
        fmt = slot.split("-")[1]
        a = (rng.randrange(STRUCTURE_DIM), rng.randrange(STRUCTURE_DIM))
        b = (rng.randrange(STRUCTURE_DIM), rng.randrange(STRUCTURE_DIM))
        argv = (
            "structure-constants", "--n", str(STRUCTURE_DIM),
            "--a", f"{a[0]},{a[1]}", "--b", f"{b[0]},{b[1]}", "--format", fmt,
        )
        return Request(slot, "structure-constants", fmt, argv, {"n": STRUCTURE_DIM})
    if slot.startswith("cg-"):
        fmt = slot.split("-")[1]
        argv = ("coherent-gram", "--n", str(GRAM_DIM), "--format", fmt)
        return Request(slot, "coherent-gram", fmt, argv, {"n": GRAM_DIM})
    if slot == "gauss-trace":
        nmin, nmax = GAUSS_RANGE
        argv = ("gauss-trace", str(nmin), str(nmax))
        return Request(slot, "gauss-trace", "json", argv, {"nmin": nmin, "nmax": nmax})
    if slot == "nslit":
        period = rng.choice((4, 8, 16, 32))
        samples = [round(rng.uniform(0, tau), 4) for _ in range(period)]
        argv = (
            "nslit", "--n", str(NSLIT_DIM),
            "--potential", ",".join(f"{s:.4f}" for s in samples),
        )
        return Request(slot, "nslit", "json", argv, {"n": NSLIT_DIM, "period": period})
    if slot == "az":
        na, nb = rng.choice(AZ_FACTORS)
        j, sigma = rng.randrange(na), rng.randrange(nb)
        argv = ("az", str(na), str(nb), str(j), str(sigma))
        return Request(slot, "az", "json", argv, {"dim": na * nb})
    raise ValueError(f"unknown phase-space slot {slot!r}")


def generate(workload: str, seed: int, workdir: Path) -> list[Request]:
    """The request cycle of one workload; weak config files go to `workdir`.

    The same (workload, seed) always yields the same argv and the same
    config file bytes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "phase-space":
        return [_phase_space_request(rng, slot) for slot in _PHASE_SPACE_ORDER]
    slots = _WEAK_SMALL if workload == "weak-small" else _WEAK_LARGE
    return [_weak_request(rng, slot, workdir, f"req{i:02d}") for i, slot in enumerate(slots)]
