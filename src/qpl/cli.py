"""Command-line experiments: `qpl <subcommand> [options]`.

Subcommands
    wigner               Wigner map of a selected state on Z_N
    gauss-trace          DFT traces against the odd-N closed form
    weak                 weak-measurement run from a key=value config file
    az                   modular lattice state on coprime Z_Na x Z_Nb
    nslit                periodic phase mask acting on the flat momentum state
    structure-constants  commutator expansion check for one label pair (odd N)
    coherent-gram        coherent-family overlaps against their closed form

Every command takes --format {json,csv}, --out FILE and --seed INT.  JSON
output is canonical (sorted keys, 12 significant digits, complex numbers
as {im, re} objects) so identical inputs produce byte-identical bytes;
CSV output is RFC 4180 with a header row.  The QPL_SEED environment
variable, when set, overrides both the --seed flag and any seed found in
a config file; every seed given must be a nonnegative integer.

Exit codes: 0 success, 2 usage or validation error (a negative seed, an
nslit period that does not divide N, checked before sampling), 3 resource
bound violation (a weak run that overflows float range), 4 domain
degeneracy (e.g. orthogonal pre/post selections).
"""

from __future__ import annotations

import argparse
import os
import sys
from math import gcd
from pathlib import Path

import numpy as np

from .coherent import CoherentFamily, coherent_overlap_closed, coherent_state
from .fock import FockSpace
from .linalg import basis_ket, random_density, random_ket
from .modular import az_state, momentum_amplitudes, nslit_evolve
from .schwinger import dft, gauss_trace, gauss_trace_closed_form
from .serialize import canonical_json, csv_text
from .weak import (
    FactoredEvolution,
    WeakConfig,
    annihilator_shift_prediction,
    conditioned_shift,
    predicted_shift,
    weak_value,
)
from .weylwigner import StructureConstants, phase_point, wigner_map

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUNDS = 3
EXIT_DEGENERATE = 4

MAX_REGISTER_DIM = 64  # single cyclic register (wigner, az, nslit, gauss-trace)
MAX_SYSTEM_DIM = 64
MAX_POINTER_DIM = 256
# A request builds two phase-point operators and one weighted sum through the
# Weyl moments: O(N³) time, O(N²) memory.  15 stays until a benchmark backs more.
MAX_STRUCTURE_DIM = 15
MAX_GRAM_DIM = 16

SUPPORT_TOL = 1e-12
MATCH_TOL = 1e-9


class _CliError(Exception):
    """An error `main` reports on stderr and turns into `exit_code`."""

    exit_code = EXIT_USAGE


class UsageError(_CliError):
    """Bad selector, malformed config, or invalid argument combination."""


class BoundsError(_CliError):
    """Parameter outside the documented resource bounds."""

    exit_code = EXIT_BOUNDS


class DegeneracyError(_CliError):
    """Mathematically degenerate configuration (zero overlap, zero probability)."""

    exit_code = EXIT_DEGENERATE


# --------------------------------------------------------------------------
# shared parsing helpers


_BOOL_WORDS = dict.fromkeys(("true", "yes", "1"), True) | dict.fromkeys(("false", "no", "0"), False)
# Each kind of value: how it is read from text, and what a bad text must be instead.
_KINDS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    complex: (lambda t: complex(t.strip().replace(" ", "")), "a complex number like 0.5+0.5j"),
    bool: (lambda t: _BOOL_WORDS[t.strip().lower()], "true or false"),
}


def _parse_number(text: str, kind: type, what: str):
    """`text` read as `kind`, one of `_KINDS`; a float or complex must be finite."""
    read, description = _KINDS[kind]
    try:
        value = read(text)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"{what} must be {description}, got {text!r}") from exc
    if isinstance(value, (float, complex)) and not np.isfinite(value):
        raise UsageError(f"{what} must be finite, got {text!r}")
    return value


def resolve_seed(flag_seed: int | None, config_seed: str = "0") -> int:
    """QPL_SEED, else --seed, else the config seed (default 0); each one given must be >= 0."""
    env = os.environ.get("QPL_SEED")
    seeds = {"seed": _parse_number(config_seed, int, "seed"), "--seed": flag_seed}
    seeds["QPL_SEED"] = None if env is None else _parse_number(env, int, "QPL_SEED")
    for what, seed in seeds.items():
        if seed is not None and seed < 0:
            raise UsageError(f"{what} must be nonnegative, got {seed}")
    return next(seed for seed in reversed(seeds.values()) if seed is not None)


def parse_ket_selector(spec: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    """u<k> | v<k> | coherent:m,n | amps:c0,c1,... | random"""
    if len(spec) >= 2 and spec[0] in "uv" and spec[1:].isdigit():
        k = int(spec[1:])
        if k >= dim:
            raise UsageError(f"selector {spec!r} is out of range for dimension {dim}")
        if spec[0] == "u":
            return basis_ket(dim, k)
        return dft(dim)[:, k].copy()  # a strided view would round later products differently
    if spec.startswith("coherent:"):
        return coherent_state(dim, *_parse_pair(spec[len("coherent:") :], "coherent label m,n"))
    if spec.startswith("amps:"):
        tokens = spec[len("amps:") :].split(",")
        if len(tokens) != dim:
            raise UsageError(f"amps selector needs {dim} entries, got {len(tokens)}")
        vec = np.array([_parse_number(t, complex, "amplitude") for t in tokens])
        norm = np.linalg.norm(vec)
        if norm <= 1e-12:
            raise UsageError("amps selector has zero norm")
        return vec / norm
    if spec == "random":
        return random_ket(dim, rng)
    raise UsageError(f"unknown state selector {spec!r}")


def parse_density_selector(spec: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    if spec == "mixed":
        return np.eye(dim, dtype=complex) / dim
    if spec == "random":
        return random_density(dim, rng)
    ket = parse_ket_selector(spec, dim, rng)
    return np.outer(ket, ket.conj())


_PAULI = {
    "sx": np.array([[0, 1], [1, 0]], dtype=complex),
    "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sz": np.array([[1, 0], [0, -1]], dtype=complex),
}


def parse_obs_selector(spec: str, dim: int) -> np.ndarray:
    """diag:a,b,... | number | sx | sy | sz"""
    if spec.startswith("diag:"):
        tokens = spec[len("diag:") :].split(",")
        if len(tokens) != dim:
            raise UsageError(f"diag observable needs {dim} entries, got {len(tokens)}")
        entries = [_parse_number(t, float, "diagonal entry") for t in tokens]
        return np.diag(np.array(entries, dtype=complex))
    if spec == "number":
        return np.diag(np.arange(dim).astype(complex))
    if spec in _PAULI:
        if dim != 2:
            raise UsageError(f"observable {spec!r} requires system_dim = 2, got {dim}")
        return _PAULI[spec].copy()
    raise UsageError(f"unknown observable selector {spec!r}")


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be two integers like 1,0, got {text!r}")
    return _parse_number(parts[0], int, what), _parse_number(parts[1], int, what)


def _check_range(value: int, lo: int, hi: int, what: str) -> None:
    if not lo <= value <= hi:
        raise BoundsError(f"{what} must lie in {lo}..{hi}, got {value}")


# --------------------------------------------------------------------------
# command runners: each returns (json payload, csv header, csv rows)


def _grid_rows(name: str, grid) -> list[tuple]:
    """(name, row, column, value) for every grid entry, row-major."""
    return [(name, r, c, value) for r, row in enumerate(grid) for c, value in enumerate(row)]


def _complex_rows(name: str, values) -> list[tuple]:
    """(name, index, re, im) for every entry; real entries get im = 0."""
    return [(name, k, z.real, z.imag) for k, z in enumerate(values)]


def run_wigner(args):
    n = args.n
    _check_range(n, 1, MAX_REGISTER_DIM, "wigner dimension")
    seed = resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    rho = parse_density_selector(args.state, n, rng)
    wm = wigner_map(rho)
    values = wm.values
    marg_momentum = values.sum(axis=1)
    marg_position = values.sum(axis=0)
    payload = {
        "dim": n,
        "marginal_momentum": marg_momentum,
        "marginal_position": marg_position,
        "min_value": wm.min_value,
        "negativity": wm.negativity,
        "seed": seed,
        "state": args.state,
        "total": wm.total,
        "values": values,
    }
    rows = _grid_rows("value", values)
    rows += [("marginal_momentum", m, "", marg_momentum[m]) for m in range(n)]
    rows += [("marginal_position", "", nn, marg_position[nn]) for nn in range(n)]
    rows += [
        ("total", "", "", wm.total),
        ("negativity", "", "", wm.negativity),
        ("min_value", "", "", wm.min_value),
    ]
    return payload, ["quantity", "m", "n", "value"], rows


def run_gauss_trace(args):
    nmin, nmax = args.nmin, args.nmax
    if nmin < 1 or nmin > nmax:
        raise UsageError(f"need 1 <= NMIN <= NMAX, got {nmin}..{nmax}")
    _check_range(nmax, 1, MAX_REGISTER_DIM, "NMAX")
    entries = []
    rows = []
    for n in range(nmin, nmax + 1):
        trace = gauss_trace(n)
        closed = gauss_trace_closed_form(n)
        match = bool(abs(trace - closed) <= MATCH_TOL)
        entries.append({"closed_form": closed, "match": match, "n": n, "trace": trace})
        rows.append((n, trace.real, trace.imag, closed.real, closed.imag, match))
    payload = {"entries": entries, "nmax": nmax, "nmin": nmin}
    return payload, ["n", "trace_re", "trace_im", "closed_re", "closed_im", "match"], rows


# Every weak config key and its default; None marks a required key.  The
# default seed 0 still yields to QPL_SEED and --seed.
_WEAK_KEYS = dict.fromkeys(("system_dim", "pre", "post", "obs", "eps"))
_WEAK_KEYS.update(pointer="vacuum", pointer_dim="64", pointer_gen="p", halving="true", seed="0")


def _read_config(path: str) -> dict[str, str]:
    """Config entries, with the `_WEAK_KEYS` default for every key left out."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not (sep and key and value):
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        if key in entries:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in _WEAK_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value
    missing = [key for key, default in _WEAK_KEYS.items() if default is None and key not in entries]
    if missing:
        raise UsageError(f"{path}: missing required keys: {', '.join(missing)}")
    return {**_WEAK_KEYS, **entries}


def _triple(measured, predicted) -> dict:
    """A measured shift, its first-order prediction and their distance."""
    return {"measured": measured, "predicted": predicted, "residual": abs(measured - predicted)}


def _triple_rows(name: str, triple: dict) -> list[tuple]:
    """`<name>_measured` and `<name>_predicted` as (re, im), then `<name>_residual`."""
    rows = [(f"{name}_{k}", triple[k].real, triple[k].imag) for k in ("measured", "predicted")]
    return [*rows, (f"{name}_residual", triple["residual"], 0.0)]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported by value, below
def run_weak(args):
    conf = _read_config(args.config)
    system_dim = _parse_number(conf["system_dim"], int, "system_dim")
    _check_range(system_dim, 2, MAX_SYSTEM_DIM, "system_dim")
    pointer_dim = _parse_number(conf["pointer_dim"], int, "pointer_dim")
    _check_range(pointer_dim, 2, MAX_POINTER_DIM, "pointer_dim")
    eps = _parse_number(conf["eps"], float, "eps")
    if eps < 0:
        raise UsageError(f"eps must be nonnegative, got {eps}")
    halving = _parse_number(conf["halving"], bool, "halving")
    seed = resolve_seed(args.seed, conf["seed"])
    rng = np.random.default_rng(seed)

    space = FockSpace(pointer_dim)
    pointer_spec = conf["pointer"]
    coherent_z = None
    if pointer_spec == "vacuum":
        pointer = space.vacuum()
    elif pointer_spec.startswith("coherent:"):
        coherent_z = _parse_number(pointer_spec.partition(":")[2], complex, "pointer displacement")
        try:
            pointer = space.coherent(coherent_z)
        except ValueError as exc:
            raise BoundsError(str(exc)) from exc
    else:
        raise UsageError(f"unknown pointer selector {pointer_spec!r}")

    gen_key = conf["pointer_gen"]
    generators = {
        "q": space.q,
        "p": space.p,
        "n": space.num,
        "h0": space.h0,
        "g": space.g,
        "k": space.k,
    }
    if gen_key not in generators:
        raise UsageError(f"pointer_gen must be one of {sorted(generators)}, got {gen_key!r}")

    obs = parse_obs_selector(conf["obs"], system_dim)
    pre = parse_ket_selector(conf["pre"], system_dim, rng)
    post = parse_ket_selector(conf["post"], system_dim, rng)
    try:
        cfg = WeakConfig(
            pre=pre,
            post=post,
            obs=obs,
            pointer_gen=generators[gen_key],
            pointer=pointer,
            eps=eps,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    evolution = FactoredEvolution(cfg.obs, cfg.pointer_gen, cfg.pre, cfg.pointer)
    try:
        ow = weak_value(cfg)
        selected = evolution.post_selected(eps, cfg.post)
        half_selected = evolution.post_selected(eps / 2, cfg.post) if halving else None
    except ValueError as exc:
        raise DegeneracyError(str(exc)) from exc
    probability = selected.probability

    quadratures = {"q": space.q, "p": space.p}
    predicted = {name: predicted_shift(cfg, observable) for name, observable in quadratures.items()}
    if coherent_z is not None and gen_key == "n":
        predicted["a"] = annihilator_shift_prediction(cfg, coherent_z)
    # A coupling past float range leaves one of these without a finite modulus;
    # every number measured from a finite post-selected pointer is bounded.
    named = {"weak value": ow, "probability": probability}
    named.update((f"{name} predicted shift", value) for name, value in predicted.items())
    overflowed = [what for what, value in named.items() if not np.isfinite(np.abs(value))]
    if overflowed:
        raise BoundsError(f"weak run overflows at eps = {eps}: {', '.join(overflowed)} not finite")

    spectral_radius = float(np.max(np.abs(evolution.obs_values)))
    amplified = bool(abs(ow) > spectral_radius + 1e-12)
    shifts = {
        name: _triple(conditioned_shift(selected, pointer, observable).real, predicted[name])
        for name, observable in quadratures.items()
    }

    halving_block = None
    if halving:
        half = cfg.with_eps(eps / 2)
        halving_block = {}
        for name, observable in quadratures.items():
            full_resid = shifts[name]["residual"]
            measured = conditioned_shift(half_selected, pointer, observable).real
            half_resid = _triple(measured, predicted_shift(half, observable))["residual"]
            ratio = None if full_resid < 1e-14 else half_resid / full_resid
            halving_block[name] = {"half_residual": half_resid, "ratio": ratio}

    annihilator = None
    if "a" in predicted:
        measured_a = complex(conditioned_shift(selected, pointer, space.a))
        annihilator = _triple(measured_a, predicted["a"])

    payload = {
        "amplified": amplified,
        "annihilator": annihilator,
        "eps": eps,
        "halving": halving_block,
        "obs": conf["obs"],
        "pointer": pointer_spec,
        "pointer_dim": pointer_dim,
        "pointer_gen": gen_key,
        "post": conf["post"],
        "pre": conf["pre"],
        "probability": probability,
        "seed": seed,
        "shifts": shifts,
        "spectral_radius": spectral_radius,
        "system_dim": system_dim,
        "weak_value": ow,
    }
    rows = [
        ("weak_value", ow.real, ow.imag),
        ("probability", probability, 0.0),
        ("spectral_radius", spectral_radius, 0.0),
        ("amplified", 1.0 if amplified else 0.0, 0.0),
        ("eps", eps, 0.0),
    ]
    for name in ("q", "p"):
        rows += _triple_rows(name, shifts[name])
        if halving_block is not None:
            ratio = halving_block[name]["ratio"]
            rows.append((f"{name}_half_residual", halving_block[name]["half_residual"], 0.0))
            rows.append((f"{name}_halving_ratio", "" if ratio is None else ratio, 0.0))
    if annihilator is not None:
        rows += _triple_rows("a", annihilator)
    return payload, ["quantity", "re", "im"], rows


def run_az(args):
    na, nb, j, sigma = args.na, args.nb, args.j, args.sigma
    if na < 1 or nb < 1:
        raise UsageError(f"factor dimensions must be positive, got {na} x {nb}")
    if gcd(na, nb) != 1:
        raise UsageError(f"factor dimensions {na} and {nb} share a factor; they must be coprime")
    _check_range(na * nb, 1, MAX_REGISTER_DIM, "product dimension")
    state = az_state(na, nb, j, sigma)
    cell_shift = [2 * np.pi * a / na for a in range(na)]
    cell_clock = [2 * np.pi * b / nb for b in range(nb)]
    payload = {
        "cell_grid": {
            "clock_phases": cell_clock,
            "selected": [state.j, state.sigma],
            "shift_phases": cell_shift,
        },
        "clock_phase": state.clock_phase,
        "j": state.j,
        "na": na,
        "nb": nb,
        "shift_phase": state.shift_phase,
        "sigma": state.sigma,
        "tensor": state.tensor,
        "vector": state.vector,
    }
    rows = _complex_rows("amplitude", state.vector)
    rows += _complex_rows("tensor_amplitude", state.tensor)
    rows += [
        ("shift_phase", "", state.shift_phase, 0.0),
        ("clock_phase", "", state.clock_phase, 0.0),
    ]
    rows += _complex_rows("cell_shift_phase", cell_shift)
    rows += _complex_rows("cell_clock_phase", cell_clock)
    return payload, ["quantity", "index", "re", "im"], rows


def run_nslit(args):
    n = args.n
    _check_range(n, 1, MAX_REGISTER_DIM, "register size")
    seed = resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    if args.potential == "random":
        if args.period is None:
            raise UsageError("--potential random requires --period")
        if args.period < 1:
            raise UsageError(f"period must be positive, got {args.period}")
        period = args.period
    else:
        tokens = args.potential.split(",")
        samples = np.array([_parse_number(t, float, "potential sample") for t in tokens])
        period = samples.size
        if args.period is not None and args.period != period:
            raise UsageError(f"--period {args.period} disagrees with {period} potential samples")
    if n % period != 0:  # checked before a random potential draws `period` samples
        raise UsageError(f"period {period} does not divide register size {n}")
    if args.potential == "random":
        samples = rng.uniform(0.0, 2 * np.pi, period)
    psi = nslit_evolve(n, samples)
    momentum = momentum_amplitudes(psi)
    stride = n // period
    support = [k for k in range(n) if abs(momentum[k]) > SUPPORT_TOL]
    support_ok = all(k % stride == 0 for k in support)
    payload = {
        "momentum": momentum,
        "n": n,
        "period": period,
        "position": psi,
        "potential": samples,
        "seed": seed,
        "support": support,
        "support_ok": support_ok,
        "support_stride": stride,
    }
    rows = _complex_rows("potential", samples)
    rows += _complex_rows("position", psi)
    rows += _complex_rows("momentum", momentum)
    rows += _complex_rows("support", support)
    rows += [
        ("support_stride", "", stride, 0.0),
        ("support_ok", "", 1.0 if support_ok else 0.0, 0.0),
    ]
    return payload, ["quantity", "index", "re", "im"], rows


def run_structure_constants(args):
    n = args.n
    _check_range(n, 3, MAX_STRUCTURE_DIM, "structure-constants dimension")
    if n % 2 == 0:
        raise BoundsError(f"structure constants need an odd dimension, got {n}")
    a = tuple(x % n for x in _parse_pair(args.a, "label a"))
    b = tuple(x % n for x in _parse_pair(args.b, "label b"))
    sc = StructureConstants(n)
    da, db = phase_point(n, *np.transpose([a, b]))
    direct = da @ db - db @ da
    reconstructed = sc.commutator(a, b)
    residual = float(np.max(np.abs(direct - reconstructed)))
    k = np.arange(n)
    lam = sc.value(a, b, (k[:, None], k[None, :]))
    payload = {
        "a": list(a),
        "b": list(b),
        "lambda": lam,
        "max_residual": residual,
        "n": n,
        "prefactor": complex(sc.prefactor),
    }
    rows = _grid_rows("lambda", lam)
    rows += [
        ("a_m", "", "", a[0]),
        ("a_n", "", "", a[1]),
        ("b_m", "", "", b[0]),
        ("b_n", "", "", b[1]),
        ("prefactor_re", "", "", sc.prefactor.real),
        ("prefactor_im", "", "", sc.prefactor.imag),
        ("max_residual", "", "", residual),
    ]
    return payload, ["quantity", "cm", "cn", "value"], rows


def run_coherent_gram(args):
    n = args.n
    _check_range(n, 1, MAX_GRAM_DIM, "coherent-gram dimension")
    family = CoherentFamily(n)
    gram = family.gram()
    identity_residual = float(
        np.max(np.abs(family.identity_resolution() - n * np.eye(n)))
    )
    m, nn = np.divmod(np.arange(n * n), n)  # flat index i = m·N + n
    closed = coherent_overlap_closed(n, m[:, None], nn[:, None], m[None, :], nn[None, :])
    max_closed_residual = float(np.max(np.abs(gram - closed)))
    predicted_mag = np.abs(closed[0]).reshape(n, n)  # the phase on row (0, 0) is exactly 1
    direct_mag = np.abs(gram[0, :].reshape(n, n))
    rt = np.sqrt(n)
    payload = {
        "generic_scale": float(1 / (rt + 1)),
        "identity_residual": identity_residual,
        "magnitude_direct": direct_mag,
        "magnitude_predicted": predicted_mag,
        "max_closed_residual": max_closed_residual,
        "n": n,
        "one_shared_magnitude": float((n + 2 * rt) / (2 * (n + rt))),
    }
    rows = _grid_rows("predicted_magnitude", predicted_mag)
    rows += _grid_rows("direct_magnitude", direct_mag)
    rows += [
        ("identity_residual", "", "", identity_residual),
        ("max_closed_residual", "", "", max_closed_residual),
        ("one_shared_magnitude", "", "", payload["one_shared_magnitude"]),
        ("generic_scale", "", "", payload["generic_scale"]),
    ]
    return payload, ["quantity", "dp", "dq", "value"], rows


_RUNNERS = {
    "wigner": run_wigner,
    "gauss-trace": run_gauss_trace,
    "weak": run_weak,
    "az": run_az,
    "nslit": run_nslit,
    "structure-constants": run_structure_constants,
    "coherent-gram": run_coherent_gram,
}


# --------------------------------------------------------------------------
# argument parsing and entry points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpl",
        description="Finite-dimensional phase-space experiments.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for randomized selectors (QPL_SEED env var takes precedence)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner", parents=[common], help="Wigner map of a selected state")
    p.add_argument("--n", type=int, required=True, help="register dimension N")
    p.add_argument(
        "--state",
        required=True,
        help="u<k> | v<k> | coherent:m,n | amps:c0,c1,... | mixed | random",
    )

    p = sub.add_parser("gauss-trace", parents=[common], help="DFT traces vs the closed form")
    p.add_argument("nmin", type=int)
    p.add_argument("nmax", type=int)

    p = sub.add_parser("weak", parents=[common], help="weak-measurement run from a config file")
    p.add_argument("--config", required=True, metavar="FILE", help="flat key = value config")

    p = sub.add_parser("az", parents=[common], help="modular lattice state on Z_Na x Z_Nb")
    p.add_argument("na", type=int)
    p.add_argument("nb", type=int)
    p.add_argument("j", type=int)
    p.add_argument("sigma", type=int)

    p = sub.add_parser("nslit", parents=[common], help="periodic phase mask on the flat state")
    p.add_argument("--n", type=int, required=True, help="register dimension N")
    p.add_argument("--period", type=int, default=None, help="potential period (divides N)")
    p.add_argument(
        "--potential",
        required=True,
        help="comma-separated real samples of one period, or 'random' (needs --period)",
    )

    p = sub.add_parser(
        "structure-constants", parents=[common], help="commutator expansion check (odd N)"
    )
    p.add_argument("--n", type=int, required=True, help="odd register dimension N")
    p.add_argument("--a", default="1,0", help="first phase-point label m,n")
    p.add_argument("--b", default="0,1", help="second phase-point label m,n")

    p = sub.add_parser(
        "coherent-gram", parents=[common], help="coherent overlaps vs their closed form"
    )
    p.add_argument("--n", type=int, required=True, help="register dimension N")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        payload, header, rows = _RUNNERS[args.command](args)
        text = canonical_json(payload) if args.format == "json" else csv_text(header, rows)
        if args.out:
            Path(args.out).write_text(text, newline="")
        else:
            sys.stdout.write(text)
    except _CliError as exc:
        print(f"qpl: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"qpl: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
