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
import cmath
import os
import sys
from math import gcd
from pathlib import Path

import numpy as np

from .coherent import CoherentFamily, _closed_form_check, coherent_state
from .fock import FockSpace
from .linalg import basis_ket, random_density, random_ket
from .modular import _momentum_amplitudes, az_state, nslit_evolve
from .schwinger import dft, gauss_trace, gauss_trace_closed_form
from .serialize import Block, canonical_json, csv_text
from .weak import WeakConfig, weak_run
from .weylwigner import StructureConstants, phase_point, wigner_map

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUNDS = 3
EXIT_DEGENERATE = 4

MAX_REGISTER_DIM = 64  # single cyclic register (wigner, az, nslit, gauss-trace)
MAX_SYSTEM_DIM = 64
MAX_POINTER_DIM = 256
# A request builds two phase-point operators and one weighted sum through the
# Weyl moments: O(N³) time, O(N²) memory, a few ms at the register cap.
MAX_STRUCTURE_DIM = 63
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
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
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


def parse_pointer_selector(spec: str, space: FockSpace) -> tuple[np.ndarray, complex | None]:
    """vacuum | coherent:z, as (pointer ket, z or None)"""
    if spec == "vacuum":
        return space.vacuum(), None
    if not spec.startswith("coherent:"):
        raise UsageError(f"unknown pointer selector {spec!r}")
    z = _parse_number(spec.partition(":")[2], complex, "pointer displacement")
    try:
        return space.coherent(z), z
    except ValueError as exc:
        raise BoundsError(str(exc)) from exc


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be two integers like 1,0, got {text!r}")
    return _parse_number(parts[0], int, what), _parse_number(parts[1], int, what)


def _check_range(value: int, lo: int, hi: int, what: str) -> None:
    if not lo <= value <= hi:
        raise BoundsError(f"{what} must lie in {lo}..{hi}, got {value}")


# --------------------------------------------------------------------------
# command runners: each returns its output as one ordered list of blocks


def _echo(**inputs) -> list[Block]:
    """Inputs a payload repeats: JSON only."""
    return [Block(key, value, None) for key, value in inputs.items()]


def run_wigner(args, seed):
    n = args.n
    _check_range(n, 1, MAX_REGISTER_DIM, "wigner dimension")
    rho = parse_density_selector(args.state, n, np.random.default_rng(seed))
    wm = wigner_map(rho)
    values = wm.values
    return [
        Block("values", values, "value"),
        Block("marginal_momentum", values.sum(axis=1)),
        Block("marginal_position", values.sum(axis=0), axis=1),
        Block("total", wm.total),
        Block("negativity", wm.negativity),
        Block("min_value", wm.min_value),
        *_echo(dim=n, seed=seed, state=args.state),
    ]


def run_gauss_trace(args, seed):
    nmin, nmax = args.nmin, args.nmax
    if nmin < 1 or nmin > nmax:
        raise UsageError(f"need 1 <= NMIN <= NMAX, got {nmin}..{nmax}")
    _check_range(nmax, 1, MAX_REGISTER_DIM, "NMAX")
    entries = []
    for n in range(nmin, nmax + 1):
        trace = gauss_trace(n)
        closed = gauss_trace_closed_form(n)
        match = bool(abs(trace - closed) <= MATCH_TOL)
        entries.append({"n": n, "trace": trace, "closed_form": closed, "match": match})
    return [Block("entries", entries), *_echo(nmax=nmax, nmin=nmin)]


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


@np.errstate(over="ignore", invalid="ignore")  # weak_run reports an overflow by value
def run_weak(args, seed):
    conf = args.entries
    system_dim = _parse_number(conf["system_dim"], int, "system_dim")
    _check_range(system_dim, 2, MAX_SYSTEM_DIM, "system_dim")
    pointer_dim = _parse_number(conf["pointer_dim"], int, "pointer_dim")
    _check_range(pointer_dim, 2, MAX_POINTER_DIM, "pointer_dim")
    eps = _parse_number(conf["eps"], float, "eps")
    if eps < 0:
        raise UsageError(f"eps must be nonnegative, got {eps}")
    halving = _parse_number(conf["halving"], bool, "halving")
    rng = np.random.default_rng(seed)

    space = FockSpace(pointer_dim)
    pointer, coherent_z = parse_pointer_selector(conf["pointer"], space)

    gen_key = conf["pointer_gen"]
    if gen_key not in space.GENERATORS:
        raise UsageError(f"pointer_gen must be one of {sorted(space.GENERATORS)}, got {gen_key!r}")
    generator = getattr(space, space.GENERATORS[gen_key])

    obs = parse_obs_selector(conf["obs"], system_dim)
    pre = parse_ket_selector(conf["pre"], system_dim, rng)
    post = parse_ket_selector(conf["post"], system_dim, rng)
    try:
        cfg = WeakConfig(pre, post, obs, generator, pointer, eps, space.spectrum(gen_key))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    lowering = (space.a, coherent_z) if coherent_z is not None and gen_key == "n" else None
    readouts = {"q": space.q, "p": space.p}
    try:
        run = weak_run(cfg, readouts, halving, lowering)
    except OverflowError as exc:
        raise BoundsError(str(exc)) from exc
    except ValueError as exc:
        raise DegeneracyError(str(exc)) from exc

    blocks = [
        Block("weak_value", run.weak_value),
        Block("probability", run.selected.probability),
        Block("spectral_radius", run.spectral_radius),
        Block("amplified", bool(abs(run.weak_value) > run.spectral_radius + 1e-12)),
        Block("eps", eps),
    ]
    for name, shift in run.shifts.items():
        blocks.append(Block(f"shifts.{name}", shift, name))
        if halving:
            parts = ("half_residual", "halving_ratio")
            blocks.append(Block(f"halving.{name}", run.halving[name], name, parts))
    if not halving:
        blocks.append(Block("halving", None))
    blocks.append(Block("annihilator", run.annihilator, "a"))
    selectors = {key: conf[key] for key in ("obs", "pointer", "pointer_gen", "post", "pre")}
    return blocks + _echo(**selectors, pointer_dim=pointer_dim, seed=seed, system_dim=system_dim)


def run_az(args, seed):
    na, nb, j, sigma = args.na, args.nb, args.j, args.sigma
    if na < 1 or nb < 1:
        raise UsageError(f"factor dimensions must be positive, got {na} x {nb}")
    if gcd(na, nb) != 1:
        raise UsageError(f"factor dimensions {na} and {nb} share a factor; they must be coprime")
    _check_range(na * nb, 1, MAX_REGISTER_DIM, "product dimension")
    state = az_state(na, nb, j, sigma)
    return [
        Block("vector", state.vector, "amplitude"),
        Block("tensor", state.tensor, "tensor_amplitude"),
        Block("shift_phase", state.shift_phase),
        Block("clock_phase", state.clock_phase),
        Block("cell_grid.shift_phases", 2 * np.pi * np.arange(na) / na, "cell_shift_phase"),
        Block("cell_grid.clock_phases", 2 * np.pi * np.arange(nb) / nb, "cell_clock_phase"),
        Block("cell_grid.selected", [state.j, state.sigma], None),
        *_echo(j=state.j, na=na, nb=nb, sigma=state.sigma),
    ]


def run_nslit(args, seed):
    n = args.n
    _check_range(n, 1, MAX_REGISTER_DIM, "register size")
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
        samples = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, period)
    psi = nslit_evolve(n, samples)
    momentum = _momentum_amplitudes(psi)
    stride = n // period
    support = np.flatnonzero(np.abs(momentum) > SUPPORT_TOL)
    return [
        Block("potential", samples),
        Block("position", psi),
        Block("momentum", momentum),
        Block("support", support),
        Block("support_stride", stride),
        Block("support_ok", bool(np.all(support % stride == 0))),
        *_echo(n=n, period=period, seed=seed),
    ]


def run_structure_constants(args, seed):
    n = args.n
    _check_range(n, 3, MAX_STRUCTURE_DIM, "structure-constants dimension")
    if n % 2 == 0:
        raise BoundsError(f"structure constants need an odd dimension, got {n}")
    a = tuple(x % n for x in _parse_pair(args.a, "label a"))
    b = tuple(x % n for x in _parse_pair(args.b, "label b"))
    sc = StructureConstants(n)
    da, db = phase_point(n, *np.transpose([a, b]))
    lam = sc.value(a, b, np.ogrid[:n, :n])
    residual = float(np.max(np.abs(da @ db - db @ da - sc.commutator(a, b, lam))))
    return [
        Block("lambda", lam),
        Block("a", list(a), parts=("m", "n")),
        Block("b", list(b), parts=("m", "n")),
        Block("prefactor", complex(sc.prefactor), parts=("re", "im")),
        Block("max_residual", residual),
        *_echo(n=n),
    ]


def run_coherent_gram(args, seed):
    n = args.n
    _check_range(n, 1, MAX_GRAM_DIM, "coherent-gram dimension")
    family = CoherentFamily(n)
    gram = family.gram()
    identity_residual = float(np.max(np.abs(family.identity_resolution() - n * np.eye(n))))
    closed_row, closed_residual = _closed_form_check(n, gram)
    rt = np.sqrt(n)
    return [
        # the phase on row (0, 0) is exactly 1
        Block("magnitude_predicted", np.abs(closed_row).reshape(n, n), "predicted_magnitude"),
        Block("magnitude_direct", np.abs(gram[0, :].reshape(n, n)), "direct_magnitude"),
        Block("identity_residual", identity_residual),
        Block("max_closed_residual", closed_residual),
        Block("one_shared_magnitude", float((n + 2 * rt) / (2 * (n + rt)))),
        Block("generic_scale", float(1 / (rt + 1))),
        *_echo(n=n),
    ]


# --------------------------------------------------------------------------
# argument parsing and entry points


def build_parser() -> argparse.ArgumentParser:
    description = "Finite-dimensional phase-space experiments."
    parser = argparse.ArgumentParser(prog="qpl", description=description)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    seed_help = "seed for randomized selectors (QPL_SEED env var takes precedence)"
    common.add_argument("--seed", type=int, help=seed_help)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, header: tuple[str, ...], summary: str) -> argparse.ArgumentParser:
        """A subcommand with its runner and the columns of its CSV output."""
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run, header=header)
        return p

    p = command("wigner", run_wigner, ("quantity", "m", "n", "value"), "Wigner map of a selected state")
    p.add_argument("--n", type=int, required=True, help="register dimension N")
    p.add_argument(
        "--state",
        required=True,
        help="u<k> | v<k> | coherent:m,n | amps:c0,c1,... | mixed | random",
    )

    header = ("n", "trace_re", "trace_im", "closed_re", "closed_im", "match")
    p = command("gauss-trace", run_gauss_trace, header, "DFT traces vs the closed form")
    p.add_argument("nmin", type=int)
    p.add_argument("nmax", type=int)

    p = command("weak", run_weak, ("quantity", "re", "im"), "weak-measurement run from a config file")
    p.add_argument("--config", required=True, metavar="FILE", help="flat key = value config")

    header = ("quantity", "index", "re", "im")
    p = command("az", run_az, header, "modular lattice state on Z_Na x Z_Nb")
    p.add_argument("na", type=int)
    p.add_argument("nb", type=int)
    p.add_argument("j", type=int)
    p.add_argument("sigma", type=int)

    p = command("nslit", run_nslit, header, "periodic phase mask on the flat state")
    p.add_argument("--n", type=int, required=True, help="register dimension N")
    p.add_argument("--period", type=int, default=None, help="potential period (divides N)")
    p.add_argument(
        "--potential",
        required=True,
        help="comma-separated real samples of one period, or 'random' (needs --period)",
    )

    header = ("quantity", "cm", "cn", "value")
    summary = "commutator expansion check (odd N)"
    p = command("structure-constants", run_structure_constants, header, summary)
    p.add_argument("--n", type=int, required=True, help="odd register dimension N")
    p.add_argument("--a", default="1,0", help="first phase-point label m,n")
    p.add_argument("--b", default="0,1", help="second phase-point label m,n")

    header = ("quantity", "dp", "dq", "value")
    p = command("coherent-gram", run_coherent_gram, header, "coherent overlaps vs their closed form")
    p.add_argument("--n", type=int, required=True, help="register dimension N")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        # one seed rule for every subcommand; weak's config file may carry a seed too
        args.entries = _read_config(args.config) if args.command == "weak" else {"seed": "0"}
        blocks = args.run(args, resolve_seed(args.seed, args.entries["seed"]))
        text = canonical_json(blocks) if args.format == "json" else csv_text(args.header, blocks)
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
