"""Byte check of the qpl CLI: one digest per subcommand over a seeded corpus.

Usage:
    python tools/bytecheck.py SRC_DIR [SEED]

Imports `qpl` from SRC_DIR (the directory that holds the `qpl` package),
draws a corpus of argv from SEED (default 7) and runs each one through
`qpl.cli.main` in this process, once with `--format json` and once with
`--format csv`.  The corpus covers all seven subcommands, valid runs and
invalid ones (usage, bounds and degeneracy errors, exit codes 2, 3 and 4).
For each subcommand it prints the number of runs, the count per exit code
and a sha256 over (argv, exit code, stdout, stderr) of every run in order.

Two source trees print the same lines for a seed exactly when every run of
that corpus gives the same bytes on both.  Weak configs are written under a
temporary working directory with fixed relative names, so paths in error
messages do not differ between runs, and BLAS runs on one thread.  Needs
only the standard library and qpl.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from collections import Counter

def _ket_selector(rng: random.Random, dim: int, fault_rate: float = 0.15) -> str:
    if rng.random() < fault_rate:
        amps = ",".join(["0.5"] * (dim + 1))
        return rng.choice((f"u{dim}", f"v{dim}", "w3", "coherent:1", "amps:", f"amps:{amps}", "u-1"))
    kind = rng.choice(("u", "v", "coherent", "amps", "random"))
    if kind in "uv":
        return f"{kind}{rng.randrange(dim)}"
    if kind == "coherent":
        return f"coherent:{rng.randint(-3, 9)},{rng.randint(-3, 9)}"
    if kind == "amps":
        amps = [f"{rng.uniform(-1, 1):.3f}{rng.uniform(-1, 1):+.3f}j" for _ in range(dim)]
        if rng.random() < 0.03:
            amps = ["0"] * dim
        return "amps:" + ",".join(amps)
    return "random"


def _wigner(rng: random.Random) -> list[str]:
    n = rng.choice((0, 65)) if rng.random() < 0.05 else rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 31, 64))
    state = "mixed" if rng.random() < 0.1 else _ket_selector(rng, max(n, 1))
    argv = ["wigner", "--n", str(n), "--state", state]
    if rng.random() < 0.5:
        argv += ["--seed", str(rng.randrange(100))]
    return argv


def _gauss_trace(rng: random.Random) -> list[str]:
    nmin = rng.randint(0, 40)
    nmax = nmin + rng.randint(-2, 24)
    if rng.random() < 0.1:
        nmax = 65
    return ["gauss-trace", str(nmin), str(nmax)]


def _az(rng: random.Random) -> list[str]:
    na, nb = rng.randint(1, 12), rng.randint(1, 12)
    if rng.random() < 0.08:
        na, nb = rng.choice(((-1, 3), (9, 8), (13, 7)))
    return ["az", str(na), str(nb), str(rng.randint(-5, 20)), str(rng.randint(-5, 20))]


def _nslit(rng: random.Random) -> list[str]:
    n = rng.choice((0, 65)) if rng.random() < 0.05 else rng.choice((1, 2, 4, 6, 8, 12, 16, 24, 60, 64))
    period = rng.choice((1, 2, 3, 4, 6, 8))
    argv = ["nslit", "--n", str(n)]
    if rng.random() < 0.4:
        argv += ["--potential", "random"]
        if rng.random() < 0.9:
            argv += ["--period", str(period if rng.random() < 0.95 else 0)]
        argv += ["--seed", str(rng.randrange(100))]
    else:
        samples = [f"{rng.uniform(-4, 7):.4f}" for _ in range(period)]
        if rng.random() < 0.05:
            samples[0] = "nan"
        argv.append("--potential=" + ",".join(samples))  # "=" keeps "-1.5,..." a value
        if rng.random() < 0.2:
            argv += ["--period", str(period + rng.choice((0, 1)))]
    return argv


def _structure_constants(rng: random.Random) -> list[str]:
    n = rng.choice((2, 4, 17)) if rng.random() < 0.1 else rng.choice((3, 5, 7, 9, 11, 13, 15))
    argv = ["structure-constants", "--n", str(n)]
    for flag in ("--a", "--b"):
        if rng.random() < 0.8:
            label = f"{rng.randint(-20, 20)},{rng.randint(-20, 20)}"
            argv.append(f"{flag}={label if rng.random() < 0.95 else '1'}")
    return argv


def _coherent_gram(rng: random.Random) -> list[str]:
    n = rng.choice((0, 17)) if rng.random() < 0.1 else rng.randint(1, 16)
    return ["coherent-gram", "--n", str(n)]


def _weak_config(rng: random.Random) -> str:
    system_dim = rng.choice((2, 2, 2, 3, 4, 5, 8))
    pointer_dim = rng.choice((8, 16, 32, 64, 64, 128))
    if rng.random() < 0.02:
        system_dim, pointer_dim = 64, 256
    conf = {
        "system_dim": str(system_dim),
        "pointer_dim": str(pointer_dim),
        "pre": _ket_selector(rng, system_dim, 0.04),
        "post": _ket_selector(rng, system_dim, 0.04),
        "eps": f"{rng.choice((0.0, 1e-3, 0.01, 0.05, 0.2, 1.0)) * rng.uniform(0.5, 1.5):.6g}",
    }
    if system_dim == 2 and rng.random() < 0.15:
        conf["pre"], conf["post"] = "u0", "u1"  # orthogonal: degenerate
    if system_dim == 2 and rng.random() < 0.4:
        conf["obs"] = rng.choice(("sx", "sy", "sz"))
    elif rng.random() < 0.5:
        conf["obs"] = "number"
    else:
        conf["obs"] = "diag:" + ",".join(f"{rng.uniform(-2, 2):.3f}" for _ in range(system_dim))
    if rng.random() < 0.5:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if rng.random() < 0.05:
            z *= 20  # past the truncation guard
        conf["pointer"] = f"coherent:{z.real:.3f}{z.imag:+.3f}j"
    if rng.random() < 0.8:
        conf["pointer_gen"] = rng.choice(("q", "p", "n", "h0", "g", "k"))
    if rng.random() < 0.3:
        conf["halving"] = rng.choice(("true", "false", "no", "yes", "maybe"))
    if rng.random() < 0.3:
        conf["seed"] = str(rng.randrange(1000))
    fault = rng.random()
    if fault < 0.03:
        conf["system_dim"] = rng.choice(("1", "65", "two"))
    elif fault < 0.05:
        conf["pointer_dim"] = rng.choice(("1", "257"))
    elif fault < 0.07:
        conf["eps"] = rng.choice(("-0.1", "inf", "x"))
    elif fault < 0.09:
        del conf["pre"]
    elif fault < 0.10:
        conf["colour"] = "blue"
    elif fault < 0.11:
        conf["pointer_gen"] = "x"
    lines = [f"{key} = {value}" for key, value in conf.items()]
    if rng.random() < 0.02:
        lines.append("no equals sign")
    return "# weak run\n" + "\n".join(lines) + "\n"


def _weak(rng: random.Random) -> list[str]:
    if rng.random() < 0.02:
        return ["weak", "--config", "missing.conf"]
    argv = ["weak", "--config", _weak_config(rng)]
    if rng.random() < 0.2:
        argv += ["--seed", str(rng.randrange(100))]
    return argv


# argv that argparse itself rejects, or that print help
PARSER_CASES = (
    [],
    ["--help"],
    ["frobnicate"],
    ["wigner", "--help"],
    ["wigner", "--n", "3"],
    ["wigner", "--n", "three", "--state", "u0"],
    ["gauss-trace", "5"],
    ["az", "2", "3", "1"],
    ["nslit", "--n", "4"],
    ["structure-constants"],
    ["coherent-gram", "--n", "2", "--seed", "x"],
    ["weak"],
)


# subcommand -> (argv maker, number of argv drawn per seed)
MAKERS = {
    "wigner": (_wigner, 160),
    "gauss-trace": (_gauss_trace, 70),
    "weak": (_weak, 240),
    "az": (_az, 90),
    "nslit": (_nslit, 90),
    "structure-constants": (_structure_constants, 70),
    "coherent-gram": (_coherent_gram, 40),
}


def corpus(seed: int) -> tuple[list[tuple[str, list[str]]], dict[str, str]]:
    """(subcommand, argv without --format) pairs, and the weak config files.

    A weak argv names its config by a fixed relative path; the second
    return value maps each such path to the text to write there.
    """
    rng = random.Random(seed)
    cases, files = [], {}
    for command, (maker, count) in MAKERS.items():
        for _ in range(count):
            argv = maker(rng)
            if command == "weak" and argv[2] != "missing.conf":
                path = f"weak{len(files):04d}.conf"
                files[path], argv[2] = argv[2], path
            cases.append((command, argv))
    cases += [(argv[0] if argv and argv[0] in MAKERS else "parser", argv) for argv in PARSER_CASES]
    return cases, files


def run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def bytecheck(src_dir: str, seed: int) -> list[str]:
    sys.path.insert(0, os.path.abspath(src_dir))
    os.environ.pop("QPL_SEED", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    # At the weak caps the printed rounding noise depends on the BLAS thread
    # count, so pin it before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from qpl.cli import main

    digests = {}
    counts: dict[str, Counter] = {}
    start = os.getcwd()
    cases, files = corpus(seed)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for path, text in files.items():
                with open(path, "w") as fh:
                    fh.write(text)
            for command, argv in cases:
                for fmt in ("json", "csv"):
                    full = argv + ["--format", fmt] if argv else argv
                    code, out, err = run(main, full)
                    record = "\0".join([" ".join(full), str(code), out, err]) + "\0"
                    digests.setdefault(command, hashlib.sha256()).update(record.encode())
                    counts.setdefault(command, Counter())[code] += 1
        finally:
            os.chdir(start)
    lines = []
    for command in sorted(digests):
        tally = counts[command]
        exits = " ".join(f"{code}:{tally[code]}" for code in sorted(tally))
        lines.append(f"{command} {sum(tally.values())} [{exits}] {digests[command].hexdigest()}")
    total = sum(sum(c.values()) for c in counts.values())
    lines.append(f"total {total}")
    return lines


def cli(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python tools/bytecheck.py SRC_DIR [SEED]", file=sys.stderr)
        return 2
    seed = int(argv[1]) if len(argv) == 2 else 7
    print("\n".join(bytecheck(argv[0], seed)))
    return 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
