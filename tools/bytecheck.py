"""Byte check of the qpl CLI: one digest per subcommand over a seeded corpus.

Usage:
    python tools/bytecheck.py SRC_DIR [SEED] [--threads N] [--order ORDER]
    python tools/bytecheck.py SRC_DIR [SEED] --against OTHER_SRC_DIR [--threads N] [--order ORDER]

Imports `qpl` from SRC_DIR (the directory that holds the `qpl` package),
draws a corpus of argv from SEED (default 7) and runs each one through
`qpl.cli.main` in this process, once with `--format json` and once with
`--format csv`.  The corpus covers all seven subcommands, valid runs and
invalid ones (usage, bounds and degeneracy errors, exit codes 2, 3 and 4),
every coherent-gram N from 1 to its cap at each seed, and now and then a
label past int64 (±10²⁰) in `coherent:m,n`, the az `j sigma` and the
structure-constants `--a`/`--b`.  A fixed list, `PARSER_CASES`, adds argv
that the argument parser rejects or prints help for, or reads through an
abbreviated option or after `--`.
For each subcommand it prints the number of runs, the count per exit code
and a sha256 over (argv, exit code, stdout, stderr) of every run in corpus
order.  A run where `main` raises is recorded, not fatal: its exit code is
`raised` and its stderr ends with `Type: message`.

`--threads N` sets the OpenBLAS (and OpenMP, MKL) thread count of the runs,
before numpy is first imported; the default is 1.  `--order` sets the order
the runs execute in: `given` (the default) is corpus order, `shuffled` a
permutation drawn from SEED, and `cold` is corpus order with every qpl
`lru_cache` emptied before each run.  Results are hashed in corpus order
whatever the execution order, so each option prints the same digests as the
defaults exactly when the printed bytes depend on neither the thread count
nor the history of the process.

Two source trees print the same lines for a seed exactly when every run of
that corpus gives the same bytes on both.  `--against OTHER_SRC_DIR` makes
that comparison itself: it runs the corpus on both trees, each in its own
child process (`--runs` prints one JSON line per run) with the same
`--threads` and `--order`, and prints `same` or `differs` per subcommand.  A
differing subcommand also gets the number of differing runs, the first
differing argv, and one line per printed field (a JSON key path, or a CSV
quantity and column) with the largest absolute change of that field and the
argv where it happens; runs whose exit code or text outside the numbers
differ are counted separately.  It exits 1 when any run differs.  Weak
configs are written under a temporary working directory with fixed relative
names, so paths in error messages do not differ between runs.  Needs only
the standard library and qpl.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter

class Draws(random.Random):
    """The corpus stream of one seed, plus a second stream `far` that moves labels
    past int64, so that every other draw of the corpus stays as it was."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.far = random.Random(f"{seed} past int64")


def _label(rng: Draws, lo: int, hi: int) -> int:
    """An integer in lo..hi, one time in ten moved past int64 by ±10²⁰."""
    label = rng.randint(lo, hi)
    return label + rng.far.choice((-1, 1)) * 10**20 if rng.far.random() < 0.1 else label


def _ket_selector(rng: random.Random, dim: int, fault_rate: float = 0.15) -> str:
    if rng.random() < fault_rate:
        amps = ",".join(["0.5"] * (dim + 1))
        return rng.choice((f"u{dim}", f"v{dim}", "w3", "coherent:1", "amps:", f"amps:{amps}", "u-1"))
    kind = rng.choice(("u", "v", "coherent", "amps", "random"))
    if kind in "uv":
        return f"{kind}{rng.randrange(dim)}"
    if kind == "coherent":
        return f"coherent:{_label(rng, -3, 9)},{_label(rng, -3, 9)}"
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
    return ["az", str(na), str(nb), str(_label(rng, -5, 20)), str(_label(rng, -5, 20))]


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
    n = rng.choice((2, 4, 64, 65)) if rng.random() < 0.1 else rng.randrange(3, 64, 2)
    argv = ["structure-constants", "--n", str(n)]
    for flag in ("--a", "--b"):
        if rng.random() < 0.8:
            label = f"{_label(rng, -20, 20)},{_label(rng, -20, 20)}"
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


# argv that argparse itself rejects or prints help for, or that it reads
# through an abbreviated option or after `--`
PARSER_CASES = (
    [],
    ["--help"],
    ["-h"],
    ["frobnicate"],
    ["--", "wigner", "--n", "2", "--state", "u0"],
    ["wigner", "--help"],
    ["wigner", "--n", "3"],
    ["wigner", "--n", "three", "--state", "u0"],
    ["gauss-trace", "5"],
    ["az", "2", "3", "1"],
    ["nslit", "--n", "4"],
    ["structure-constants"],
    ["coherent-gram", "--n", "2", "--seed", "x"],
    ["weak"],
    *([command, "-h"] for command in MAKERS),
    ["wigner", "--n", "3", "--state", "u0", "--bogus"],
    ["wigner", "--n", "3", "--state", "u0", "extra"],
    ["gauss-trace", "1", "3", "4"],
    ["coherent-gram", "--n", "2", "coherent-gram"],
    ["wigner", "--n", "2", "--state", "u0", "--form", "csv"],
    ["wigner", "--sta", "u0", "--n", "2"],
    ["nslit", "--n", "4", "--pot=0.5,1.5", "--per", "2"],
    ["gauss-trace", "--", "1", "3"],
    ["az", "--", "2", "3", "1", "-1"],
    ["wigner", "--n", "2", "--", "--state", "u0"],
)


def corpus(seed: int) -> tuple[list[tuple[str, list[str]]], dict[str, str]]:
    """(subcommand, argv without --format) pairs, and the weak config files.

    A weak argv names its config by a fixed relative path; the second
    return value maps each such path to the text to write there.
    """
    rng = Draws(seed)
    cases, files = [], {}
    for command, (maker, count) in MAKERS.items():
        for _ in range(count):
            argv = maker(rng)
            if command == "weak" and argv[2] != "missing.conf":
                path = f"weak{len(files):04d}.conf"
                files[path], argv[2] = argv[2], path
            cases.append((command, argv))
        if command == "coherent-gram":  # every N up to the cap, which the draws can miss
            cases += [(command, ["coherent-gram", "--n", str(n)]) for n in range(1, 17)]
    cases += [(argv[0] if argv and argv[0] in MAKERS else "parser", argv) for argv in PARSER_CASES]
    return cases, files


def run(main, argv: list[str]) -> tuple[int | str, str, str]:
    """(exit code, stdout, stderr) of main(argv); an exception escaping main is
    the exit code `raised`, with `Type: message` appended to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = "raised"
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


ORDERS = ("given", "shuffled", "cold")


def _qpl_caches() -> list:
    """Every `lru_cache` at module level in the imported qpl modules."""
    modules = [m for name, m in sys.modules.items() if name == "qpl" or name.startswith("qpl.")]
    found = {id(f): f for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")}
    return list(found.values())


def runs(src_dir: str, seed: int, threads: int = 1, order: str = "given"):
    """(subcommand, argv text, exit code, stdout + stderr, record) per run, in corpus order.

    The record joins argv, exit code, stdout and stderr; the digests hash it.
    The runs execute in `order` (see the module docstring) on `threads` BLAS threads.
    """
    sys.path.insert(0, os.path.abspath(src_dir))
    os.environ.pop("QPL_SEED", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    # The thread count must be set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    from qpl.cli import main

    caches = _qpl_caches() if order == "cold" else []
    start = os.getcwd()
    cases, files = corpus(seed)
    plan = [
        (command, argv + ["--format", fmt] if argv else argv)
        for command, argv in cases
        for fmt in ("json", "csv")
    ]
    schedule = list(range(len(plan)))
    if order == "shuffled":
        random.Random(seed).shuffle(schedule)
    results = {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for path, text in files.items():
                with open(path, "w") as fh:
                    fh.write(text)
            for i in schedule:
                for cache in caches:
                    cache.cache_clear()
                results[i] = run(main, plan[i][1])
        finally:
            os.chdir(start)
    for i, (command, full) in enumerate(plan):
        code, out, err = results[i]
        record = "\0".join([" ".join(full), str(code), out, err]) + "\0"
        yield command, " ".join(full), code, out + err, record.encode()


def bytecheck(src_dir: str, seed: int, threads: int = 1, order: str = "given") -> list[str]:
    digests = {}
    counts: dict[str, Counter] = {}
    for command, _, code, _, record in runs(src_dir, seed, threads, order):
        digests.setdefault(command, hashlib.sha256()).update(record)
        counts.setdefault(command, Counter())[code] += 1
    lines = []
    for command in sorted(digests):
        tally = counts[command]
        exits = " ".join(f"{code}:{tally[code]}" for code in sorted(tally, key=str))
        lines.append(f"{command} {sum(tally.values())} [{exits}] {digests[command].hexdigest()}")
    total = sum(sum(c.values()) for c in counts.values())
    lines.append(f"total {total}")
    return lines


def _child_runs(src_dir: str, seed: int, threads: int, order: str) -> dict[str, list[list]]:
    """Per subcommand, [argv, digest, exit code, stdout + stderr] of every run of SRC_DIR, from a child process."""
    child = [sys.executable, os.path.abspath(__file__), src_dir, str(seed), "--runs"]
    child += ["--threads", str(threads), "--order", order]
    out = subprocess.run(child, capture_output=True, text=True, check=True).stdout
    per_command: dict[str, list[list]] = {}
    for line in out.splitlines():
        command, *run = json.loads(line)
        per_command.setdefault(command, []).append(run)
    return per_command


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def printed_fields(argv: str, code: int, printed: str) -> list[tuple[str, str]]:
    """(field, number text) for every number a run printed, in order.

    A field of a successful run is its JSON key path, with each list index
    written [*], or its CSV `quantity.column` (just the column when the
    first column is not `quantity`).  Any other text is the one field
    `text`, holding the numbers NUMBER finds in it.
    """
    if code == 0 and argv.endswith("--format json"):
        with contextlib.suppress(ValueError):
            return list(_json_fields(json.loads(printed, parse_float=str, parse_int=str), ""))
    if code == 0 and argv.endswith("--format csv"):
        header, *rows = csv.reader(io.StringIO(printed, newline=""))
        named = header[0] == "quantity"
        return [
            (f"{row[0]}.{column}" if named else column, value)
            for row in rows
            for column, value in zip(header, row)
            if NUMBER.fullmatch(value)
        ]
    return [("text", number) for number in NUMBER.findall(printed)]


def _json_fields(node, path: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_fields(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for value in node:
            yield from _json_fields(value, f"{path}[*]")
    elif isinstance(node, str) and NUMBER.fullmatch(node):
        yield path, node


def field_changes(ours: list, theirs: list) -> dict[str, float] | None:
    """Largest absolute change per printed field between two runs of one argv.

    None when the runs differ in exit code or in text outside their numbers.
    """
    (argv, _, code_a, a), (_, _, code_b, b) = ours, theirs
    if code_a != code_b or NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    fields_a, fields_b = printed_fields(argv, code_a, a), printed_fields(argv, code_b, b)
    if [f for f, _ in fields_a] != [f for f, _ in fields_b]:
        return None
    changes: dict[str, float] = {}
    for (field, x), (_, y) in zip(fields_a, fields_b):
        changes[field] = max(changes.get(field, 0.0), abs(float(x) - float(y)))
    return changes


def compare(src_dir: str, other_dir: str, seed: int, threads: int = 1, order: str = "given"):
    """(`same` or `differs` per subcommand, whether every run matched).

    Under a differing subcommand, one indented line per printed field that
    changed gives its largest absolute change and the argv where it happens.
    """
    ours = _child_runs(src_dir, seed, threads, order)
    theirs = _child_runs(other_dir, seed, threads, order)
    lines, same = [], True
    for command in sorted(set(ours) | set(theirs)):
        a, b = ours.get(command, []), theirs.get(command, [])
        differing = [(x, y) for x, y in zip(a, b) if x[1] != y[1]]
        if not differing and len(a) == len(b):
            lines.append(f"{command} same")
            continue
        same = False
        line = f"{command} differs: {len(differing)} of {len(a)} runs"
        if len(a) != len(b):
            line += f" against {len(b)}"
        if differing:
            line += f", first at {differing[0][0][0]}"
        largest: dict[str, tuple[float, str]] = {}
        other = []
        for x, y in differing:
            changes = field_changes(x, y)
            if changes is None:
                other.append(x[0])
                continue
            for field, change in changes.items():
                if change > largest.get(field, (0.0, ""))[0]:
                    largest[field] = (change, x[0])
        if other:
            line += f"; {len(other)} differ beyond their numbers, first at {other[0]}"
        lines.append(line)
        for field, (change, argv) in sorted(largest.items(), key=lambda item: -item[1][0]):
            lines.append(f"  {field} {change:.3g} at {argv}")
    return lines, same


def cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bytecheck.py", description=__doc__.splitlines()[0])
    parser.add_argument("src_dir")
    parser.add_argument("seed", nargs="?", type=int, default=7)
    parser.add_argument("--against", metavar="OTHER_SRC_DIR", help="compare run by run with this tree")
    parser.add_argument("--runs", action="store_true", help="print one digest per run")
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads per run (default 1)")
    parser.add_argument("--order", choices=ORDERS, default="given", help="run execution order")
    args = parser.parse_args(argv)
    if not 1 <= args.threads <= 64:
        parser.error(f"--threads must lie in 1..64, got {args.threads}")
    settings = (args.src_dir, args.seed, args.threads, args.order)
    if args.against:
        lines, same = compare(args.src_dir, args.against, *settings[1:])
        print("\n".join(lines))
        return 0 if same else 1
    if args.runs:
        for command, text, code, printed, record in runs(*settings):
            print(json.dumps([command, text, hashlib.sha256(record).hexdigest(), code, printed]))
        return 0
    print("\n".join(bytecheck(*settings)))
    return 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
