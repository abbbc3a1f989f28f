"""Whole payloads against brute force: `weak` over the weak runs of the byte-check
corpus, `coherent-gram` at every N up to its cap.

Each valid weak run of `tools/bytecheck.py`'s corpus up to composite dimension
WEAK_COMPOSITE_CAP is printed as JSON, split into fields by bytecheck's own
`printed_fields`, and every field is held against `oracles.oracle_payload`:
within the field's stated tolerance plus half a unit in the 12th significant
digit, the rounding of the printed text.  Every `coherent-gram` run, JSON and
CSV, is held against `oracles.coherent_gram_payload` the same way.
"""

import math
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from oracles import WEAK_COMPOSITE_CAP, closed_form_residual, coherent_gram_payload, dense_gram, oracle_payload
from qpl import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bytecheck  # noqa: E402

# No tolerance may be wider than this on the corpus's valid runs, or the oracle
# would stop telling a rounding change from a wrong number.  The halving ratio
# h/r is the exception: its tolerance grows as 1/r, and a vacuum
# pointer's cubic residual r falls to ~2e-12 at the corpus's smallest ε.
TOL_CAP = 1e-10


def printed_half_unit(text: str) -> float:
    """Half a unit in the last digit of a number printed with 12 significant digits."""
    value = float(text)
    return 0.0 if value == 0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def weak_corpus_runs(seed: int, workdir: Path):
    """(config name, argv) of every weak run in the seed's corpus, configs written to `workdir`."""
    cases, files = bytecheck.corpus(seed)
    for name, text in files.items():
        (workdir / name).write_text(text)
    for command, argv in cases:
        if command == "weak" and argv[2:3] and argv[2] in files:
            yield argv[2], ["weak", "--config", str(workdir / argv[2]), *argv[3:], "--format", "json"]


@pytest.mark.parametrize("seed", (7, 11))
def test_every_printed_weak_field_matches_the_dense_oracle(seed, tmp_path, monkeypatch):
    monkeypatch.delenv("QPL_SEED", raising=False)
    checked, failures, wide = 0, [], []
    for name, argv in weak_corpus_runs(seed, tmp_path):
        code, out, _ = bytecheck.run(cli.main, argv)
        if code != 0:
            continue
        conf = cli._read_config(argv[2])
        if int(conf["system_dim"]) * int(conf["pointer_dim"]) > WEAK_COMPOSITE_CAP:
            continue
        printed = dict(bytecheck.printed_fields(" ".join(argv), code, out))
        expected = oracle_payload(argv)
        if printed.keys() != expected.keys():
            failures.append(f"{name}: fields {sorted(printed.keys() ^ expected.keys())} on one side only")
            continue
        for field, text in printed.items():
            want = expected[field]
            if want.tol > TOL_CAP and not field.endswith(".ratio"):
                wide.append(f"{name} {field}: tolerance {want.tol:.3g}")
            if not abs(float(text) - want.value) <= want.tol + printed_half_unit(text):
                failures.append(f"{name} {field}: printed {text}, oracle {want.value!r} ± {want.tol:.3g}")
        checked += 1
    assert checked >= 100, f"only {checked} valid weak runs in the corpus"
    assert not failures, "\n".join(failures)
    assert not wide, "\n".join(wide)


@pytest.mark.parametrize("n", range(1, cli.MAX_GRAM_DIM + 1))
def test_every_printed_coherent_gram_field_matches_the_dense_oracle(n):
    failures = []
    for fmt in ("json", "csv"):
        argv = ["coherent-gram", "--n", str(n), "--format", fmt]
        code, out, _ = bytecheck.run(cli.main, argv)
        assert code == 0, argv
        printed = defaultdict(list)
        for field, text in bytecheck.printed_fields(" ".join(argv), code, out):
            printed[field].append(text)
        expected = coherent_gram_payload(argv)
        assert printed.keys() == expected.keys(), fmt
        for field, texts in printed.items():
            assert len(texts) == len(expected[field]), f"{fmt} {field}"
            for text, want in zip(texts, expected[field]):
                assert want.tol <= TOL_CAP, f"{fmt} {field}: tolerance {want.tol:.3g}"
                if not abs(float(text) - want.value) <= want.tol + printed_half_unit(text):
                    failures.append(f"{fmt} {field}: printed {text}, oracle {want.value!r} ± {want.tol:.3g}")
    # the whole N⁴ table meets the closed form within the bound the printed residual has
    assert closed_form_residual(n, dense_gram(n)) <= expected["max_closed_residual.value"][0].tol
    assert not failures, "\n".join(failures)
