"""Command-line interface: golden outputs, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpl import CoherentFamily, coherent_overlap_closed, dft
from qpl.cli import (
    EXIT_BOUNDS,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRAM_DIM,
    MAX_POINTER_DIM,
    MAX_SYSTEM_DIM,
    main,
)
from qpl.coherent import _closed_form_check

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv, expect=EXIT_OK):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect, f"{argv}: exit {code}, stderr: {captured.err!r}"
    return captured.out, captured.err


def weak_config(tmp_path, text):
    path = tmp_path / "weak.cfg"
    path.write_text(text)
    return str(path)


# Closed-form fields pinned by golden files: (JSON keys, CSV quantities).
PINNED_FIELDS = {
    "coherent-gram": (
        ("generic_scale", "magnitude_predicted", "one_shared_magnitude"),
        ("generic_scale", "one_shared_magnitude", "predicted_magnitude"),
    ),
    "structure-constants": (
        ("a", "b", "lambda", "prefactor"),
        ("a_m", "a_n", "b_m", "b_n", "lambda", "prefactor_im", "prefactor_re"),
    ),
}

PINNED_RUNS = (
    ["coherent-gram", "--n", "1"],
    ["coherent-gram", "--n", "2"],
    ["coherent-gram", "--n", "5"],
    ["coherent-gram", "--n", "16"],
    ["structure-constants", "--n", "3"],
    ["structure-constants", "--n", "7", "--a", "1,2", "--b", "3,1"],
    ["structure-constants", "--n", "15", "--a", "4,11", "--b", "13,2"],
)


# Whole outputs pinned byte for byte: golden file -> argv.
WHOLE_OUTPUTS = {
    "az_2_3_1_2.csv": ["az", "2", "3", "1", "2", "--format", "csv"],
    "coherent_gram_n3.csv": ["coherent-gram", "--n", "3", "--format", "csv"],
    "gauss_trace_1_9.csv": ["gauss-trace", "1", "9", "--format", "csv"],
    "nslit_n6_p3.csv": ["nslit", "--n", "6", "--potential", "0.3,1.1,2.0", "--format", "csv"],
    "wigner_n5_random.csv": ["wigner", "--n", "5", "--state", "random", "--format", "csv"],
}

# Weak runs pinned byte for byte in both formats: golden stem -> config text.
# The first relies on every default; the second sets each optional key and
# reaches the annihilator block.
WEAK_GOLDENS = {
    "weak_vacuum_p": "system_dim = 3\npre = random\npost = random\nobs = number\neps = 0.05\n",
    "weak_coherent_n": (
        "system_dim = 2\npre = u0\npost = amps:1,1\nobs = sz\neps = 0.02\n"
        "pointer = coherent:1+0.5j\npointer_dim = 48\npointer_gen = n\nhalving = false\nseed = 3\n"
    ),
}


# One run of each subcommand.  The weak config text is written to a file by
# `one_run`; its output holds the shifts, the halving block and the
# annihilator block.
ONE_RUN_PER_COMMAND = (
    ["wigner", "--n", "5", "--state", "random"],
    ["gauss-trace", "1", "9"],
    ["weak", "--config", WEAK_GOLDENS["weak_coherent_n"].replace("halving = false", "halving = true")],
    ["az", "3", "5", "1", "2"],
    ["nslit", "--n", "6", "--potential", "0.3,1.1,2.0"],
    ["structure-constants", "--n", "7", "--a", "1,2", "--b", "3,1"],
    ["coherent-gram", "--n", "3"],
)


def one_run(tmp_path, argv):
    """argv with a weak config text replaced by the path of a file holding it."""
    return [weak_config(tmp_path, arg) if "\n" in arg else arg for arg in argv]


def pinned_fields(command, out, fmt):
    """The pinned fields of one output, numbers kept as their printed text."""
    keys, quantities = PINNED_FIELDS[command]
    if fmt == "json":
        payload = json.loads(out, parse_float=str, parse_int=str)
        return {key: payload[key] for key in keys}
    return [line for line in out.split("\r\n") if line.split(",", 1)[0] in quantities]


class TestGoldenOutputs:
    def test_wigner_grid_json(self, capsys):
        out, _ = run_cli(capsys, ["wigner", "--n", "2", "--state", "u0"])
        assert out == (GOLDEN / "wigner_n2_u0.json").read_text()
        payload = json.loads(out)
        assert payload["values"] == [[0.5, 0], [0.5, 0]]
        assert payload["marginal_momentum"] == [0.5, 0.5]
        assert payload["marginal_position"] == [1, 0]
        assert payload["total"] == 1
        assert payload["negativity"] == 0

    def test_wigner_grid_csv(self, capsys):
        out, _ = run_cli(
            capsys, ["wigner", "--n", "2", "--state", "u0", "--format", "csv"]
        )
        assert out == (GOLDEN / "wigner_n2_u0.csv").read_bytes().decode()
        lines = out.split("\r\n")
        assert lines[0] == "quantity,m,n,value"
        assert lines[1] == "value,0,0,0.5"

    def test_gauss_trace_json(self, capsys):
        out, _ = run_cli(capsys, ["gauss-trace", "1", "9"])
        assert out == (GOLDEN / "gauss_trace_1_9.json").read_text()
        payload = json.loads(out)
        entries = {e["n"]: e for e in payload["entries"]}
        assert sorted(entries) == list(range(1, 10))
        for n, entry in entries.items():
            assert entry["match"] == (n % 2 == 1)
        # closed form cycles through 1, 1+i, i, 0 with period 4
        assert entries[5]["closed_form"] == {"im": 0, "re": 1}
        assert entries[3]["closed_form"] == {"im": 1, "re": 0}
        assert entries[4]["closed_form"] == {"im": 0, "re": 0}

    def test_az_json(self, capsys):
        out, _ = run_cli(capsys, ["az", "2", "3", "1", "2"])
        assert out == (GOLDEN / "az_2_3_1_2.json").read_text()
        payload = json.loads(out)
        assert payload["shift_phase"] == pytest.approx(np.pi, abs=1e-10)
        assert payload["clock_phase"] == pytest.approx(4 * np.pi / 3, abs=1e-10)
        amp = 1 / np.sqrt(2)
        vec = payload["vector"]
        assert vec[2]["re"] == pytest.approx(amp, abs=1e-10)
        assert vec[5]["re"] == pytest.approx(-amp, abs=1e-10)
        for k in (0, 1, 3, 4):
            assert abs(vec[k]["re"]) < 1e-12 and abs(vec[k]["im"]) < 1e-12

    def test_even_trace_record_matches_live_values(self):
        recorded = json.loads((GOLDEN / "gauss_trace_even.json").read_text())
        assert sorted(int(k) for k in recorded) == list(range(2, 33, 2))
        for key, value in recorded.items():
            live = complex(np.trace(dft(int(key))))
            assert abs(live - complex(value["re"], value["im"])) < 1e-10

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    @pytest.mark.parametrize("argv", PINNED_RUNS, ids=" ".join)
    def test_closed_form_fields_match_golden(self, capsys, argv, fmt):
        """Closed-form fields keep their exact printed tokens and rows."""
        name = argv[0].replace("-", "_") + "_closed_forms.json"
        golden = json.loads((GOLDEN / name).read_text(), parse_float=str, parse_int=str)
        out, _ = run_cli(capsys, argv + ["--format", fmt])
        assert pinned_fields(argv[0], out, fmt) == golden[" ".join(argv)][fmt]

    @pytest.mark.parametrize("name", sorted(WHOLE_OUTPUTS))
    def test_whole_output_matches_golden(self, capsys, monkeypatch, name):
        monkeypatch.delenv("QPL_SEED", raising=False)
        out, _ = run_cli(capsys, WHOLE_OUTPUTS[name])
        assert out == (GOLDEN / name).read_bytes().decode()

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    @pytest.mark.parametrize("name", sorted(WEAK_GOLDENS))
    def test_weak_output_matches_golden(self, capsys, monkeypatch, tmp_path, name, fmt):
        monkeypatch.delenv("QPL_SEED", raising=False)
        cfg = weak_config(tmp_path, WEAK_GOLDENS[name])
        out, _ = run_cli(capsys, ["weak", "--config", cfg, "--format", fmt])
        assert out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode()

    def test_weak_goldens_hold_cold_and_warm(
        self, capsys, monkeypatch, tmp_path, clear_fock_caches
    ):
        """Each weak golden rendered with empty fock caches, then again after
        weak runs at other pointer dimensions; the csv render of each config
        reads the arrays its json render cached."""
        monkeypatch.delenv("QPL_SEED", raising=False)
        goldens = [(name, fmt) for name in sorted(WEAK_GOLDENS) for fmt in ("json", "csv")]

        def render(name, fmt):
            cfg = weak_config(tmp_path, WEAK_GOLDENS[name])
            out, _ = run_cli(capsys, ["weak", "--config", cfg, "--format", fmt])
            return out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode()

        for name, fmt in goldens:
            clear_fock_caches()
            assert render(name, fmt), f"{name}.{fmt} cold"
        for dim in (2, 40, 256):
            for gen_key in ("p", "g"):  # the q and the k spectrum
                cfg = weak_config(
                    tmp_path,
                    "system_dim = 2\npre = u0\npost = amps:1,1\nobs = sz\neps = 0.02\n"
                    f"pointer_dim = {dim}\npointer_gen = {gen_key}\n",
                )
                run_cli(capsys, ["weak", "--config", cfg])
        for name, fmt in goldens:
            assert render(name, fmt), f"{name}.{fmt} warm"


DETERMINISTIC_COMMANDS = (
    ["wigner", "--n", "3", "--state", "random", "--seed", "5"],
    ["wigner", "--n", "4", "--state", "mixed", "--format", "csv"],
    ["gauss-trace", "1", "12"],
    ["az", "3", "5", "1", "2"],
    ["az", "3", "5", "1", "2", "--format", "csv"],
    ["nslit", "--n", "6", "--potential", "random", "--period", "3", "--seed", "7"],
    ["nslit", "--n", "15", "--potential", "0.3,1.1,2.0", "--format", "csv"],
    ["structure-constants", "--n", "5", "--a", "1,2", "--b", "2,1"],
    ["coherent-gram", "--n", "3"],
)


class TestDeterminism:
    @pytest.mark.parametrize("argv", DETERMINISTIC_COMMANDS, ids=lambda a: " ".join(a))
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        first, _ = run_cli(capsys, argv)
        second, _ = run_cli(capsys, argv)
        assert first == second
        assert first  # something was emitted

    def test_weak_runs_are_byte_identical(self, capsys, tmp_path):
        cfg = weak_config(
            tmp_path,
            "system_dim = 3\npre = random\npost = random\nobs = number\n"
            "eps = 1e-3\nseed = 9\n",
        )
        first, _ = run_cli(capsys, ["weak", "--config", cfg])
        second, _ = run_cli(capsys, ["weak", "--config", cfg])
        assert first == second

    def test_weak_run_at_the_dimension_caps(self, capsys, tmp_path):
        cfg = weak_config(
            tmp_path,
            f"system_dim = {MAX_SYSTEM_DIM}\npre = random\npost = random\n"
            f"obs = number\neps = 1e-3\npointer = coherent:2+1j\n"
            f"pointer_dim = {MAX_POINTER_DIM}\npointer_gen = n\nhalving = true\nseed = 3\n",
        )
        first, _ = run_cli(capsys, ["weak", "--config", cfg])
        second, _ = run_cli(capsys, ["weak", "--config", cfg])
        assert first == second
        payload = json.loads(first)
        assert payload["halving"] is not None and payload["annihilator"] is not None

        def numbers(node):
            if isinstance(node, dict):
                return [x for value in node.values() for x in numbers(value)]
            return [node] if isinstance(node, (int, float)) else []

        values = numbers(payload)
        assert len(values) > 20 and np.all(np.isfinite(values))

    def test_out_file_carries_stdout_bytes(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        out_direct, _ = run_cli(capsys, ["gauss-trace", "1", "5"])
        out_filed, _ = run_cli(
            capsys, ["gauss-trace", "1", "5", "--out", str(target)]
        )
        assert out_filed == ""  # redirected away from stdout
        assert target.read_text() == out_direct

    def test_random_selector_depends_on_seed(self, capsys):
        one, _ = run_cli(capsys, ["wigner", "--n", "4", "--state", "random", "--seed", "1"])
        two, _ = run_cli(capsys, ["wigner", "--n", "4", "--state", "random", "--seed", "2"])
        assert one != two


class TestSeedPrecedence:
    def test_env_overrides_flag(self, capsys, monkeypatch):
        argv = ["wigner", "--n", "4", "--state", "random", "--seed", "1"]
        monkeypatch.setenv("QPL_SEED", "2")
        with_env, _ = run_cli(capsys, argv)
        assert json.loads(with_env)["seed"] == 2
        monkeypatch.delenv("QPL_SEED")
        flag_two, _ = run_cli(capsys, ["wigner", "--n", "4", "--state", "random", "--seed", "2"])
        assert with_env == flag_two

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = weak_config(
            tmp_path,
            "system_dim = 2\npre = random\npost = random\nobs = sz\n"
            "eps = 1e-3\nseed = 3\nhalving = false\n",
        )
        from_config, _ = run_cli(capsys, ["weak", "--config", cfg])
        assert json.loads(from_config)["seed"] == 3
        from_flag, _ = run_cli(capsys, ["weak", "--config", cfg, "--seed", "4"])
        assert json.loads(from_flag)["seed"] == 4
        assert from_config != from_flag

    def test_invalid_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QPL_SEED", "not-a-seed")
        out, err = run_cli(
            capsys, ["wigner", "--n", "4", "--state", "random"], expect=EXIT_USAGE
        )
        assert "QPL_SEED" in err

    @pytest.mark.parametrize(
        "flag,env,config_line,source",
        (
            (["--seed", "-1"], None, "", "--seed"),
            ([], "-2", "", "QPL_SEED"),
            ([], None, "seed = -3\n", "seed"),
        ),
        ids=("flag", "env", "config"),
    )
    def test_negative_seed_is_usage_error(
        self, capsys, monkeypatch, tmp_path, flag, env, config_line, source
    ):
        monkeypatch.delenv("QPL_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("QPL_SEED", env)
        text = "system_dim = 2\npre = random\npost = random\nobs = sz\neps = 1e-3\n"
        argv = ["weak", "--config", weak_config(tmp_path, text + config_line), *flag]
        _, err = run_cli(capsys, argv, expect=EXIT_USAGE)
        assert err.startswith(f"qpl: {source} must be nonnegative")


    @pytest.mark.parametrize("source", ("flag", "env"))
    @pytest.mark.parametrize("argv", ONE_RUN_PER_COMMAND, ids=lambda a: a[0])
    def test_every_command_rejects_a_negative_seed(self, capsys, monkeypatch, tmp_path, argv, source):
        monkeypatch.delenv("QPL_SEED", raising=False)
        argv = one_run(tmp_path, argv)
        run_cli(capsys, argv)
        if source == "env":
            monkeypatch.setenv("QPL_SEED", "-1")
        _, err = run_cli(capsys, argv + ["--seed", "-1"] * (source == "flag"), expect=EXIT_USAGE)
        assert err == f"qpl: {'--seed' if source == 'flag' else 'QPL_SEED'} must be nonnegative, got -1\n"


def pointer_config(tmp_path, pointer, dim, gen_key):
    """A weak run with a 3-level observable, so calls of another size are pointer-side."""
    return weak_config(
        tmp_path,
        "system_dim = 3\npre = random\npost = random\nobs = number\neps = 0.05\n"
        f"pointer = {pointer}\npointer_dim = {dim}\npointer_gen = {gen_key}\n",
    )


class TestWeakCommand:
    @pytest.mark.parametrize("pointer", ("vacuum", "coherent:1.5-0.5j"))
    @pytest.mark.parametrize("gen_key", ("q", "p", "n", "h0", "g", "k"))
    def test_pointer_spectra_need_no_complex_eigh(
        self, capsys, tmp_path, clear_fock_caches, eigh_sizes, pointer, gen_key
    ):
        """No complex eigendecomposition of pointer size, and none at all for a
        vacuum pointer under the diagonal generators n and h0."""
        dim = 40
        run_cli(capsys, ["weak", "--config", pointer_config(tmp_path, pointer, dim, gen_key)])
        pointer_side = [call for call in eigh_sizes if call[0] != 3]  # 3: the observable
        # only real ones: the q spectrum (size 40) and the two k blocks (size 20)
        assert set(pointer_side) <= {(dim, False), (dim // 2, False)}
        if pointer == "vacuum" and gen_key in ("n", "h0"):
            assert pointer_side == []

    @pytest.mark.parametrize("pointer", ("vacuum", "coherent:1.5-0.5j"))
    @pytest.mark.parametrize("gen_key", ("q", "p", "n", "h0", "g", "k"))
    def test_a_repeated_pointer_dimension_needs_no_pointer_eigh(
        self, capsys, tmp_path, clear_fock_caches, eigh_sizes, pointer, gen_key
    ):
        """The second run at one pointer dimension diagonalizes only the observable."""
        cfg = pointer_config(tmp_path, pointer, 36, gen_key)
        run_cli(capsys, ["weak", "--config", cfg])
        eigh_sizes.clear()
        run_cli(capsys, ["weak", "--config", cfg])
        assert eigh_sizes and all(size == 3 for size, _ in eigh_sizes)

    def test_a_request_checks_each_input_once(self, capsys, tmp_path, validator_calls):
        """obs, generator, q and p are checked as hermitian, pre, post and pointer as
        unit kets and the lowering operator once; the shifts reuse the checked arrays."""
        cfg = weak_config(
            tmp_path,
            "system_dim = 4\npre = random\npost = random\nobs = number\neps = 1e-3\n"
            "pointer = coherent:0.5+0.5j\npointer_dim = 64\npointer_gen = n\nhalving = true\n",
        )
        run_cli(capsys, ["weak", "--config", cfg])
        calls = Counter(call.name for call in validator_calls if call.caller != "as_hermitian")
        assert calls["as_hermitian"] == 4
        assert calls["as_unit_ket"] == 3
        assert calls["as_operator"] == 1
        assert calls["as_ket"] == 3
        assert calls["expectation"] == 0
        lowering = [call for call in validator_calls if call.name == "as_operator"]
        assert [call.module for call in lowering if call.caller is None] == ["qpl.weak"]

    def test_payload_reports_weak_value_and_shifts(self, capsys, tmp_path):
        cfg = weak_config(
            tmp_path,
            "system_dim = 2\npre = amps:1,1\npost = amps:1,0.2\nobs = sz\n"
            "eps = 1e-3\npointer = coherent:0.8+0.6j\npointer_gen = n\n",
        )
        out, _ = run_cli(capsys, ["weak", "--config", cfg])
        payload = json.loads(out)
        assert payload["weak_value"]["re"] == pytest.approx(2 / 3, abs=1e-10)
        assert abs(payload["weak_value"]["im"]) < 1e-10
        assert payload["amplified"] is False
        assert payload["probability"] <= 1.0
        for name in ("q", "p"):
            block = payload["shifts"][name]
            assert abs(block["measured"] - block["predicted"]) == pytest.approx(
                block["residual"], abs=1e-15
            )
            ratio = payload["halving"][name]["ratio"]
            assert 0.15 < ratio < 0.35
        annihilator = payload["annihilator"]
        assert annihilator["residual"] < 1e-5

    def test_eigenstate_run_has_degenerate_halving_ratio(self, capsys, tmp_path):
        # Pre = post = observable eigenstate: prediction is exact,
        # residuals sit at numerical zero and no ratio is reported.
        cfg = weak_config(
            tmp_path,
            "system_dim = 2\npre = u0\npost = u0\nobs = sz\neps = 1e-3\n",
        )
        out, _ = run_cli(capsys, ["weak", "--config", cfg])
        payload = json.loads(out)
        assert payload["shifts"]["q"]["residual"] < 1e-12
        assert payload["halving"]["q"]["ratio"] is None

    def test_near_orthogonal_selections_set_amplified(self, capsys, tmp_path):
        cfg = weak_config(
            tmp_path,
            "system_dim = 2\npre = amps:1,1\npost = amps:1,-0.9\nobs = sz\n"
            "eps = 1e-3\nhalving = false\n",
        )
        out, _ = run_cli(capsys, ["weak", "--config", cfg])
        payload = json.loads(out)
        assert payload["amplified"] is True
        assert abs(payload["weak_value"]["re"]) > payload["spectral_radius"]

    def test_csv_rows_cover_quantities(self, capsys, tmp_path):
        cfg = weak_config(
            tmp_path,
            "system_dim = 2\npre = amps:1,1\npost = amps:1,0.2\nobs = sz\neps = 1e-3\n",
        )
        out, _ = run_cli(capsys, ["weak", "--config", cfg, "--format", "csv"])
        lines = out.split("\r\n")
        assert lines[0] == "quantity,re,im"
        quantities = {line.split(",")[0] for line in lines[1:] if line}
        assert {"weak_value", "probability", "q_measured", "p_halving_ratio"} <= quantities

    def test_orthogonal_selections_exit_degenerate(self, capsys, tmp_path):
        cfg = weak_config(
            tmp_path,
            "system_dim = 2\npre = u0\npost = u1\nobs = sz\neps = 1e-3\n",
        )
        _, err = run_cli(capsys, ["weak", "--config", cfg], expect=EXIT_DEGENERATE)
        assert "orthogonal" in err

    @pytest.mark.parametrize(
        "text,fragment",
        (
            ("system_dim = 2\npre = u0\npost = u0\nobs = sz\n", "missing required"),
            (
                "system_dim = 2\npre = u0\npost = u0\nobs = sz\neps = 1e-3\nwhat = 1\n",
                "unknown key",
            ),
            (
                "system_dim = 2\npre = u0\npre = u1\npost = u0\nobs = sz\neps = 1e-3\n",
                "duplicate key",
            ),
            (
                "system_dim = 2\npre = u0\npost = u0\nobs = sz\neps = 1e-3\njunk\n",
                "key = value",
            ),
            (
                "system_dim = 2\npre = u0\npost = u0\nobs = sx\neps = -1\n",
                "eps",
            ),
            (
                "system_dim = 3\npre = u0\npost = u0\nobs = sz\neps = 1e-3\n",
                "system_dim = 2",
            ),
        ),
    )
    def test_config_usage_errors(self, capsys, tmp_path, text, fragment):
        cfg = weak_config(tmp_path, text)
        _, err = run_cli(capsys, ["weak", "--config", cfg], expect=EXIT_USAGE)
        assert fragment in err

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        _, err = run_cli(
            capsys,
            ["weak", "--config", str(tmp_path / "absent.cfg")],
            expect=EXIT_USAGE,
        )
        assert "cannot read config" in err

    def test_pointer_truncation_guard_exits_bounds(self, capsys, tmp_path):
        cfg = weak_config(
            tmp_path,
            "system_dim = 2\npre = u0\npost = u0\nobs = sz\neps = 1e-3\n"
            "pointer = coherent:6\n",
        )
        run_cli(capsys, ["weak", "--config", cfg], expect=EXIT_BOUNDS)

    def test_comments_and_blank_lines_are_ignored(self, capsys, tmp_path):
        cfg = weak_config(
            tmp_path,
            "# weak run\nsystem_dim = 2\n\npre = u0  # ground\npost = u0\n"
            "obs = sz\neps = 1e-3\n",
        )
        out, _ = run_cli(capsys, ["weak", "--config", cfg])
        assert json.loads(out)["pre"] == "u0"

    @pytest.mark.parametrize(
        "lines,quantity",
        (
            ("eps = 1e308\nobs = sz\npost = amps:1,1\n", "probability"),
            ("eps = 1e302\nobs = sx\npost = amps:0.0000001,1\n", "q predicted shift"),
        ),
        ids=("pointer", "prediction"),
    )
    def test_overflowing_run_exits_bounds(self, capsys, tmp_path, lines, quantity):
        cfg = weak_config(tmp_path, "system_dim = 2\npointer_dim = 8\npre = u0\n" + lines)
        _, err = run_cli(capsys, ["weak", "--config", cfg], expect=EXIT_BOUNDS)
        assert err.startswith("qpl: weak run overflows") and quantity in err


SEEDS = st.none() | st.integers(-(2**63), 2**63)
KETS = st.sampled_from(("u0", "u1", "v1", "random", "amps:1,1", "amps:0.0000001,1"))


@given(
    flag=SEEDS,
    env=SEEDS,
    config_seed=SEEDS,
    eps=st.floats().map(str),
    obs=st.sampled_from(("sx", "sy", "sz", "number")),
    pre=KETS,
    post=KETS,
)
@example(flag=None, env=None, config_seed=None, eps="1e308", obs="sz", pre="u0", post="amps:1,1")
@example(flag=None, env=None, config_seed=None, eps="inf", obs="sz", pre="u0", post="u0")
@example(flag=None, env=None, config_seed=None, eps="-0.0", obs="sx", pre="u0", post="u0")
def test_weak_cli_never_raises(flag, env, config_seed, eps, obs, pre, post):
    """Any seed from any source and any eps text end in a documented exit code."""
    text = f"system_dim = 2\npointer_dim = 8\npre = {pre}\npost = {post}\n"
    text += f"obs = {obs}\neps = {eps}\n"
    if config_seed is not None:
        text += f"seed = {config_seed}\n"
    with tempfile.TemporaryDirectory() as work, mock.patch.dict(os.environ):
        os.environ.pop("QPL_SEED", None)
        if env is not None:
            os.environ["QPL_SEED"] = str(env)
        path = Path(work) / "weak.cfg"
        path.write_text(text)
        argv = ["weak", "--config", str(path)] + ([] if flag is None else ["--seed", str(flag)])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BOUNDS, EXIT_DEGENERATE)


# CSV quantity -> JSON key, where they differ; index cells name list entries.
CSV_KEYS = {
    "value": "values",
    "amplitude": "vector",
    "tensor_amplitude": "tensor",
    "cell_shift_phase": "cell_grid.shift_phases",
    "cell_clock_phase": "cell_grid.clock_phases",
    "predicted_magnitude": "magnitude_predicted",
    "direct_magnitude": "magnitude_direct",
    "a_m": "a.0", "a_n": "a.1", "b_m": "b.0", "b_n": "b.1",
    "prefactor_re": "prefactor.re", "prefactor_im": "prefactor.im",
    **{f"{x}_{k}": f"shifts.{x}.{k}" for x in "qp" for k in ("measured", "predicted", "residual")},
    **{f"{x}_half_residual": f"halving.{x}.half_residual" for x in "qp"},
    **{f"{x}_halving_ratio": f"halving.{x}.ratio" for x in "qp"},
    **{f"a_{k}": f"annihilator.{k}" for k in ("measured", "predicted", "residual")},
}
GAUSS_COLUMNS = ("n", "trace.re", "trace.im", "closed_form.re", "closed_form.im", "match")


def flat_json(node, path=""):
    """{dotted path: printed text} for every number, flag and null in a payload."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: {True: "true", False: "false", None: "null"}.get(node, node)}
    return {k: v for key, child in items for k, v in flat_json(child, f"{path}.{key}").items()}


@pytest.mark.parametrize("argv", ONE_RUN_PER_COMMAND, ids=lambda a: a[0])
def test_every_csv_number_is_the_same_json_number(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.delenv("QPL_SEED", raising=False)
    argv = one_run(tmp_path, argv)
    out, _ = run_cli(capsys, argv)
    numbers = flat_json(json.loads(out, parse_float=str, parse_int=str))
    out, _ = run_cli(capsys, argv + ["--format", "csv"])
    header, *rows = [line.split(",") for line in out.split("\r\n")[:-1]]
    pairs = []  # (JSON path, CSV cell)
    for i, row in enumerate(rows):
        if argv[0] == "gauss-trace":  # a table: its cells print as the JSON does
            assert row == [numbers[f".entries.{i}.{key}"] for key in GAUSS_COLUMNS]
            continue
        values = row[-2:] if header[-2:] == ["re", "im"] else row[-1:]
        path = "." + ".".join([CSV_KEYS.get(row[0], row[0]), *filter(None, row[1 : -len(values)])])
        if path + ".re" in numbers:
            pairs += [(path + ".re", values[0]), (path + ".im", values[1])]
        else:
            pairs.append((path, values[0]))
            assert values[1:] in ([], ["0"]), row
    for path, cell in pairs:
        printed = numbers[path]  # every CSV number has its JSON twin; flags print as 1 or 0
        assert cell == {"true": "1", "false": "0", "null": ""}.get(printed, printed), path
    if argv[0] == "weak":
        assert {".annihilator.measured.re", ".halving.q.ratio"} <= {path for path, _ in pairs}


class TestSubcommandPayloads:
    def test_uniform_mixture_has_flat_map(self, capsys):
        out, _ = run_cli(capsys, ["wigner", "--n", "3", "--state", "mixed"])
        payload = json.loads(out)
        values = np.array(payload["values"])
        assert np.allclose(values, 1 / 9, atol=1e-12)
        assert payload["negativity"] == pytest.approx(0.0, abs=1e-12)

    def test_superposition_shows_negativity(self, capsys):
        out, _ = run_cli(
            capsys, ["wigner", "--n", "3", "--state", "amps:1,1,0"]
        )
        payload = json.loads(out)
        assert payload["min_value"] == pytest.approx(-1 / 6, abs=1e-10)
        assert payload["negativity"] == pytest.approx(2 / 3, abs=1e-10)

    def test_nslit_reports_support_comb(self, capsys):
        out, _ = run_cli(
            capsys,
            ["nslit", "--n", "15", "--potential", "random", "--period", "5", "--seed", "3"],
        )
        payload = json.loads(out)
        assert payload["support_stride"] == 3
        assert payload["support_ok"] is True
        assert all(k % 3 == 0 for k in payload["support"])

    def test_nslit_request_runs_no_validator(self, capsys, validator_calls):
        """The register ket is built by qpl, so nothing re-checks it."""
        run_cli(capsys, ["nslit", "--n", "12", "--potential", "0.3,1.1,2.0"])
        assert validator_calls == []

    def test_structure_constants_reconstruction_residual(self, capsys):
        out, _ = run_cli(
            capsys, ["structure-constants", "--n", "7", "--a", "1,2", "--b", "3,1"]
        )
        payload = json.loads(out)
        assert payload["max_residual"] < 1e-9
        assert payload["prefactor"]["im"] == pytest.approx(2 / 7, abs=1e-12)
        lam = np.array(payload["lambda"])
        assert lam.shape == (7, 7)

    def test_structure_constants_run_at_the_register_cap(self, capsys):
        out, _ = run_cli(capsys, ["structure-constants", "--n", "63", "--a", "40,11", "--b", "2,62"])
        payload = json.loads(out)
        assert payload["max_residual"] < 1e-9
        assert np.array(payload["lambda"]).shape == (63, 63)

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    @pytest.mark.parametrize(
        "label,reduced",
        (
            ("100000000000000001,0", "11,0"),
            ("10000000000000000000001,0", "11,0"),
            ("16,0", "1,0"),
            ("-1,-14", "14,1"),
        ),
    )
    def test_structure_constant_labels_are_taken_mod_n(self, capsys, label, reduced, fmt):
        def run(a):
            argv = ["structure-constants", "--n", "15", f"--a={a}", "--b", "2,3"]
            return run_cli(capsys, argv + ["--format", fmt])[0]

        assert run(label) == run(reduced)

    def test_coherent_gram_matches_closed_form(self, capsys):
        out, _ = run_cli(capsys, ["coherent-gram", "--n", "4"])
        payload = json.loads(out)
        assert payload["identity_residual"] < 1e-9
        assert payload["max_closed_residual"] < 1e-10
        predicted = np.array(payload["magnitude_predicted"])
        direct = np.array(payload["magnitude_direct"])
        assert np.allclose(predicted, direct, atol=1e-10)

    @pytest.mark.parametrize("n", range(1, MAX_GRAM_DIM + 1))
    def test_row_blocked_closed_form_check_is_the_one_shot_check(self, n):
        gram = CoherentFamily(n).gram()
        m, nn = np.divmod(np.arange(n * n), n)
        closed = coherent_overlap_closed(n, m[:, None], nn[:, None], m[None, :], nn[None, :])
        row, residual = _closed_form_check(n, gram)
        assert np.array_equal(row, closed[0])
        assert np.array_equal(residual, np.max(np.abs(gram - closed)))

    def test_closed_form_check_keeps_a_nan_residual(self):
        gram = CoherentFamily(MAX_GRAM_DIM).gram()
        gram[100, 7] = np.nan
        assert np.isnan(_closed_form_check(MAX_GRAM_DIM, gram)[1])

    # the first and last flat entry of every block of one p, the Gram's first and last among them
    @pytest.mark.parametrize("block", range(MAX_GRAM_DIM))
    @pytest.mark.parametrize("end", (0, MAX_GRAM_DIM**3 - 1))
    def test_closed_form_check_compares_every_block_edge(self, block, end):
        gram = CoherentFamily(MAX_GRAM_DIM).gram()
        entry = block * MAX_GRAM_DIM**3 + end
        gram.flat[entry] += 1e-6
        assert _closed_form_check(MAX_GRAM_DIM, gram)[1] >= 0.99e-6

    def test_coherent_gram_at_the_cap_holds_no_full_closed_form_table(self, capsys):
        tracemalloc.start()
        try:
            run_cli(capsys, ["coherent-gram", "--n", str(MAX_GRAM_DIM)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the Gram matrix itself is 1 MiB; one more N⁴ complex table would be another
        assert peak < 2 * 2**20


EXIT_CODE_CASES = (
    (["wigner", "--n", "0", "--state", "u0"], EXIT_BOUNDS),
    (["wigner", "--n", "65", "--state", "u0"], EXIT_BOUNDS),
    (["wigner", "--n", "4", "--state", "u9"], EXIT_USAGE),
    (["wigner", "--n", "4", "--state", "bogus"], EXIT_USAGE),
    (["wigner", "--n", "4", "--state", "amps:1,2"], EXIT_USAGE),
    (["gauss-trace", "9", "1"], EXIT_USAGE),
    (["gauss-trace", "0", "5"], EXIT_USAGE),
    (["gauss-trace", "1", "65"], EXIT_BOUNDS),
    (["az", "2", "4", "0", "0"], EXIT_USAGE),
    (["az", "0", "3", "0", "0"], EXIT_USAGE),
    (["az", "7", "11", "0", "0"], EXIT_BOUNDS),
    (["nslit", "--n", "6", "--potential", "0,1,2,3"], EXIT_USAGE),
    (["nslit", "--n", "6", "--potential", "random"], EXIT_USAGE),
    (["nslit", "--n", "6", "--potential", "0,1", "--period", "3"], EXIT_USAGE),
    (["nslit", "--n", "6", "--potential", "0,oops"], EXIT_USAGE),
    # checked before drawing: 2**40 samples would need 8 TiB
    (["nslit", "--n", "6", "--potential", "random", "--period", str(2**40)], EXIT_USAGE),
    (["nslit", "--n", "0", "--potential", "0"], EXIT_BOUNDS),
    (["structure-constants", "--n", "4"], EXIT_BOUNDS),
    (["structure-constants", "--n", "64"], EXIT_BOUNDS),
    (["structure-constants", "--n", "65"], EXIT_BOUNDS),
    (["structure-constants", "--n", "5", "--a", "x"], EXIT_USAGE),
    (["coherent-gram", "--n", "0"], EXIT_BOUNDS),
    (["coherent-gram", "--n", "17"], EXIT_BOUNDS),
    (["weak", "--config", "system_dim = 1"], EXIT_BOUNDS),
    (["weak", "--config", f"system_dim = {MAX_SYSTEM_DIM + 1}"], EXIT_BOUNDS),
    (["weak", "--config", "pointer_dim = 1"], EXIT_BOUNDS),
    (["weak", "--config", f"pointer_dim = {MAX_POINTER_DIM + 1}"], EXIT_BOUNDS),
)

# A weak config that runs cleanly; EXIT_CODE_CASES give one `key = value`
# line after --config that replaces its entry.
WEAK_BASE = {"system_dim": "2", "pre": "u0", "post": "u0", "obs": "number", "eps": "1e-3"}


def with_config_file(tmp_path, argv):
    """argv with the `key = value` after --config swapped for a WEAK_BASE file."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config") + 1
    key, _, value = argv[i].partition(" = ")
    entries = {**WEAK_BASE, key: value}
    text = "".join(f"{k} = {v}\n" for k, v in entries.items())
    return argv[:i] + [weak_config(tmp_path, text)] + argv[i + 1 :]


class TestExitCodes:
    @pytest.mark.parametrize("argv,code", EXIT_CODE_CASES, ids=lambda v: str(v))
    def test_error_paths(self, capsys, tmp_path, argv, code):
        _, err = run_cli(capsys, with_config_file(tmp_path, argv), expect=code)
        assert err.startswith("qpl:")

    def test_main_is_reentrant(self, capsys, monkeypatch):
        """Usage errors, --help and flags leave nothing behind for the next call."""
        monkeypatch.delenv("QPL_SEED", raising=False)
        argv = ["wigner", "--n", "3", "--state", "random", "--format", "csv"]
        fresh = subprocess.run([sys.executable, "-m", "qpl.cli", *argv], capture_output=True)
        assert fresh.returncode == EXIT_OK
        interruptions = (
            (["wigner", "--n", "x", "--state", "u0"], EXIT_USAGE),
            (["wigner", "--frobnicate"], EXIT_USAGE),
            (["wigner", "--help"], EXIT_OK),
            (["--help"], EXIT_OK),
            (argv + ["--seed", "7", "--format", "json"], EXIT_OK),
        )
        for other, code in interruptions:
            first = run_cli(capsys, other, expect=code)
            assert run_cli(capsys, other, expect=code) == first
            assert run_cli(capsys, argv) == (fresh.stdout.decode(), "")

    def test_missing_subcommand_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_flag_is_usage(self, capsys):
        assert main(["gauss-trace", "1", "5", "--frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "wigner" in out


def test_installed_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-c", "import qpl.cli, sys; sys.exit(qpl.cli.main(['gauss-trace', '1', '3']))"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith('{"entries"')
