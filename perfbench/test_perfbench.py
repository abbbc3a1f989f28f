"""Tests of the benchmark itself: input determinism, response checks, tracing.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import run
import workloads
from checks import check
from tracer import LAYER_METRICS, Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def qpl_modules():
    return run.load_qpl()


def _snapshot(requests, workdir):
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [r.argv for r in requests], files


def _respond(cli, req) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(req.argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv_and_config_bytes(workload, tmp_path):
    workdir = tmp_path / "inputs"
    first = _snapshot(workloads.generate(workload, 7, workdir), workdir)
    second = _snapshot(workloads.generate(workload, 7, workdir), workdir)
    assert first == second
    other_dir = tmp_path / "other"
    other = _snapshot(workloads.generate(workload, 8, other_dir), other_dir)
    assert other[1] != first[1] or [a[1:] for a in other[0]] != [a[1:] for a in first[0]]


def test_qpl_receives_only_explicit_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        workdir = tmp_path / workload
        argv, files = _snapshot(workloads.generate(workload, 3, workdir), workdir)
        text = " ".join(" ".join(a) for a in argv) + b"".join(files.values()).decode()
        assert "random" not in text


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_request_passes_its_check(workload, qpl_modules, tmp_path):
    cli = qpl_modules[0]
    for seed in (0, 5):
        for req in workloads.generate(workload, seed, tmp_path / str(seed)):
            _, reason, _ = run.execute(cli, req)
            assert reason is None, (req.slot, req.argv, reason)


def _corruptions():
    """(kind, fmt, function turning a good response into a bad one)."""

    def edit_json(change):
        def corrupt(text):
            payload = json.loads(text)
            change(payload)
            return json.dumps(payload)

        return corrupt

    def bump_weak_value(p):
        p["weak_value"]["re"] += 1e-6

    def break_probability(p):
        p["probability"] = 1.5

    def drop_marginal(p):
        p["marginal_position"][0] += 1e-6

    def bad_residual(key):
        def change(p):
            p[key] = 1e-6

        return change

    def mismatch(p):
        next(e for e in p["entries"] if e["n"] % 2 == 1)["match"] = False

    def no_support(p):
        p["support_ok"] = False

    def stretch(p):
        p["vector"][0]["re"] += 0.01

    def drop_last_row(text):
        return text[: text.rstrip("\r\n").rfind("\r\n") + 2]

    return [
        ("weak", "json", edit_json(bump_weak_value)),
        ("weak", "json", edit_json(break_probability)),
        ("weak", "csv", drop_last_row),
        ("wigner", "json", edit_json(drop_marginal)),
        ("wigner", "csv", drop_last_row),
        ("structure-constants", "json", edit_json(bad_residual("max_residual"))),
        ("coherent-gram", "json", edit_json(bad_residual("max_closed_residual"))),
        ("coherent-gram", "json", edit_json(bad_residual("identity_residual"))),
        ("coherent-gram", "csv", drop_last_row),
        ("gauss-trace", "json", edit_json(mismatch)),
        ("nslit", "json", edit_json(no_support)),
        ("az", "json", edit_json(stretch)),
        ("az", "json", lambda text: text[: len(text) // 2]),
    ]


def test_corrupted_response_counts_as_failed(qpl_modules, tmp_path):
    cli = qpl_modules[0]
    requests = workloads.generate("weak-small", 1, tmp_path / "w")
    requests += workloads.generate("phase-space", 1, tmp_path / "p")
    for kind, fmt, corrupt in _corruptions():
        req = next(r for r in requests if r.kind == kind and r.fmt == fmt)
        text = _respond(cli, req)
        assert check(req, text) is None
        assert check(req, corrupt(text)) is not None, (kind, fmt)


def test_nonzero_exit_counts_as_failed(qpl_modules, tmp_path):
    cli = qpl_modules[0]
    req = workloads.generate("weak-small", 1, tmp_path)[0]
    (tmp_path / "req00.cfg").unlink()
    _, reason, _ = run.execute(cli, req)
    assert reason is not None and reason.startswith("exit 2")
    loop = run.closed_loop(cli, [req], 0, 1)
    assert (loop.attempted, loop.failed) == (1, 1)


def _traced_cycles(qpl_modules, workload, workdir, cycles=2):
    requests = workloads.generate(workload, 4, workdir)
    tracer = Tracer()
    tracer.install(*qpl_modules)
    try:
        loop = run.closed_loop(qpl_modules[0], requests, 0, cycles * len(requests), tracer)
    finally:
        tracer.uninstall()
    assert loop.failed == 0, loop.reasons
    return requests, tracer, tracer.layer_metrics()


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END_UNITS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {**LAYER_METRICS, "trace.overhead_pct": "%"}


def test_uninstall_restores_every_entry_point(qpl_modules):
    cli, weak, fock = qpl_modules
    before = [dict(vars(m)) for m in qpl_modules]
    tracer = Tracer()
    tracer.install(cli, weak, fock)
    assert weak.evolve_exact is not before[1]["evolve_exact"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in qpl_modules] == before


@pytest.mark.parametrize("workload", ("weak-large", "weak-small"))
def test_traced_weak_run_loads_the_evolution(workload, qpl_modules, tmp_path):
    # weak-large spends about 91% of request time in the evolution: 90.9-91.8%
    # per cycle over twelve cycles on a 2-vCPU VM.  Four cycles (~10 s) keep
    # the mean clear of the 90% floor while the machine changes speed.
    requests, tracer, metrics = _traced_cycles(qpl_modules, workload, tmp_path, cycles=4)
    evolutions = tracer.per_request_calls("weak.evolve_exact")
    assert [evolutions[i] for i in range(tracer.requests)] == [
        requests[i % len(requests)].expect["evolutions"] for i in range(tracer.requests)
    ]
    assert {r.expect["evolutions"] for r in requests} <= {3, 5, 6}
    request_ms = metrics["trace.request_ms"]
    if workload == "weak-large":
        assert {r.expect["evolutions"] for r in requests} == {3, 5, 6}
        evolution_ms = metrics["weak.evolve_ms"] + metrics["linalg.unitary_exp_ms"]
        assert evolution_ms >= 0.9 * request_ms
        assert metrics["serialize.ms"] < 0.01 * request_ms
    assert metrics["coherent.closed_calls"] == 0
    assert metrics["weylwigner.basis_bytes"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_times_add_up_to_request_time(workload, qpl_modules, tmp_path):
    requests, tracer, metrics = _traced_cycles(qpl_modules, workload, tmp_path, cycles=1)
    layers_ms = sum(v for k, v in metrics.items()
                    if LAYER_METRICS[k] == "ms" and k != "trace.request_ms")
    assert layers_ms == pytest.approx(metrics["trace.request_ms"], rel=1e-9)


def test_traced_phase_space_run_calls_no_weak_code(qpl_modules, tmp_path):
    requests, tracer, metrics = _traced_cycles(qpl_modules, "phase-space", tmp_path)
    assert all(v == 0 for k, v in metrics.items() if k.startswith("weak."))
    assert metrics["linalg.unitary_exp_calls"] == 0
    grams = sum(r.kind == "coherent-gram" for r in requests)
    assert metrics["coherent.closed_calls"] * len(requests) == grams * 16**4
    bases = sum(r.kind == "structure-constants" for r in requests)
    assert metrics["weylwigner.basis_bytes"] * len(requests) == bases * 15**4 * 16
    assert tracer.requests == 2 * len(requests)
    for name in ("coherent.family_ms", "coherent.closed_ms", "weylwigner.basis_ms",
                 "weylwigner.commutator_ms", "weylwigner.wigner_map_ms", "serialize.ms",
                 "schwinger.gauss_ms", "modular.ms"):
        assert metrics[name] > 0, name


def test_each_run_reports_every_metric_named_in_benchmark_json():
    lines: list[str] = []
    traced, loop = run.run_traced("weak-small", 2, 0.2, lines)
    assert loop.failed == 0
    assert set(traced) == {m["name"] for m in BENCHMARK["per_layer"]}
    untraced, loop = run.run_end_to_end("weak-small", 2, 0.2, lines)
    assert loop.failed == 0
    assert set(untraced) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced.values())
