"""Response checks that do not depend on qpl's implementation.

Each check reads the bytes a request printed and compares them with facts
the benchmark can derive from the inputs it generated, using numpy or plain
Python only.  `check` returns None for a good response and a short reason
otherwise; any reason counts the request as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TOL = 1e-9


class Bad(Exception):
    """A response that fails its check."""


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise Bad(reason)


def _close(a: float, b: float, what: str) -> None:
    _require(abs(a - b) <= TOL * max(1.0, abs(b)), f"{what}: {a!r} != {b!r}")


def _finite(x, what: str) -> float:
    _require(isinstance(x, (int, float)) and math.isfinite(x), f"{what} is not finite: {x!r}")
    return float(x)


def _csv_rows(text: str, columns: int, count: int) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    _require(len(rows) == count + 1, f"expected {count} CSV rows, got {len(rows) - 1}")
    _require(all(len(r) == columns for r in rows), "ragged CSV rows")
    return rows[1:]


def expected_weak_value(expect: dict) -> complex:
    """⟨β|O|α⟩ / ⟨β|α⟩ from the generated kets (normalization cancels)."""
    pre = np.array(expect["pre"], dtype=complex)
    post = np.array(expect["post"], dtype=complex)
    obs = np.array(expect["obs"], dtype=complex)
    return complex(post.conj() @ obs @ pre) / complex(post.conj() @ pre)


def _check_weak(req, text: str) -> None:
    exp = req.expect
    want = expected_weak_value(exp)
    if req.fmt == "json":
        p = json.loads(text)
        ow = complex(p["weak_value"]["re"], p["weak_value"]["im"])
        prob = p["probability"]
        residuals = [p["shifts"][k]["residual"] for k in ("q", "p")]
        _require((p["halving"] is not None) == exp["halving"], "halving block mismatch")
        if exp["halving"]:
            residuals += [p["halving"][k]["half_residual"] for k in ("q", "p")]
        _require((p["annihilator"] is not None) == exp["annihilator"], "annihilator mismatch")
        if exp["annihilator"]:
            residuals.append(p["annihilator"]["residual"])
    else:
        count = 5 + 6 + 4 * exp["halving"] + 3 * exp["annihilator"]
        rows = {r[0]: r[1:] for r in _csv_rows(text, 3, count)}
        ow = complex(float(rows["weak_value"][0]), float(rows["weak_value"][1]))
        prob = float(rows["probability"][0])
        names = [n for n in rows if n.endswith("_residual")]
        _require(len(names) == 2 + 2 * exp["halving"] + exp["annihilator"], "residual rows")
        residuals = [float(rows[n][0]) for n in names]
    _require(abs(ow - want) <= TOL * max(1.0, abs(want)), f"weak value {ow} != {want}")
    _require(0.0 < _finite(prob, "probability") <= 1.0, f"probability {prob} outside (0, 1]")
    for i, r in enumerate(residuals):
        _finite(r, f"residual {i}")


def _check_wigner(req, text: str) -> None:
    n = req.expect["n"]
    if req.fmt == "json":
        p = json.loads(text)
        values = np.array(p["values"], dtype=float)
        _require(values.shape == (n, n), f"values shape {values.shape}")
        total = p["total"]
        momentum = p["marginal_momentum"]
        position = p["marginal_position"]
    else:
        rows = _csv_rows(text, 4, n * n + 2 * n + 3)
        values = [float(r[3]) for r in rows if r[0] == "value"]
        _require(len(values) == n * n, "value rows")
        momentum = [float(r[3]) for r in rows if r[0] == "marginal_momentum"]
        position = [float(r[3]) for r in rows if r[0] == "marginal_position"]
        _require([int(r[2]) for r in rows if r[0] == "marginal_position"] == list(range(n)),
                 "position marginal order")
        total = next(float(r[3]) for r in rows if r[0] == "total")
    _require(len(momentum) == n and len(position) == n, "marginal length")
    _close(total, 1.0, "total")
    _close(float(np.sum(values)), 1.0, "sum of values")
    _close(math.fsum(momentum), 1.0, "momentum marginal sum")
    _close(math.fsum(position), 1.0, "position marginal sum")
    for k, (got, want) in enumerate(zip(position, req.expect["position"])):
        _close(got, want, f"position marginal [{k}]")


def _check_structure(req, text: str) -> None:
    n = req.expect["n"]
    if req.fmt == "json":
        p = json.loads(text)
        _require(p["n"] == n, "dimension")
        residual = p["max_residual"]
    else:
        rows = _csv_rows(text, 4, n * n + 7)
        residual = next(float(r[3]) for r in rows if r[0] == "max_residual")
    _require(_finite(residual, "max_residual") <= TOL, f"max_residual {residual}")


def _check_gram(req, text: str) -> None:
    n = req.expect["n"]
    if req.fmt == "json":
        p = json.loads(text)
        _require(p["n"] == n, "dimension")
        closed, identity = p["max_closed_residual"], p["identity_residual"]
    else:
        rows = {r[0]: r[3] for r in _csv_rows(text, 4, 2 * n * n + 4)}
        closed, identity = float(rows["max_closed_residual"]), float(rows["identity_residual"])
    _require(_finite(closed, "max_closed_residual") <= TOL, f"max_closed_residual {closed}")
    _require(_finite(identity, "identity_residual") <= TOL, f"identity_residual {identity}")


def _check_gauss(req, text: str) -> None:
    p = json.loads(text)
    ns = [e["n"] for e in p["entries"]]
    _require(ns == list(range(req.expect["nmin"], req.expect["nmax"] + 1)), "entry range")
    bad = [e["n"] for e in p["entries"] if e["n"] % 2 == 1 and e["match"] is not True]
    _require(not bad, f"odd n without match: {bad}")


def _check_nslit(req, text: str) -> None:
    p = json.loads(text)
    _require(p["n"] == req.expect["n"] and p["period"] == req.expect["period"], "shape")
    _require(p["support_ok"] is True, "support_ok is not true")


def _check_az(req, text: str) -> None:
    p = json.loads(text)
    vector = p["vector"]
    _require(len(vector) == req.expect["dim"], "vector length")
    norm2 = math.fsum(z["re"] ** 2 + z["im"] ** 2 for z in vector)
    _close(math.sqrt(norm2), 1.0, "vector norm")


_CHECKS = {
    "weak": _check_weak,
    "wigner": _check_wigner,
    "structure-constants": _check_structure,
    "coherent-gram": _check_gram,
    "gauss-trace": _check_gauss,
    "nslit": _check_nslit,
    "az": _check_az,
}


def check(req, text: str) -> str | None:
    """None when `text` is a correct response to `req`, else the reason."""
    try:
        _CHECKS[req.kind](req, text)
    except Bad as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return f"malformed response: {type(exc).__name__}: {exc}"
    return None
