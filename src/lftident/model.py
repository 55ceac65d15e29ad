"""Data model and file ingestion for LFT-structured descriptor systems.

A model is the constant data of

    E dx = A(theta) x + B(theta) u,    y = C(theta) x + D(theta) u

where the system matrices depend on the parameter vector through the
feedback-style interconnection

    [A(theta) B(theta); C(theta) D(theta)]
        = [A_xx B_xu; C_yx D_yu]
          + [B_xv; D_yv] (I - P(theta) D_zv)^-1 P(theta) [C_zx D_zu]

with P(theta) = sum_k theta_k P_k.  The parameter-domain center is fixed at
zero; nonzero centers must be absorbed into the constant blocks by the user.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numkit
from .errors import (
    InvalidInput,
    ModelFormatError,
    ModelShapeError,
    NonFiniteEntryError,
    RegularityViolation,
)

__all__ = [
    "Dims",
    "ParameterDomain",
    "DescriptorModel",
    "AssumptionReport",
    "load_model",
    "loads_model",
    "save_model",
    "dumps_model",
    "validate_assumptions",
]

TIME_DOMAINS = ("continuous", "discrete")

# Random complex lambdas at which validate_assumptions evaluates the pencil.
_REGULARITY_PROBES = 5

_MATRIX_KEYS = (
    "E", "A_xx", "B_xu", "B_xv", "C_yx", "C_zx",
    "D_yu", "D_yv", "D_zu", "D_zv",
)


@dataclass(frozen=True)
class Dims:
    """Counts of states, inputs, outputs, auxiliary outputs/inputs, parameters."""

    m_x: int
    m_u: int
    m_y: int
    m_z: int
    m_v: int
    q: int

    def __post_init__(self):
        for name in ("m_x", "m_u", "m_y", "m_z", "m_v", "q"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ModelShapeError(f"dims.{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ParameterDomain:
    """Open ball (or box) of admissible parameters, centered at zero."""

    radius: float
    norm: str = "ball"

    def __post_init__(self):
        if self.norm not in ("ball", "box"):
            raise ModelShapeError(f"theta_domain.type must be 'ball' or 'box', got {self.norm!r}")
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ModelShapeError(f"theta_domain.radius must be positive, got {self.radius!r}")

    def contains(self, theta: np.ndarray) -> bool:
        t = np.asarray(theta, dtype=float).reshape(-1)
        if self.norm == "ball":
            return float(np.sum(t * t)) < self.radius
        return bool(np.all(np.abs(t) < self.radius))


def _expected_shapes(d: Dims) -> dict[str, tuple[int, int]]:
    return {
        "E": (d.m_x, d.m_x),
        "A_xx": (d.m_x, d.m_x),
        "B_xu": (d.m_x, d.m_u),
        "B_xv": (d.m_x, d.m_v),
        "C_yx": (d.m_y, d.m_x),
        "C_zx": (d.m_z, d.m_x),
        "D_yu": (d.m_y, d.m_u),
        "D_yv": (d.m_y, d.m_v),
        "D_zu": (d.m_z, d.m_u),
        "D_zv": (d.m_z, d.m_v),
    }


@dataclass(frozen=True)
class DescriptorModel:
    """Immutable, fully validated LFT-structured descriptor model."""

    time_domain: str
    dims: Dims
    E: np.ndarray
    A_xx: np.ndarray
    B_xu: np.ndarray
    B_xv: np.ndarray
    C_yx: np.ndarray
    C_zx: np.ndarray
    D_yu: np.ndarray
    D_yv: np.ndarray
    D_zu: np.ndarray
    D_zv: np.ndarray
    P: tuple[np.ndarray, ...]
    theta_domain: ParameterDomain

    def __post_init__(self):
        if self.time_domain not in TIME_DOMAINS:
            raise ModelShapeError(
                f"time_domain must be one of {TIME_DOMAINS}, got {self.time_domain!r}"
            )
        shapes = _expected_shapes(self.dims)
        for key, want in shapes.items():
            got = getattr(self, key).shape
            if got != want:
                hint = " (E must be square for regularity)" if key == "E" else ""
                raise ModelShapeError(f"{key} must be {want[0]}x{want[1]}, got {got[0]}x{got[1]}{hint}")
            if not np.all(np.isfinite(getattr(self, key))):
                raise NonFiniteEntryError(f"{key} contains non-finite entries")
        if len(self.P) != self.dims.q:
            raise ModelShapeError(f"P must list q={self.dims.q} matrices, got {len(self.P)}")
        for k, Pk in enumerate(self.P):
            if Pk.shape != (self.dims.m_v, self.dims.m_z):
                raise ModelShapeError(
                    f"P[{k}] must be {self.dims.m_v}x{self.dims.m_z}, got {Pk.shape[0]}x{Pk.shape[1]}"
                )
            if not np.all(np.isfinite(Pk)):
                raise NonFiniteEntryError(f"P[{k}] contains non-finite entries")

    def p_of(self, theta) -> np.ndarray:
        """P(theta) = sum_k theta_k P_k."""
        t = self.check_theta(theta)
        P = np.zeros((self.dims.m_v, self.dims.m_z))
        for tk, Pk in zip(t, self.P):
            P += tk * Pk
        return P

    def check_theta(self, theta) -> np.ndarray:
        t = np.asarray(theta, dtype=float).reshape(-1)
        if t.size != self.dims.q:
            raise InvalidInput(f"theta must have length q={self.dims.q}, got {t.size}")
        if not np.all(np.isfinite(t)):
            raise InvalidInput("theta contains non-finite entries")
        return t

    def assembled(self, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """System matrices A(theta), B(theta), C(theta), D(theta)."""
        return self._guarded_assembly(theta)[1:]

    def _guarded_assembly(self, theta):
        """``(sig, A, B, C, D)``: the loop guard's singular values of
        I - P(theta) D_zv, then :meth:`assembled`."""
        P = self.p_of(theta)
        loop = np.eye(self.dims.m_v) - P @ self.D_zv
        (sig,), bad = numkit.loop_guard(
            loop[None], lambda _: f"I - P(theta) D_zv singular at theta={np.asarray(theta).tolist()}")
        if bad:
            raise bad[0]
        mid = np.linalg.solve(loop, P @ np.hstack([self.C_zx, self.D_zu]))
        left = np.vstack([self.B_xv, self.D_yv])
        corr = left @ mid
        m_x = self.dims.m_x
        A = self.A_xx + corr[:m_x, :m_x]
        B = self.B_xu + corr[:m_x, m_x:]
        C = self.C_yx + corr[m_x:, :m_x]
        D = self.D_yu + corr[m_x:, m_x:]
        return sig, A, B, C, D


def _as_real_matrix(raw, key: str) -> np.ndarray:
    try:
        M = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{key} is not a numeric matrix") from exc
    if M.ndim != 2:
        raise ModelShapeError(f"{key} must be a 2-D array of arrays, got ndim={M.ndim}")
    return M


def loads_model(text: str) -> DescriptorModel:
    """Parse a model from its JSON text (see :func:`load_model`)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")

    missing = [k for k in ("time_domain", "dims", *(_MATRIX_KEYS), "P", "theta_domain") if k not in doc]
    if missing:
        raise ModelFormatError(f"model document missing keys: {', '.join(missing)}")

    dims_raw = doc["dims"]
    if not isinstance(dims_raw, dict):
        raise ModelFormatError("dims must be an object")
    try:
        dims = Dims(**{k: dims_raw[k] for k in ("m_x", "m_u", "m_y", "m_z", "m_v", "q")})
    except KeyError as exc:
        raise ModelFormatError(f"dims missing field {exc}") from exc

    matrices = {key: _as_real_matrix(doc[key], key) for key in _MATRIX_KEYS}

    if not isinstance(doc["P"], list):
        raise ModelFormatError("P must be an array of matrices")
    P = tuple(_as_real_matrix(raw, f"P[{k}]") for k, raw in enumerate(doc["P"]))

    td_raw = doc["theta_domain"]
    if not isinstance(td_raw, dict) or "radius" not in td_raw:
        raise ModelFormatError("theta_domain must be an object with a radius")
    domain = ParameterDomain(radius=float(td_raw["radius"]), norm=td_raw.get("type", "ball"))

    return DescriptorModel(
        time_domain=doc["time_domain"],
        dims=dims,
        **matrices,
        P=P,
        theta_domain=domain,
    )


def load_model(path) -> DescriptorModel:
    """Load and validate a model file.

    The file is a JSON object with keys, in order: ``time_domain``,
    ``dims{m_x,m_u,m_y,m_z,m_v,q}``, the ten constant matrices ``E`` through
    ``D_zv`` as row-major arrays of arrays of finite doubles, ``P`` (array of
    q row-major matrices), and ``theta_domain{type,radius}``.
    """
    p = Path(path)
    if not p.exists():
        raise ModelFormatError(f"model file not found: {p}")
    return loads_model(p.read_text())


def _fmt(x: float) -> str:
    out = format(float(x), ".17g")
    # JSON has no inf/nan; validation upstream guarantees finiteness.
    return out


def _fmt_matrix(M: np.ndarray) -> str:
    rows = ", ".join("[" + ", ".join(_fmt(v) for v in row) + "]" for row in np.atleast_2d(M))
    return "[" + rows + "]"


def dumps_model(model: DescriptorModel) -> str:
    """Canonical serialization: fixed key order, 17-significant-digit doubles."""
    d = model.dims
    parts = [
        f'"time_domain": "{model.time_domain}"',
        (
            '"dims": {'
            f'"m_x": {d.m_x}, "m_u": {d.m_u}, "m_y": {d.m_y}, '
            f'"m_z": {d.m_z}, "m_v": {d.m_v}, "q": {d.q}'
            "}"
        ),
    ]
    for key in _MATRIX_KEYS:
        parts.append(f'"{key}": {_fmt_matrix(getattr(model, key))}')
    parts.append('"P": [' + ", ".join(_fmt_matrix(Pk) for Pk in model.P) + "]")
    parts.append(
        '"theta_domain": {'
        f'"type": "{model.theta_domain.norm}", "radius": {_fmt(model.theta_domain.radius)}'
        "}"
    )
    return "{" + ", ".join(parts) + "}\n"


def save_model(model: DescriptorModel, path) -> None:
    Path(path).write_text(dumps_model(model))


@dataclass(frozen=True)
class AssumptionReport:
    """Worst-case diagnostics from sampling regularity and well-posedness."""

    theta_samples: tuple[tuple[float, ...], ...]
    worst_loop_condition: float
    min_abs_pencil_det: float
    probe_lambdas: tuple[complex, ...]


def validate_assumptions(model: DescriptorModel, theta_samples,
                         seed: int = 20260808) -> AssumptionReport:
    """Check regularity and well-posedness at the given samples.

    Well-posedness is the invertibility of I - P(theta) D_zv.  Regularity is certified by
    evaluating det(lambda E - A(theta)) at five random complex lambda
    away from the imaginary axis: a polynomial of degree <= m_x vanishing at
    all of them is identically zero with probability one.
    """
    rng = np.random.default_rng(seed)
    # Probe points stay away from the imaginary axis so discrete/continuous
    # pole sets on it cannot mask a regularity violation.
    lams = tuple(
        complex(rng.choice([-1.0, 1.0]) * (1.5 + 3.0 * rng.random()), 2.0 * rng.standard_normal())
        for _ in range(_REGULARITY_PROBES)
    )
    worst_cond = 1.0
    min_det = np.inf
    samples = []
    for theta in theta_samples:
        t = model.check_theta(theta)
        samples.append(tuple(float(v) for v in t))
        sig, A_t, _, _, _ = model._guarded_assembly(t)
        worst_cond = max(worst_cond, float(sig[0] / sig[-1]))
        for lam in lams:
            det = np.linalg.det(lam * model.E - A_t)
            mag = abs(det)
            min_det = min(min_det, mag)
            if mag <= 1e-300:
                raise RegularityViolation(
                    f"det(lambda E - A(theta)) vanished at theta={t.tolist()}, lambda={lam}"
                )
    return AssumptionReport(
        theta_samples=tuple(samples),
        worst_loop_condition=worst_cond,
        min_abs_pencil_det=float(min_det),
        probe_lambdas=lams,
    )
