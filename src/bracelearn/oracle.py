"""Synthetic cyclic-test data for brace hysteresis.

A displacement-controlled loading protocol (blocks of symmetric cycles
with growing peak amplitude, expressed as multiples of the yield
displacement) drives a degrading hysteresis law of the Bouc-Wen family.
The result is a displacement/force pair that behaves like a small-scale
brace test: nearly elastic response below yield, pinched loops beyond
it, buckling-like tension/compression asymmetry, and strength loss as
dissipated energy accumulates.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FINITE, POSITIVE, DivergenceError, ValidationError, at_least, between, check, count,
)

DISPLACEMENT = "displacement"
FORCE = "force"

CSV_HEADER = ("t", "displacement", "force")

#: Peak multipliers of the yield displacement, two cycles each: 26 cycles total.
DEFAULT_AMPLITUDE_FACTORS = (
    0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
)


@dataclass(frozen=True)
class Series:
    """A uniformly sampled scalar time history: sample i is at ``t0 + i*dt``.

    ``unit`` tags the physical quantity: ``"displacement"`` or ``"force"``.
    Every sample is finite.
    """

    dt: float
    values: np.ndarray
    unit: str
    t0: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        check(self, dt=POSITIVE, t0=FINITE)
        if values.ndim != 1 or values.size == 0:
            raise ValidationError("values must be a non-empty one-dimensional array")
        if self.unit not in (DISPLACEMENT, FORCE):
            raise ValidationError(
                f"unit must be {DISPLACEMENT!r} or {FORCE!r}, got {self.unit!r}"
            )
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            index = int(bad[0])
            raise ValidationError(
                f"{self.unit} values must be finite, got {values[index]} at sample {index}",
                field="values",
            )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LoadingProtocol:
    """Cyclic loading schedule: symmetric cycles at multiples of delta_y.

    Each amplitude factor ``a`` contributes ``cycles_per_amplitude`` full
    cycles peaking at ``+/- a * delta_y``. A cycle rises to the positive
    peak, falls through zero to the negative peak, and returns to zero,
    sampled ``points_per_cycle`` times on a smooth sinusoidal shape.
    """

    delta_y: float = 0.1
    amplitude_factors: tuple[float, ...] = DEFAULT_AMPLITUDE_FACTORS
    cycles_per_amplitude: int = 2
    points_per_cycle: int = 200
    dt: float = 0.01

    def __post_init__(self):
        factors = []
        for index, a in enumerate(self.amplitude_factors):
            try:
                factors.append(float(a))
            except (OverflowError, TypeError, ValueError):
                raise ValidationError(
                    f"amplitude_factors[{index}] must be a real number, got {a!r}",
                    field="amplitude_factors",
                ) from None
        object.__setattr__(self, "amplitude_factors", tuple(factors))
        check(
            self, delta_y=POSITIVE, cycles_per_amplitude=count(1), points_per_cycle=count(8),
            dt=POSITIVE,
        )
        if not factors:
            raise ValidationError("amplitude_factors must be non-empty", field="amplitude_factors")
        if not all(a > 0 for a in factors):
            raise ValidationError(
                "amplitude_factors must all be positive", field="amplitude_factors"
            )
        if any(b <= a for a, b in zip(factors, factors[1:])):
            raise ValidationError(
                "amplitude_factors must be strictly increasing", field="amplitude_factors"
            )
        if not math.isfinite(self.delta_y * factors[-1]):
            raise ValidationError(
                f"delta_y {self.delta_y} times the largest amplitude factor "
                f"{factors[-1]} overflows the float range",
                field="delta_y",
            )


@dataclass(frozen=True)
class BoucWenParams:
    """Parameters of the degrading, asymmetric Bouc-Wen hysteresis law.

    The restoring force splits into an elastic part ``alpha * k * x`` and a
    hysteretic part ``(1 - alpha) * k * z`` driven by the internal variable
    z. ``delta_nu`` and ``delta_eta`` grow the strength- and stiffness-
    degradation factors linearly in dissipated energy; ``asym`` scales the
    shape parameters on the compression side (z < 0) to mimic buckling.
    """

    k: float = 10.0
    alpha: float = 0.05
    A0: float = 1.0
    beta: float = 5.0
    gamma: float = 5.0
    n: float = 1.5
    delta_nu: float = 0.10
    delta_eta: float = 0.40
    asym: float = 1.5
    substeps: int = 4

    def __post_init__(self):
        check(
            self, k=POSITIVE, alpha=between(0, 1), A0=at_least(0), beta=FINITE, gamma=FINITE,
            n=at_least(1), delta_nu=at_least(0), delta_eta=at_least(0), asym=at_least(1),
            substeps=count(1),
        )


def specimen_a() -> BoucWenParams:
    """Default parameter set: moderately degrading steel-like brace."""
    return BoucWenParams()


def specimen_b() -> BoucWenParams:
    """Softer, more sharply degrading variant (aluminum-like brace)."""
    return BoucWenParams(
        k=8.0, alpha=0.03, n=2.0, delta_nu=0.15, delta_eta=0.50, asym=2.0
    )


def generate_protocol(protocol: LoadingProtocol) -> Series:
    """Sample the cyclic loading protocol as a displacement series.

    Cycles are smooth sine waves; each cycle contributes
    ``points_per_cycle`` samples and one trailing zero closes the series,
    so the length is ``cycles * points_per_cycle + 1``, where ``cycles`` is
    ``len(amplitude_factors) * cycles_per_amplitude``. The series
    starts and ends at zero displacement.
    """
    ppc = protocol.points_per_cycle
    shape = np.sin(2.0 * np.pi * np.arange(ppc) / ppc)
    peaks = [
        a * protocol.delta_y
        for a in protocol.amplitude_factors
        for _ in range(protocol.cycles_per_amplitude)
    ]
    values = np.concatenate([peak * shape for peak in peaks] + [np.zeros(1)])
    return Series(dt=protocol.dt, values=values, unit=DISPLACEMENT)


@dataclass(frozen=True)
class SimulationTrace:
    """Force output plus the internal state histories of a simulation."""

    force: Series
    z: np.ndarray
    energy: np.ndarray


def simulate(params: BoucWenParams, disp: Series) -> Series:
    """Drive the hysteresis law with a displacement series; return force."""
    return simulate_trace(params, disp).force


def simulate_trace(params: BoucWenParams, disp: Series) -> SimulationTrace:
    """Integrate the degrading Bouc-Wen law along a displacement history.

    State: internal variable z (drives the hysteretic force) and
    dissipated energy. Between consecutive displacement samples the state
    advances with classical fourth-order Runge-Kutta over ``substeps``
    equal substeps; the velocity is taken from finite differences of the
    displacement samples (central in the interior, one-sided at the ends)
    and interpolated linearly within each sample interval.
    """
    if disp.unit != DISPLACEMENT:
        raise ValidationError(f"simulate expects a displacement series, got {disp.unit!r}")

    x = disp.values
    dt = disp.dt
    num = len(x)

    k = params.k
    alpha = params.alpha
    a0 = params.A0
    beta = params.beta
    gamma = params.gamma
    n_exp = params.n
    d_nu = params.delta_nu
    d_eta = params.delta_eta
    asym = params.asym
    one_minus_alpha_k = (1.0 - alpha) * k

    def rhs(z, energy, vel):
        nu = 1.0 + d_nu * energy
        eta = 1.0 + d_eta * energy
        if z < 0.0:
            b, g = asym * beta, asym * gamma
        else:
            b, g = beta, gamma
        abs_z = abs(z)
        pow_nm1 = abs_z ** (n_exp - 1.0)  # n >= 1: at z = 0, 1.0 for n = 1 and 0.0 above
        dz = (a0 * vel - nu * (b * abs(vel) * pow_nm1 * z + g * vel * pow_nm1 * abs_z)) / eta
        de = one_minus_alpha_k * z * vel
        return dz, de

    substeps = params.substeps
    h = dt / substeps
    z_hist = np.zeros(num)
    e_hist = np.zeros(num)
    z_cur = 0.0
    e_cur = 0.0
    # a blowing-up rate or state is reported via DivergenceError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.zeros(num)
        if num > 1:
            v[0] = (x[1] - x[0]) / dt
            v[-1] = (x[-1] - x[-2]) / dt
            v[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
        for i in range(num - 1):
            v0 = v[i]
            dv = v[i + 1] - v0
            for s in range(substeps):
                va = v0 + dv * (s / substeps)
                vm = v0 + dv * ((s + 0.5) / substeps)
                vb = v0 + dv * ((s + 1.0) / substeps)
                k1z, k1e = rhs(z_cur, e_cur, va)
                k2z, k2e = rhs(z_cur + 0.5 * h * k1z, e_cur + 0.5 * h * k1e, vm)
                k3z, k3e = rhs(z_cur + 0.5 * h * k2z, e_cur + 0.5 * h * k2e, vm)
                k4z, k4e = rhs(z_cur + h * k3z, e_cur + h * k3e, vb)
                z_cur += (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
                e_cur += (h / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
            if not (math.isfinite(z_cur) and math.isfinite(e_cur)):
                raise DivergenceError(
                    f"hysteresis state became non-finite at sample {i + 1}", index=i + 1
                )
            z_hist[i + 1] = z_cur
            e_hist[i + 1] = e_cur
        # a force past the float range is rejected by Series, not warned about
        force = alpha * k * x + one_minus_alpha_k * z_hist
    return SimulationTrace(
        force=Series(dt=dt, values=force, unit=FORCE, t0=disp.t0), z=z_hist, energy=e_hist
    )


def write_csv(path, disp: Series, force: Series) -> None:
    """Write a ``t,displacement,force`` CSV, one row per sample, ``t`` from ``disp.t0``."""
    if len(disp) != len(force):
        raise ValidationError(
            f"series length mismatch: {len(disp)} displacement vs {len(force)} force"
        )
    if disp.dt != force.dt:
        raise ValidationError(f"dt mismatch: {disp.dt} vs {force.dt}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for i, (d, f) in enumerate(zip(disp.values, force.values)):
            writer.writerow([repr(disp.t0 + i * disp.dt), repr(float(d)), repr(float(f))])


def read_csv(path, raw: bytes | None = None) -> tuple[Series, Series]:
    """Read a ``t,displacement,force`` CSV back into a series pair.

    ``raw``, when given, is the file's content already read (so a caller
    can hash the very bytes that were parsed); ``path`` then only names
    the file in messages. A row with the wrong number of fields, a
    non-numeric cell, a non-finite value, a ``t`` off the uniform grid
    from the first to the last row (by more than 1e-6 of the step) or a
    ``t`` column that does not increase raises ValidationError naming the
    file and line. ``dt`` is the first step, ``t[1] - t[0]``, and ``t0``
    the first ``t``.
    """
    path = Path(path)
    if raw is None:
        raw = path.read_bytes()
    # an undecodable byte becomes U+FFFD, which the row checks then reject
    with io.StringIO(raw.decode("utf-8", errors="replace"), newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise ValidationError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        rows = []
        for row in reader:
            try:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                values = [float(cell) for cell in row]  # float's error names the bad cell
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"non-finite value in {row}")
            except ValueError as exc:
                raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None
            rows.append(values)
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(rows)}")
    t = np.array([r[0] for r in rows])
    # a uniform column is t0 + i*step; the first row off that grid is named
    step = float(t[-1] - t[0]) / (len(t) - 1)
    grid = t[0] + np.arange(len(t)) * step
    off = np.flatnonzero(np.abs(t - grid) > 1e-6 * abs(step))
    if off.size:
        row = int(off[0])
        raise ValidationError(
            f"{path}, line {row + 2}: non-uniform t column: t = {float(t[row])!r}, "
            f"but a uniform step of {step!r} puts it at {float(grid[row])!r}"
        )
    dt, t0 = float(t[1] - t[0]), float(t[0])
    if not dt > 0:  # a uniform column that falls or stands still
        raise ValidationError(
            f"{path}, line 3: t must increase, but {float(t[1])!r} follows {t0!r}"
        )
    disp = Series(dt=dt, values=np.array([r[1] for r in rows]), unit=DISPLACEMENT, t0=t0)
    force = Series(dt=dt, values=np.array([r[2] for r in rows]), unit=FORCE, t0=t0)
    return disp, force
