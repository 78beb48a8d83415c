"""Spectral backend: band-limited forms on the standard complex 3-torus.

Coordinates are x1..x6 on [0, 2pi)^6 with z_j = x_{2j-1} + i x_{2j}, so
dz^j (j = 1..3) plays the role of the j-th coframe generator.  Coefficient
fields are sampled on a tensor grid whose resolution is 1 on masked-out
coordinates; derivatives are exact FFT collocation derivatives, and
integration is the grid mean (the fundamental domain carries unit mass).
The model owns the Fourier symbols zh_j = (i/2)(k_{2j-1} - i k_{2j}) of
d/dz_j and zbh_j = (i/2)(k_{2j-1} + i k_{2j}) of d/dzbar_j, so del and dbar
are one FFT pair each (spectral_differential alone on spectra), and hodge's
preconditioner reads the same symbols.

Resolutions must be powers of two with at least 4 points per active
coordinate, and synthesized data must keep its frequencies strictly below a
quarter of the resolution so that the cubic expressions used downstream stay
below the Nyquist limit without dealiasing.
"""

from __future__ import annotations

import json

import numpy as np

from . import _basis
from ._basis import DIM
from .forms import Form, zero_form


class GridError(ValueError):
    """Invalid resolution / mask combination."""


class AliasingError(ValueError):
    """Requested frequency content exceeds the safe band limit."""


_COORD_NAMES = tuple(f"x{i}" for i in range(1, 2 * DIM + 1))


def _coord_id(c):
    if isinstance(c, str):
        c = c.strip().lower()
        if c in _COORD_NAMES:
            return _COORD_NAMES.index(c)
        raise GridError(f"unknown coordinate {c!r}")
    c = int(c)
    if not 0 <= c < 2 * DIM:
        raise GridError(f"coordinate index {c} out of range")
    return c


class TorusModel:
    """Flat complex 3-torus sampled on a masked tensor grid; `resolutions`
    holds one resolution per coordinate x1..x6."""

    kind = "torus"
    n = DIM

    def __init__(self, resolutions):
        self.resolutions = tuple(int(r) for r in resolutions)
        if len(self.resolutions) != 2 * DIM:
            raise GridError(f"need {2 * DIM} per-coordinate resolutions")
        for N in self.resolutions:
            if N == 1:
                continue
            if N < 4 or (N & (N - 1)) != 0:
                raise GridError(
                    f"active resolutions must be powers of two >= 4, got {N}"
                )
        self.grid_shape = self.resolutions
        self.active = tuple(i for i, N in enumerate(self.resolutions) if N > 1)
        # the FFT axes of a coefficient array or block, counted from the end
        self.spectral_axes = tuple(a - 2 * DIM for a in self.active)
        # broadcast symbols of d/dz_j and d/dzbar_j (j = 1..3), None where
        # both real axes of z_j are masked
        k = np.ix_(*[np.fft.fftfreq(N, d=1.0 / N) for N in self.resolutions])
        xs, ys = k[0::2], k[1::2]
        self.zh = tuple(0.5j * (x - 1j * y) if x.size * y.size > 1 else None
                        for x, y in zip(xs, ys))
        self.zbh = tuple(0.5j * (x + 1j * y) if x.size * y.size > 1 else None
                         for x, y in zip(xs, ys))

    # -- backend protocol ---------------------------------------------------

    @staticmethod
    def mean(field):
        return complex(np.mean(field))

    def describe(self):
        return {
            "backend": "torus",
            "dim": self.n,
            "resolutions": list(self.resolutions),
            "mask": [_COORD_NAMES[i] for i in self.active],
            "scope": "band-limited-grid",
        }

    def apply_differential(self, part, p, q, coeffs):
        """del or dbar of (p,q) coefficients: one fftn, the symbols of
        spectral_differential, and one ifftn of the result; no transform
        where the source or the target bidegree is empty."""
        d = _basis.degree_dims(self.n, p + (part == "del"), q + (part != "del"))
        if d == 0 or coeffs.shape[0] == 0:
            return np.zeros((d,) + self.grid_shape, dtype=np.complex128)
        spec = np.fft.fftn(coeffs, axes=self.spectral_axes)
        return np.fft.ifftn(self.spectral_differential(part, p, q, spec),
                            axes=self.spectral_axes)

    def spectral_differential(self, part, p, q, spec):
        """del or dbar on the spectra of (p,q) coefficients, with no
        transform: the symbol of the generator channel c1 (dz^{c1+1} or its
        conjugate) times each source spectrum per wedge_table row."""
        tgt, sym, gen = (((p + 1, q), self.zh, (1, 0)) if part == "del"
                         else ((p, q + 1), self.zbh, (0, 1)))
        out = np.zeros(
            (_basis.degree_dims(self.n, *tgt),) + self.grid_shape,
            dtype=np.complex128,
        )
        for c1, c2, c_out, sign in _basis.wedge_table(self.n, *gen, p, q):
            if sym[c1] is not None:
                out[c_out] += sign * sym[c1] * spec[c2]
        return out

    def dbar_preimage(self, p, q, v):
        """x of bidegree (p,q) with dbar x = v for dbar-exact (p,q+1)
        coefficients v: the adjoint of apply_differential's loop (conjugate
        symbols) over sum_j |zbh_j|^2.  On a nonzero mode dbar is a ^ with
        a = sum_j zbh_j dzbar^j, and the Koszul identity e e* + e* e = |a|^2
        makes this exact; the zero mode of x is 0."""
        out = np.zeros((_basis.degree_dims(self.n, p, q),) + self.grid_shape,
                       dtype=np.complex128)
        spec = np.fft.fftn(v, axes=self.spectral_axes)
        for c1, c2, c_out, sign in _basis.wedge_table(self.n, 0, 1, p, q):
            if self.zbh[c1] is not None:
                out[c2] += sign * np.conj(self.zbh[c1]) * spec[c_out]
        mass = sum((abs(z) ** 2 for z in self.zbh if z is not None),
                   np.zeros(self.grid_shape))
        mass.flat[0] = np.inf           # the zero mode, where dbar is 0
        return np.fft.ifftn(out / mass, axes=self.spectral_axes)

    # -- grid helpers ---------------------------------------------------------

    def coordinate_grids(self):
        """Open (broadcastable) arrays of the six coordinates."""
        return np.ix_(*[np.arange(N) * (2 * np.pi / N)
                        for N in self.resolutions])

    def headroom(self, axis):
        """Largest safe synthesis frequency magnitude on an axis."""
        N = self.resolutions[axis]
        return 0 if N == 1 else N // 4 - 1


def make_torus_model(resolution, mask) -> TorusModel:
    """Build a torus model from a scalar resolution and a coordinate mask."""
    if isinstance(resolution, int):
        ids = sorted(_coord_id(c) for c in mask)
        if len(set(ids)) != len(ids):
            raise GridError("duplicate coordinates in mask")
        res = [1] * (2 * DIM)
        for i in ids:
            res[i] = resolution
        return TorusModel(res)
    return TorusModel(resolution)


# ---------------------------------------------------------------------------
# band-limited synthesis


def synthesize_form(model: TorusModel, p, q, table, real: bool = False) -> Form:
    """Assemble a form from (channel, frequency, coefficient) rows.

    Each row is ((I, J) or channel position, 6-tuple of integer frequencies,
    complex coefficient); the sampled field of the row is
    coeff * exp(i sum_m k_m x_m).  Frequencies on masked coordinates must be
    zero, and active frequencies must stay within the quarter-resolution
    headroom (AliasingError otherwise).  With real=True the Hermitian
    symmetrization (a + conj a)/2 is returned, which requires p == q.
    """
    from .forms import conjugate

    out = zero_form(model, p, q)
    idx = _basis.channel_index(model.n, p, q)
    grids = model.coordinate_grids()
    for channel, freqs, coeff in table:
        if not isinstance(channel, (int, np.integer)):
            I, J = channel
            channel = idx[(tuple(I), tuple(J))]
        freqs = tuple(int(k) for k in freqs)
        if len(freqs) != 2 * DIM:
            raise GridError(f"frequency tuple must have {2 * DIM} entries")
        for ax, k in enumerate(freqs):
            N = model.resolutions[ax]
            if N == 1:
                if k != 0:
                    raise AliasingError(
                        f"frequency {k} on masked coordinate {_COORD_NAMES[ax]}"
                    )
            elif abs(k) >= N // 4:
                raise AliasingError(
                    f"|k|={abs(k)} exceeds the headroom bound {N // 4 - 1} on "
                    f"{_COORD_NAMES[ax]} (resolution {N})"
                )
        wave = 1.0
        for ax, k in enumerate(freqs):
            if k:
                wave = wave * np.exp(1j * k * grids[ax])
        out.coeffs[channel] += coeff * np.broadcast_to(wave, model.grid_shape)
    if real:
        if p != q:
            raise ValueError("real synthesis requires p == q")
        out = 0.5 * (out + conjugate(out))
    return out


def refine(model: TorusModel, factor: int = 2) -> TorusModel:
    """Same torus with every active resolution multiplied by `factor`."""
    if factor < 1 or (factor & (factor - 1)) != 0:
        raise GridError("refinement factor must be a power of two")
    if factor == 1:
        return model
    res = tuple(N * factor if N > 1 else 1 for N in model.resolutions)
    return TorusModel(res)


def resample(form: Form, target: TorusModel) -> Form:
    """Spectral interpolation of a form onto a finer or coarser grid.

    Exact for data band-limited below the coarser Nyquist bound.
    """
    src = form.model
    if src.active != target.active:
        raise GridError("resampling requires the same coordinate mask")
    spec = np.fft.fftn(form.coeffs, axes=src.spectral_axes)
    spec_t = np.zeros(
        (form.coeffs.shape[0],) + target.grid_shape, dtype=np.complex128
    )
    # copy the spectral block both grids can represent; per axis the shared
    # frequencies are [0, m/2) and [-m/2, 0) with m = min(Ns, Nt)
    grids_src, grids_dst = [], []
    scale = 1.0
    for ax in range(2 * DIM):
        Ns, Nt = src.resolutions[ax], target.resolutions[ax]
        scale *= Nt / Ns
        m = min(Ns, Nt)
        if m == 1:
            grids_src.append(np.array([0]))
            grids_dst.append(np.array([0]))
            continue
        freqs = np.concatenate([np.arange(0, m // 2), np.arange(-(m // 2), 0)])
        grids_src.append(freqs % Ns)
        grids_dst.append(freqs % Nt)
    channels = np.arange(form.coeffs.shape[0])
    spec_t[np.ix_(channels, *grids_dst)] = spec[np.ix_(channels, *grids_src)]
    spec_t *= scale
    out = np.fft.ifftn(spec_t, axes=target.spectral_axes)
    return Form(target, form.p, form.q, out)


# ---------------------------------------------------------------------------
# standard fixtures


def standard_potential(model: TorusModel, name: str, eps: float = 0.05) -> Form:
    """Named (1,0)-form potentials for the perturbed-torus fixtures.

    'two_coord':  eps * exp(i x1) dz^2                  (mask x1, x2)
    'three_coord': eps * exp(i x1) dz^2
                   + eps * exp(i (x3 + x5)) dz^3        (mask x1, x3, x5)

    The perturbed metric omega0 + del(conj u) + dbar(u) is positive for
    eps well below 1/2 and carries nonvanishing torsion.
    """
    if name == "two_coord":
        table = [(((2,), ()), (1, 0, 0, 0, 0, 0), eps)]
    elif name == "three_coord":
        table = [
            (((2,), ()), (1, 0, 0, 0, 0, 0), eps),
            (((3,), ()), (0, 0, 1, 0, 1, 0), eps),
        ]
    else:
        raise ValueError(f"unknown potential fixture {name!r}")
    return synthesize_form(model, 1, 0, table)


def standard_fixture(name: str, resolution: int = 16, eps: float = 0.05):
    """Return (model, u, omega0, omega) for a named perturbed-torus fixture."""
    from .forms import conjugate, differential, flat_metric_form

    mask = {"two_coord": ("x1", "x2"), "three_coord": ("x1", "x3", "x5")}[name]
    model = make_torus_model(resolution, mask)
    u = standard_potential(model, name, eps)
    omega0 = flat_metric_form(model)
    omega = omega0 + differential("del", conjugate(u)) + differential("dbar", u)
    return model, u, omega0, omega


# ---------------------------------------------------------------------------
# import / export


def save_form(form: Form, prefix: str):
    """Write <prefix>.json (header) and <prefix>.npy (channel payload)."""
    model = form.model
    header = {
        "schema": 1,
        "bidegree": [form.p, form.q],
        "channels": [
            {"I": list(I), "J": list(J)}
            for I, J in _basis.basis(model.n, form.p, form.q)
        ],
        "grid_shape": list(model.grid_shape),
        "dim": model.n,
        "dtype": "complex128",
    }
    with open(f"{prefix}.json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
    np.save(f"{prefix}.npy", form.coeffs)


def load_form(model: TorusModel, prefix: str) -> Form:
    with open(f"{prefix}.json") as fh:
        header = json.load(fh)
    if tuple(header["grid_shape"]) != model.grid_shape:
        raise GridError("stored grid shape does not match the model")
    coeffs = np.load(f"{prefix}.npy")
    p, q = header["bidegree"]
    return Form(model, p, q, np.ascontiguousarray(coeffs, dtype=np.complex128))
