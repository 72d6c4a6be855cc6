"""Forward-mode jets of defining functions and their Wirtinger views.

Defining functions are written against the small operator set below (`Jet`
arithmetic plus jexp/jlog/jsqrt/jsin/jcos/jhinge_pow).  Feeding `Jet`
variables through such an evaluator yields derivatives to order 3 that are
exact to machine precision, batched over points.  Called on plain arrays, the
same evaluators give the values alone.  No finite differences live here:
the signed distance's jets come in closed form from distance.delta_jet, and
psi's derivatives from certify.PsiStencil.

Real coordinates are interleaved: point = (x1, y1, x2, y2, ...) so that
z_j = point[2j] + i*point[2j+1].  The Wirtinger convention is
d/dz = (d/dx - i d/dy)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationDomain, NonFinite, OrderTooLow


# ---------------------------------------------------------------------------
# Taylor-coefficient algebra (value, gradient, Hessian, third tensor)
# ---------------------------------------------------------------------------

def _nadd(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _nscale(a, s):
    # s is (B,); broadcast over the trailing tensor axes of a
    if a is None:
        return None
    return a * s.reshape(s.shape + (1,) * (a.ndim - 1))


def _outer_gg(g1, g2):
    if g1 is None or g2 is None:
        return None
    return np.einsum("...a,...b->...ab", g1, g2)


def _sym_gh(g, h):
    # sym(g (x) h)[abc] = g[a]h[bc] + g[b]h[ac] + g[c]h[ab]
    if g is None or h is None:
        return None
    t = np.einsum("...a,...bc->...abc", g, h)
    return t + np.transpose(t, axes=(*range(t.ndim - 3), -2, -3, -1)) \
        + np.transpose(t, axes=(*range(t.ndim - 3), -2, -1, -3))


def _outer_ggg(g):
    if g is None:
        return None
    return np.einsum("...a,...b,...c->...abc", g, g, g)


class Jet:
    """Batched truncated Taylor expansion to order <= 3.

    v: (B,) values; g: (B,D) gradient; h: (B,D,D) Hessian; t: (B,D,D,D).
    Missing blocks are None (treated as zero).
    """

    __slots__ = ("order", "v", "g", "h", "t")

    def __init__(self, order, v, g=None, h=None, t=None):
        self.order = order
        self.v = np.asarray(v, dtype=float)
        self.g = g
        self.h = h
        self.t = t

    # -- construction -------------------------------------------------------

    @staticmethod
    def variables(P, order):
        """Seed one Jet per coordinate of P (B, D)."""
        P = np.asarray(P, dtype=float)
        B, D = P.shape
        out = []
        for a in range(D):
            g = np.zeros((B, D))
            g[:, a] = 1.0
            out.append(Jet(order, P[:, a].copy(), g))
        return out

    @staticmethod
    def const(v, order, like=None):
        v = np.asarray(v, dtype=float)
        if like is not None and v.ndim == 0:
            v = np.full(like.v.shape, float(v))
        return Jet(order, v)

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.const(other, self.order, like=self)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.order, self.v + o.v, _nadd(self.g, o.g),
                   _nadd(self.h, o.h), _nadd(self.t, o.t))

    __radd__ = __add__

    def __neg__(self):
        def neg(a):
            return None if a is None else -a
        return Jet(self.order, -self.v, neg(self.g), neg(self.h), neg(self.t))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        v = self.v * o.v
        g = _nadd(_nscale(o.g, self.v), _nscale(self.g, o.v))
        h = None
        t = None
        if self.order >= 2:
            h = _nadd(_nscale(o.h, self.v), _nscale(self.h, o.v))
            gg = _outer_gg(self.g, o.g)
            if gg is not None:
                sym = gg + np.swapaxes(gg, -1, -2)
                h = _nadd(h, sym)
        if self.order >= 3:
            t = _nadd(_nscale(o.t, self.v), _nscale(self.t, o.v))
            t = _nadd(t, _sym_gh(self.g, o.h))
            t = _nadd(t, _sym_gh(o.g, self.h))
        return Jet(self.order, v, g, h, t)

    __rmul__ = __mul__

    def chain(self, d0, d1, d2=None, d3=None):
        """Compose with a scalar function given its derivatives at self.v."""
        g = _nscale(self.g, d1)
        h = None
        t = None
        if self.order >= 2:
            h = _nscale(self.h, d1)
            if d2 is not None:
                h = _nadd(h, _nscale(_outer_gg(self.g, self.g), d2))
        if self.order >= 3:
            t = _nscale(self.t, d1)
            if d2 is not None:
                t = _nadd(t, _nscale(_sym_gh(self.g, self.h), d2))
            if d3 is not None:
                t = _nadd(t, _nscale(_outer_ggg(self.g), d3))
        return Jet(self.order, d0, g, h, t)

    def __truediv__(self, other):
        o = self._coerce(other)
        inv = o.chain(1.0 / o.v, -1.0 / o.v ** 2, 2.0 / o.v ** 3,
                      -6.0 / o.v ** 4)
        return self * inv

    def __rtruediv__(self, other):
        inv = self.chain(1.0 / self.v, -1.0 / self.v ** 2, 2.0 / self.v ** 3,
                         -6.0 / self.v ** 4)
        return inv * other

    def __pow__(self, k):
        if isinstance(k, int) and k >= 0:
            if k == 0:
                return Jet.const(np.ones_like(self.v), self.order)
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        v = self.v
        return self.chain(v ** k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2),
                          k * (k - 1) * (k - 2) * v ** (k - 3))


def jexp(x):
    if not isinstance(x, Jet):
        return np.exp(x)
    e = np.exp(x.v)
    return x.chain(e, e, e, e)


def jlog(x):
    if not isinstance(x, Jet):
        return np.log(x)
    v = x.v
    return x.chain(np.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)


def jsqrt(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
    s = np.sqrt(x.v)
    return x.chain(s, 0.5 / s, -0.25 / (s * x.v), 0.375 / (s * x.v ** 2))


def jsin(x):
    if not isinstance(x, Jet):
        return np.sin(x)
    s, c = np.sin(x.v), np.cos(x.v)
    return x.chain(s, c, -s, -c)


def jcos(x):
    if not isinstance(x, Jet):
        return np.cos(x)
    s, c = np.sin(x.v), np.cos(x.v)
    return x.chain(c, -s, -c, s)


def jhinge_pow(x, k=4, scale=1.0):
    """scale * max(x, 0)**k with one-sided derivatives; C3 for k >= 4."""
    if not isinstance(x, Jet):
        v = np.asarray(x, dtype=float)
        return scale * np.where(v > 0.0, v, 0.0) ** k
    v = x.v
    m = (v > 0.0).astype(float)
    vp = np.where(v > 0.0, v, 0.0)
    d0 = scale * m * vp ** k
    d1 = scale * m * k * vp ** (k - 1)
    d2 = scale * m * k * (k - 1) * vp ** (k - 2)
    d3 = scale * m * k * (k - 1) * (k - 2) * vp ** (k - 3)
    return x.chain(d0, d1, d2, d3)


# ---------------------------------------------------------------------------
# Wirtinger view of a real jet
# ---------------------------------------------------------------------------

def _pairs(D):
    n = D // 2
    ix = np.arange(0, D, 2)
    iy = np.arange(1, D, 2)
    return n, ix, iy


def holo_dir(V):
    """Derivation sum_i V_i d/dz_i as a complexified (p, q) pair."""
    V = np.asarray(V, dtype=complex)
    return (V, np.zeros_like(V))


def anti_dir(V):
    """Derivation sum_i V_i d/dz.bar_i."""
    V = np.asarray(V, dtype=complex)
    return (np.zeros_like(V), V)


def conj_dir(d):
    """Conjugate derivation: conj(D f) = (conj_dir D) f for real f."""
    p, q = d
    return (np.conj(q), np.conj(p))


def _real_coeff(d, D):
    """Real-coordinate coefficient vector of the derivation (p, q)."""
    p, q = d
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    c = np.zeros(p.shape[:-1] + (D,), dtype=complex)
    c[..., 0::2] = 0.5 * (p + q)
    c[..., 1::2] = 0.5j * (q - p)
    return c


class WirtingerJet:
    """Real derivative jets of a scalar function with complex-coordinate views.

    Batched: value (B,), rgrad (B,D), rhess (B,D,D), rthird (B,D,D,D)/None.
    """

    def __init__(self, value, rgrad, rhess=None, rthird=None):
        self.value = np.atleast_1d(np.asarray(value, dtype=float))
        self.rgrad = np.atleast_2d(np.asarray(rgrad, dtype=float))
        self.rhess = None if rhess is None else np.asarray(rhess, dtype=float)
        self.rthird = None if rthird is None else np.asarray(rthird, dtype=float)
        self.D = self.rgrad.shape[-1]
        self.n = self.D // 2

    @property
    def order(self):
        if self.rthird is not None:
            return 3
        return 2 if self.rhess is not None else 1

    @property
    def batch(self):
        return self.value.shape[0]

    def at(self, i):
        """Single-point sub-jet (int index)."""
        return self.subset(np.array([i]))

    def subset(self, idx):
        """Sub-batch selected by an index array."""
        idx = np.asarray(idx)
        return WirtingerJet(
            self.value[idx], self.rgrad[idx],
            None if self.rhess is None else self.rhess[idx],
            None if self.rthird is None else self.rthird[idx])

    # -- first order ---------------------------------------------------------

    @property
    def wgrad(self):
        """d/dz_j components, (B, n) complex."""
        _, ix, iy = _pairs(self.D)
        return 0.5 * (self.rgrad[:, ix] - 1j * self.rgrad[:, iy])

    # -- second order ---------------------------------------------------------

    def _need(self, order):
        if self.order < order:
            raise OrderTooLow(f"jet of order {self.order}, need {order}")

    @property
    def mixed(self):
        """d^2/dz_i dz.bar_j block, (B, n, n) complex Hermitian."""
        self._need(2)
        _, ix, iy = _pairs(self.D)
        H = self.rhess
        xx = H[:, ix[:, None], ix[None, :]]
        yy = H[:, iy[:, None], iy[None, :]]
        xy = H[:, ix[:, None], iy[None, :]]
        yx = H[:, iy[:, None], ix[None, :]]
        return 0.25 * ((xx + yy) + 1j * (xy - yx))

    @property
    def holo(self):
        """d^2/dz_i dz_j block, (B, n, n) complex symmetric."""
        self._need(2)
        _, ix, iy = _pairs(self.D)
        H = self.rhess
        xx = H[:, ix[:, None], ix[None, :]]
        yy = H[:, iy[:, None], iy[None, :]]
        xy = H[:, ix[:, None], iy[None, :]]
        yx = H[:, iy[:, None], ix[None, :]]
        return 0.25 * ((xx - yy) - 1j * (xy + yx))

    def _bk(self, arr):
        """Broadcast a per-point or shared vector to (batch, dim)."""
        arr = np.asarray(arr)
        if arr.ndim == 1:
            arr = np.broadcast_to(arr, (self.batch,) + arr.shape)
        return arr

    # -- third order ----------------------------------------------------------

    def third_directional(self, d1, d2, d3):
        """Contraction of the real third tensor with three derivations."""
        self._need(3)
        cs = [self._bk(_real_coeff(d, self.D)) for d in (d1, d2, d3)]
        return np.einsum("kabc,ka,kb,kc->k", self.rthird, *cs)


def third_contraction(jet: WirtingerJet, A, B, C):
    """Third derivatives contracted along A, B and against C (conjugated slot).

    With A=L, B=N, C=L this is the pure-derivative part of the criterion's
    third-order term.  Quadratic defining functions give exactly 0.
    """
    return jet.third_directional(holo_dir(A), holo_dir(B),
                                 anti_dir(np.conj(np.asarray(C, dtype=complex))))


# ---------------------------------------------------------------------------
# Domain specification and jet extraction
# ---------------------------------------------------------------------------

@dataclass
class DomainSpec:
    """A domain given by a smooth defining function on R^{2n}.

    rho maps a list of 2n coordinate scalars (Jet or ndarray, batched) to a
    scalar of the same kind; negative inside, zero on the boundary.
    """

    n: int
    rho: Callable
    box_lo: np.ndarray
    box_hi: np.ndarray
    name: str = ""
    collar_frac: float = 0.05
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.box_lo = np.asarray(self.box_lo, dtype=float)
        self.box_hi = np.asarray(self.box_hi, dtype=float)

    @property
    def dim(self):
        return 2 * self.n

    @property
    def scale(self):
        return float(np.max(self.box_hi - self.box_lo))

    @property
    def collar_width(self):
        return self.collar_frac * self.scale

    def check_box(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        pad = 1e-9 * self.scale
        if np.any(P < self.box_lo - pad) or np.any(P > self.box_hi + pad):
            raise EvaluationDomain("point outside bounding box")
        return P

    def value(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        out = self.rho(list(P.T))
        v = out.v if isinstance(out, Jet) else np.asarray(out, dtype=float)
        if not np.all(np.isfinite(v)):
            raise NonFinite("defining function returned non-finite values")
        return v

    def jet(self, P, order=2):
        """Wirtinger jet of the defining function at points P (B, 2n)."""
        P = self.check_box(P)
        xs = Jet.variables(P, order)
        out = self.rho(xs)
        if not isinstance(out, Jet):
            raise TypeError("evaluator is not jet-generic")
        B, D = P.shape
        g = out.g if out.g is not None else np.zeros((B, D))
        h = out.h if out.h is not None else np.zeros((B, D, D))
        t = out.t if out.t is not None else np.zeros((B, D, D, D))
        wj = WirtingerJet(out.v, g, h if order >= 2 else None,
                          t if order >= 3 else None)
        if not np.all(np.isfinite(wj.value)) or not np.all(np.isfinite(wj.rgrad)):
            raise NonFinite("non-finite jet")
        return wj
