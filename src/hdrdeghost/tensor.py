"""Dense float tensors with a recording tape for reverse-mode gradients.

Canonical image layout is batch x height x width x channels (BHWC). All
kernels are pure: the same inputs always produce bit-identical outputs.
Every kernel checks its own output: a non-finite value raises
FloatingPointError naming the kernel and the first named tensor (a
parameter, taped or not) among its inputs.
"""
from __future__ import annotations

import weakref

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}

# working bytes per chunk of conv2d, deformable_conv2d and window_attention:
# an untaped call's temporaries stay this size whatever the image size
CHUNK_BYTES = 1 << 18


class ShapeError(ValueError):
    """Raised when tensor dimensions do not match a kernel's contract."""


class Tape:
    """Single-use record of a forward computation.

    Each leaf, and each kernel with a taped input, appends one ``Node`` to
    ``nodes``: its vjp, its parents' nodes and its output's shape, not the
    output itself. ``backward`` consumes the nodes in reverse order, freeing
    each one's vjp as it goes, and leaves the tape empty. Kernels whose
    inputs are all untaped record nothing and keep no graph.
    """

    def __init__(self):
        self.nodes = []


class Node:
    """One kernel's (or leaf's) record on a tape.

    ``parents`` holds one node per kernel input, None for an untaped one; a
    leaf's node has no vjp and no parents. The output array is held weakly:
    it lives only while forward code or a vjp closure that reads its values
    holds it. A node refers to no tensor.
    """
    __slots__ = ("vjp", "parents", "shape", "out")

    def __init__(self, data):
        self.vjp, self.parents = None, ()  # a kernel's node gets both in _make
        self.shape = data.shape
        self.out = weakref.ref(data)

    @property
    def data(self):
        """The output while it lives; an empty array once it is freed."""
        data = self.out()
        return np.empty(0) if data is None else data


class Tensor:
    """Immutable dense float array and, when taped, its node on the tape.

    ``Tensor(data, tape)`` is a leaf of ``tape``, ``Tensor(data)`` untaped;
    ``_make`` gives a kernel's taped output's node its vjp and parents."""

    def __init__(self, data, tape=None, name=None):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.tape = tape
        self.name = name
        self.node = None
        if tape is not None:
            self.node = Node(self.data)
            tape.nodes.append(self.node)

    @property
    def vjp(self):
        """The node's vjp, None untaped; assignable, so a profiler can wrap it."""
        return None if self.node is None else self.node.vjp

    @vjp.setter
    def vjp(self, fn):
        self.node.vjp = fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def _data(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _tape(*xs):
    for x in xs:
        if isinstance(x, Tensor) and x.tape is not None:
            return x.tape
    return None


def _make(data, parents, vjp):
    # min and max propagate NaN and, unlike an isfinite mask, allocate nothing
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        kernel = vjp.__qualname__.split(".")[0]  # vjps are local to their kernel
        leaf = next((p.name for p in parents if getattr(p, "name", None)), None)
        where = f" ({leaf})" if leaf else ""
        raise FloatingPointError(f"non-finite values in {kernel} output{where}")
    out = Tensor(data, _tape(*parents))
    if out.node is not None:
        # one parent node per vjp output; a raw array or untaped input has None
        out.node.vjp = vjp
        out.node.parents = tuple(getattr(p, "node", None) for p in parents)
    return out


def backward(loss, leaves):
    """Gradients of a scalar loss w.r.t. ``leaves`` (a list or dict view of
    leaf tensors), as a list in their order; a leaf the loss does not reach
    gets zeros of its shape and dtype.

    Consumes the tape: nodes are popped in reverse recording order, and each
    node's vjp, parents and gradient are dropped once its vjp has run, so
    the graph is freed as backward proceeds. A second call on the same tape,
    or an entry of ``leaves`` that is not a leaf of it, raises ValueError.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.tape is None:
        raise ValueError("loss is not recorded on a tape")
    nodes = loss.tape.nodes
    if not nodes:
        raise ValueError("tape already consumed by an earlier backward")
    if any(getattr(t, "tape", None) is not loss.tape or t.node.vjp for t in leaves):
        raise ValueError("backward's leaves must be leaves of the loss's tape")
    grads = {loss.node: np.ones_like(loss.data)}
    while nodes:
        n = nodes.pop()
        vjp, parents = n.vjp, n.parents
        if vjp is None:
            continue
        n.vjp, n.parents = None, ()
        g = grads.pop(n, None)
        if g is None:
            continue
        for p, pg in zip(parents, vjp(g)):
            if pg is None or p is None:
                continue
            if pg.shape != p.shape:
                raise ShapeError(
                    f"gradient shape {pg.shape} != tensor shape {p.shape}")
            if p in grads:
                grads[p] = grads[p] + pg
            else:
                grads[p] = pg
    return [grads.get(t.node, np.zeros_like(t.data)) for t in leaves]


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back down to the original shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _chunks(n, row_bytes):
    """Spans (lo, hi) of range(n), of one row or more and at most CHUNK_BYTES
    of ``row_bytes`` rows, and the rows of one span's reused buffer."""
    step = max(1, CHUNK_BYTES // max(1, row_bytes))
    spans = [(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)]
    return spans[0][1], spans


def _check_broadcast(a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}") from None


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b):
    ad, bd = _data(a), _data(b)
    _check_broadcast(ad, bd)
    sa, sb = ad.shape, bd.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(ad + bd, (a, b), vjp)


def mul(a, b):
    ad, bd = _data(a), _data(b)
    _check_broadcast(ad, bd)

    def vjp(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _make(ad * bd, (a, b), vjp)


def mul_scalar(x, c):
    c = float(c)
    return _make(_data(x) * c, (x,), lambda g: (g * c,))


def sigmoid(x):
    xd = _data(x)
    e = np.exp(-np.abs(xd))  # never overflows: 1 / (1 + e) or e / (1 + e)
    y = np.where(xd >= 0, 1.0, e)
    e += 1.0
    y /= e
    return _make(y, (x,), lambda g: (g * y * (1.0 - y),))


def leaky_relu(x):
    xd = _data(x)
    one, slope = xd.dtype.type(1), xd.dtype.type(0.01)
    y = np.where(xd >= 0, one, slope)
    y *= xd
    # the vjp reads y, which its consumer keeps anyway: y >= 0 is x >= 0 but
    # where 0.01 * x underflowed to -0.0, listed when taped
    under = np.flatnonzero((y == 0) & (xd < 0)) if _tape(x) is not None else None

    def vjp(g):
        gx = np.where(y >= 0, one, slope)
        gx.flat[under] = slope
        gx *= g
        return (gx,)

    return _make(y, (x,), vjp)


# ---------------------------------------------------------------------------
# reductions

def sum_(x):
    xd = _data(x)
    shape = xd.shape
    return _make(xd.sum(), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def global_avg_pool(x):
    """Mean over the spatial axes of a BHWC tensor, returning B x C."""
    xd = _data(x)
    if xd.ndim != 4:
        raise ShapeError(f"global_avg_pool expects BHWC, got ndim {xd.ndim}")
    shape = xd.shape
    _, h, w, _ = shape

    def vjp(g):
        return (np.broadcast_to(g[:, None, None, :] / (h * w), shape).copy(),)

    return _make(xd.mean(axis=(1, 2)), (x,), vjp)


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(x, shape):
    xd = _data(x)
    old = xd.shape
    return _make(xd.reshape(shape), (x,), lambda g: (g.reshape(old),))


def concat(xs, axis):
    datas = [_data(x) for x in xs]
    sizes = [d.shape[axis] for d in datas]
    offs = np.cumsum([0] + sizes).tolist()

    def vjp(g):
        return tuple(np.take(g, range(lo, hi), axis=axis)
                     for lo, hi in zip(offs, offs[1:]))

    return _make(np.concatenate(datas, axis=axis), tuple(xs), vjp)


def take(x, idx):
    """Rows ``idx`` of axis 1 of a B x N x D tensor; rows may repeat."""
    xd = _data(x)
    if xd.ndim != 3:
        raise ShapeError(f"take expects B x N x D, got ndim {xd.ndim}")
    shape, dtype = xd.shape, xd.dtype

    def vjp(g):
        # one assignment for each row's first occurrence; only the repeats
        # (a padded grid's reflected copies) go through np.add.at
        gx = np.zeros(shape, dtype)
        rows, first = np.unique(idx, return_index=True)
        gx[:, rows] = g[:, first]
        rest = np.delete(np.arange(len(idx)), first)
        np.add.at(gx, (slice(None), idx[rest]), g[:, rest])
        return (gx,)

    return _make(np.take(xd, idx, axis=1), (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra

def linear(x, w, b):
    """Affine map on the last axis: x @ w + b."""
    xd, wd = _data(x), _data(w)
    if xd.shape[-1] != wd.shape[0]:
        raise ShapeError(
            f"linear input dim {xd.shape[-1]} != weight rows {wd.shape[0]}")

    def vjp(g):
        gx = g @ wd.T
        gw = xd.reshape(-1, wd.shape[0]).T @ g.reshape(-1, wd.shape[1])
        return (gx, gw, g.reshape(-1, wd.shape[1]).sum(axis=0))

    return _make(xd @ wd + _data(b), (x, w, b), vjp)


def layer_norm(x, gamma, beta):
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    xd, gd, bd = _data(x), _data(gamma), _data(beta)
    if gd.shape != (xd.shape[-1],) or bd.shape != (xd.shape[-1],):
        raise ShapeError(
            f"layer_norm affine params must have shape ({xd.shape[-1]},)")
    mu = xd.mean(axis=-1, keepdims=True)
    out = xd - mu  # xc, then xc * inv, gd * (xc * inv) and its sum with bd
    var = (out * out).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    out *= inv
    out *= gd
    out += bd
    n = xd.shape[-1]
    lead = tuple(range(xd.ndim - 1))

    def vjp(g):  # keeps the row statistics, not xhat: the same ops rebuild it
        xhat = (xd - mu) * inv
        gxhat = g * gd
        gx = inv * (gxhat
                    - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True) / n)
        ggamma = (g * xhat).sum(axis=lead)
        gbeta = g.sum(axis=lead)
        return (gx, ggamma, gbeta)

    return _make(out, (x, gamma, beta), vjp)


def window_attention(q, k, v, heads):
    """Multi-head scaled dot-product attention over the token axis of
    windows x tokens x D inputs. Heads are split from and merged back into
    the last axis. Taped or not, one reused buffer holds a span of windows'
    probabilities; the backward keeps only q, k and v and recomputes them."""
    qd, kd, vd = _data(q), _data(k), _data(v)
    if qd.ndim != 3 or not qd.shape == kd.shape == vd.shape:
        raise ShapeError(f"window_attention needs three equal windows x tokens"
                         f" x D shapes, got {qd.shape}, {kd.shape}, {vd.shape}")
    bw, t, d = qd.shape
    if d % heads:
        raise ShapeError(f"window_attention dim {d} not divisible by {heads} heads")
    hd = d // heads
    scale = float(1.0 / np.sqrt(hd))  # an np.float64 would promote f32 math

    def split(x):
        return np.transpose(x.reshape(len(x), t, heads, hd), (0, 2, 1, 3))

    def merge(x):
        return np.transpose(x, (0, 2, 1, 3)).reshape(len(x), t, d)

    qh, kh, vh = split(qd), split(kd), split(vd)
    rows, spans = _chunks(bw, heads * t * t * qd.itemsize)
    pt = np.result_type(qd, kd)

    def probs(lo, hi, buf):
        """Windows lo..hi's probabilities, computed in place in buf."""
        y = buf[:hi - lo]  # scores, then probabilities
        np.matmul(qh[lo:hi], np.swapaxes(kh[lo:hi], -1, -2), out=y)
        y *= scale
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        return y

    buf = np.empty((rows, heads, t, t), pt)
    out = np.empty(qd.shape, np.result_type(pt, vd))
    for lo, hi in spans:
        out[lo:hi] = merge(probs(lo, hi, buf) @ vh[lo:hi])

    def vjp(g):
        buf = np.empty((rows, heads, t, t), pt)
        gq, gk, gv = (np.empty(qd.shape, np.result_type(pt, vd, g)) for _ in "qkv")
        for lo, hi in spans:
            y, go = probs(lo, hi, buf), split(g[lo:hi])
            # y * (gs - rowsum(gs * y)) * scale, in place, in the same order
            gs = go @ np.swapaxes(vh[lo:hi], -1, -2)
            gs -= (gs * y).sum(axis=-1, keepdims=True)
            gs *= y
            gs *= scale
            split(gq)[lo:hi] = gs @ kh[lo:hi]
            split(gk)[lo:hi] = np.swapaxes(np.swapaxes(qh[lo:hi], -1, -2) @ gs, -1, -2)
            split(gv)[lo:hi] = np.swapaxes(y, -1, -2) @ go
        return gq, gk, gv

    return _make(out, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# convolutions

def conv2d(x, w, b, dilation=1):
    """Same-size, stride-1 2-D cross-correlation on BHWC input with a
    k x k x Cin x Cout kernel, zero-padded by dilation * (k - 1) / 2."""
    xd, wd = _data(x), _data(w)
    if xd.ndim != 4:
        raise ShapeError(f"conv2d input must be BHWC, got ndim {xd.ndim}")
    if wd.ndim != 4 or wd.shape[0] != wd.shape[1]:
        raise ShapeError(f"conv2d kernel must be k x k x Cin x Cout, got {wd.shape}")
    k = wd.shape[0]
    if k % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got {k}")
    if xd.shape[3] != wd.shape[2]:
        raise ShapeError(
            f"input channels {xd.shape[3]} != kernel Cin {wd.shape[2]}")
    bsz, h, wdt, cin = xd.shape
    cout = wd.shape[3]
    if _data(b).shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},)")

    p = dilation * (k - 1) // 2
    w2, bd = wd.reshape(k * k * cin, cout), _data(b)

    def patches(src):
        """(lo, hi, im2col patches of src's output rows lo..hi) over spans of at
        most CHUNK_BYTES, each one strided copy into one reused buffer."""
        c = src.shape[3]
        rows, spans = _chunks(h, bsz * wdt * k * k * c * src.itemsize)
        buf = np.empty((bsz, rows, wdt, k, k, c), src.dtype)
        for lo, hi in spans:
            top, end, span = max(lo - p, 0), min(hi + p, h), buf[:, :hi - lo]
            xp = np.zeros((bsz, hi - lo + 2 * p, wdt + 2 * p, c), src.dtype)
            xp[:, top - lo + p:end - lo + p, p:p + wdt] = src[:, top:end]
            win = np.lib.stride_tricks.sliding_window_view(xp, (2 * p + 1,) * 2, (1, 2))
            span[...] = win[..., ::dilation, ::dilation].transpose(0, 1, 2, 4, 5, 3)
            yield lo, hi, span.reshape(bsz, hi - lo, wdt, -1)

    def correlate(src, wmat, bias=0):
        """src correlated with the (k*k*C) x Cout matrix wmat, plus bias."""
        out = np.empty((bsz, h, wdt, wmat.shape[1]), np.result_type(src, wmat, bias))
        for lo, hi, span in patches(src):
            out[:, lo:hi] = span @ wmat + bias
        return out

    def vjp(g):
        # gx: g correlated with the flipped kernel, Cin and Cout swapped
        gx = correlate(g, wd[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, cin))
        gw = np.zeros(w2.shape, np.result_type(xd, g))
        for lo, hi, span in patches(xd):
            gw += span.reshape(-1, len(w2)).T @ g[:, lo:hi].reshape(-1, cout)
        return gx, gw.reshape(wd.shape), g.sum(axis=(0, 1, 2))

    return _make(correlate(xd, w2, bd), (x, w, b), vjp)


def _lerp_rows(xf, i, t):
    """Rows i of xf lerped toward rows i + 1 by t: (lerp, right - left).
    np.take copies each narrow row as one block, where xf[i] runs numpy's
    general fancy-index loop."""
    left, d = np.take(xf, i, axis=0), np.take(xf, i + 1, axis=0)
    d -= left
    left += t[:, None] * d
    return left, d


def deformable_conv2d(x, w, b, offsets):
    """Convolution whose taps sample at learned continuous offsets.

    Each kernel tap samples the zero-padded input at
    (base position + tap offset + learned offset) via bilinear
    interpolation; coordinates are clamped to the padded image bounds so
    zero offsets reproduce conv2d exactly.

    offsets: B x H x W x (2*k*k), ordered (dy, dx) per tap, row-major taps.
    """
    xd, wd, od = _data(x), _data(w), _data(offsets)
    k = wd.shape[0]
    if xd.ndim != 4:
        raise ShapeError(f"deformable_conv2d input must be BHWC, got ndim {xd.ndim}")
    if xd.shape[3] != wd.shape[2]:
        raise ShapeError(
            f"input channels {xd.shape[3]} != kernel Cin {wd.shape[2]}")
    if od.shape != (xd.shape[0], xd.shape[1], xd.shape[2], 2 * k * k):
        raise ShapeError(
            f"offset field must be B x H x W x {2 * k * k}, got {od.shape}")
    bsz, h, wdt, cin = xd.shape
    cout = wd.shape[3]
    w2, bd = wd.reshape(k * k * cin, cout), _data(b)

    p = (k - 1) // 2
    hp, wp = h + 2 * p, wdt + 2 * p
    offs = od.reshape(-1, k, k, 2)
    dt = xd.dtype

    def padded():  # the vjp keeps xd and pads it again
        """The padded input as (B*hp*wp) x Cin rows: a sample's four corners
        are rows i00, i00 + 1, i00 + wp and i00 + wp + 1."""
        return np.pad(xd, ((0, 0), (p, p), (p, p), (0, 0))).reshape(-1, cin)

    def coords(lo, hi):
        """The samples of flat output pixels lo..hi: corner row i00, the
        bilinear weights wy, wx and the in-bounds masks my, mx."""
        taps = np.arange(k, dtype=dt)
        bi, yx = np.divmod(np.arange(lo, hi), h * wdt)
        ys, xs = (a.astype(dt)[:, None, None] for a in np.divmod(yx, wdt))
        py_raw = (ys + taps[:, None] + offs[lo:hi, ..., 0]).reshape(-1)
        px_raw = (xs + taps + offs[lo:hi, ..., 1]).reshape(-1)
        my = (py_raw > 0) & (py_raw < hp - 1)
        mx = (px_raw > 0) & (px_raw < wp - 1)
        py = np.clip(py_raw, 0.0, hp - 1.0)
        px = np.clip(px_raw, 0.0, wp - 1.0)
        with np.errstate(invalid="ignore"):  # NaN coordinates give NaN samples
            y0 = np.clip(np.floor(py).astype(np.int64), 0, hp - 2)
            x0 = np.clip(np.floor(px).astype(np.int64), 0, wp - 2)
        # int64 corners would promote the weights (and all that follows) to f64
        wy = (py - y0).astype(dt, copy=False)
        wx = (px - x0).astype(dt, copy=False)
        i00 = (np.repeat(bi * hp, k * k) + y0) * wp + x0
        return i00, wy, wx, my, mx

    def sample(xf, i00, wy, wx):
        """(pixels) x (k*k*Cin) bilinear samples of padded rows xf, two lerps
        along x and one along y, with dv/dy and both corner rows' x-steps."""
        top, dx0 = _lerp_rows(xf, i00, wx)
        dvdy, dx1 = _lerp_rows(xf, i00 + wp, wx)
        dvdy -= top
        top += wy[:, None] * dvdy
        return top.reshape(-1, k * k * cin), dvdy, dx0, dx1

    xf = padded()
    out = np.empty((bsz * h * wdt, cout), np.result_type(xd, wd, bd))
    spans = _chunks(len(out), k * k * cin * xd.itemsize)[1]
    for lo, hi in spans:
        out[lo:hi] = sample(xf, *coords(lo, hi)[:3])[0] @ w2 + bd

    def vjp(g):
        # per forward span: coordinates, samples and GEMMs again (kept, they would
        # hold sample-sized arrays), one bincount per corner for all channels
        g2, xf = g.reshape(-1, cout), padded()
        gxp = np.zeros((cin, bsz * hp * wp))
        gw = np.zeros(w2.shape, np.result_type(xd, g))
        goff = np.empty((len(g2) * k * k, 2), np.result_type(g, wd, xd))
        for lo, hi in spans:
            i00, wy, wx, my, mx = coords(lo, hi)
            s, dvdy, dx0, dx1 = sample(xf, i00, wy, wx)
            gw += s.T @ g2[lo:hi]
            gs = (g2[lo:hi] @ w2.T).reshape(-1, cin)
            gpy, gpx = goff[lo * k * k:hi * k * k].T
            gpy[...] = (gs * dvdy).sum(axis=-1) * my
            a0 = (gs * dx0).sum(axis=-1)  # dv/dx is dx0 lerped toward dx1 by wy
            gpx[...] = (a0 + wy * ((gs * dx1).sum(axis=-1) - a0)) * mx
            del s, dvdy, dx0, dx1  # each span's arrays go before the next's
            base, m = i00.min(), np.ptp(i00) + 1  # channel c: bins c*m..c*m+m-1
            i = (np.arange(cin)[:, None] * m + (i00 - base)).reshape(-1)
            gs = np.ascontiguousarray(gs.T)
            for d, cw in ((base, (1 - wy) * (1 - wx)), (base + 1, (1 - wy) * wx),
                          (base + wp, wy * (1 - wx)), (base + wp + 1, wy * wx)):
                gxp[:, d:d + m] += np.bincount(i, (gs * cw).ravel()).reshape(cin, m)
            del gs, i
        del xf
        gx = gxp.reshape(cin, bsz, hp, wp)[:, :, p:p + h, p:p + wdt]
        return (gx.transpose(1, 2, 3, 0).astype(dt, order="C"), gw.reshape(wd.shape),
                g.sum(axis=(0, 1, 2)), goff.reshape(bsz, h, wdt, -1))

    return _make(out.reshape(bsz, h, wdt, cout), (x, w, b, offsets), vjp)

