"""Feature-extraction head: shallow convs, spatial attention, and the
reference-feature correction (SAR).

The shallow conv stack is shared across the three exposure streams; the two
attention submodules (short and long exposure vs reference) have independent
weights. With ``sar=False`` the reference feature bypasses the gating.
"""
from __future__ import annotations

from . import tensor as tc


def extract_shallow(x, p):
    """Three stacked conv3x3 + LeakyReLU layers, 6 -> C -> C -> C."""
    for i in range(3):
        x = tc.leaky_relu(tc.conv2d(x, p[f"head.shallow.{i}.w"],
                                    p[f"head.shallow.{i}.b"]))
    return x


def spatial_attention(f_i, f_ref, p, which):
    """Per-pixel sigmoid gate from a (non-reference, reference) feature pair."""
    if f_i.shape != f_ref.shape:
        raise tc.ShapeError(
            f"attention inputs must match: {f_i.shape} vs {f_ref.shape}")
    z = tc.concat([f_i, f_ref], axis=3)
    a = tc.leaky_relu(tc.conv2d(z, p[f"head.att{which}.conv1.w"],
                                p[f"head.att{which}.conv1.b"]))
    return tc.sigmoid(tc.conv2d(a, p[f"head.att{which}.conv2.w"],
                                p[f"head.att{which}.conv2.b"]))


def sar(f_ref, m_short, m_long):
    """Average of the reference feature gated by both non-reference maps."""
    s = tc.add(tc.mul(f_ref, m_short), tc.mul(f_ref, m_long))
    return tc.mul(s, s.data.dtype.type(0.5))


def head_forward(inputs, p, cfg):
    """Full head: three 6-channel streams -> B x H x W x 4C initial feature."""
    # f1's shallow convs go on the tape before f2's, so the shared weights'
    # gradients sum in reverse stream order; another order rounds differently
    f1 = extract_shallow(inputs[0], p)
    f2 = extract_shallow(inputs[1], p)
    m1 = spatial_attention(f1, f2, p, 1)
    fm1 = tc.mul(f1, m1)
    del f1
    f3 = extract_shallow(inputs[2], p)
    m3 = spatial_attention(f3, f2, p, 3)
    fm3 = tc.mul(f3, m3)
    del f3
    fm2 = sar(f2, m1, m3) if cfg.sar else f2
    del m1, m3
    return tc.concat([fm1, fm2, fm3, f2], axis=3)
