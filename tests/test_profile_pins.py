"""Bit pins of every family profile: f, f', f'' and g, g', g'' as float.hex.

Each constructor is evaluated at five points of its domain and compared bit
for bit with the values recorded before profiles became single 2-jet
functions, so a rewrite of the evaluators that reorders an operation fails
here.  Outside the radicand of the spacelike branches the views are NaN.
"""

import warnings

import numpy as np
import pytest

from pgsurf.families import (family_surface, perturb_exponent, thm31_family, thm32_family,
                             thm42_family)

WIDE = [-2.0, -0.5, 0.0, 0.8, 2.5]
CASES = {
    "thm31+": (thm31_family(0.7, lam1=-0.3, lam2=0.4, sign=1), WIDE, WIDE),
    "thm31-": (thm31_family(-2.3, lam1=0.6, lam2=-1.1, sign=-1), WIDE, WIDE),
    "thm32 timelike": (thm32_family(0.5, lam1=0.3, lam2=-0.2, f0=1.7), WIDE, [-2.0, -0.3, 0.0, 0.65, 3.0]),
    "thm32 spacelike": (thm32_family(0.5, lam1=0.3, lam2=-0.2, f0=-0.6, causal="spacelike"), WIDE,
                        [0.75, 0.9, 1.3, 2.0, 5.0]),
    "thm42 timelike": (thm42_family(0.5), WIDE, [-1.5, -0.4, 0.0, 0.6, 1.4]),
    "thm42 spacelike": (thm42_family(-0.8, lam1=1.3, lam2=-0.7, lam3=0.2, causal="spacelike"), WIDE,
                        [-3.0, -1.5, -0.9, -0.6, -0.51]),
    "linear": (family_surface("linear"), WIDE, WIDE),
    "saddle": (family_surface("saddle"), WIDE, WIDE),
    "exp_exp": (family_surface("exp_exp"), WIDE, WIDE),
    "thm42 perturbed": (perturb_exponent(thm42_family(0.5), 1.01), WIDE, [-1.5, -0.4, 0.0, 0.6, 1.4]),
}

PINS = {
    'thm31+': (
        ('-0x1.ec977f331c80fp-1', '-0x1.3b53cfd8366aap-1', '-0x1.2a4dda7d914fap-2', '0x1.69e2af87d6eedp-2', '0x1.e45184bec709ep-1'),
        ('0x1.fdc51e23a4adcp-5', '0x1.09e3945fef664p-1', '0x1.88046491a1d69p-1', '0x1.76de7661f9394p-1', '0x1.688b2f5d183f7p-4'),
        ('0x1.9a5639e7edc3cp-4', '0x1.120350e936ed2p-1', '0x1.7e2f4d1b2572fp-2', '-0x1.bb5d019a0e946p-2', '-0x1.1d57ee78d3c9ap-3'),
        ('-0x1.999999999999ap+0', '-0x1.9999999999998p-4', '0x1.999999999999ap-2', '0x1.3333333333334p+0', '0x1.7333333333333p+1'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ),
    'thm31-': (
        ('0x1.f82c72d604d2ep-1', '0x1.417e0c3335659p-3', '-0x1.12f8292d2ccfbp-1', '-0x1.e57580b12cdf6p-1', '-0x1.ffd7cf562c79dp-1'),
        ('-0x1.78ea029db9a40p-5', '-0x1.7aad0f23742c8p+0', '-0x1.1443e70415aadp+0', '-0x1.39aa4bcaf1614p-3', '-0x1.e7891b5cc40a1p-11'),
        ('-0x1.1970bf7b1747bp-3', '-0x1.689b0672ea07fp-1', '0x1.c205d76ea08e3p+0', '0x1.c309a8bd29c51p-2', '0x1.71942bf6066c2p-9'),
        ('-0x1.8cccccccccccdp+1', '-0x1.999999999999ap+0', '-0x1.199999999999ap+0', '-0x1.3333333333334p-2', '0x1.6666666666666p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ),
    'thm32 timelike': (
        ('0x1.b333333333333p+0', '0x1.b333333333333p+0', '0x1.b333333333333p+0', '0x1.b333333333333p+0', '0x1.b333333333333p+0'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.0ae386f6d1e55p+0', '0x1.e1e1e1e1e1e1fp-2', '0x1.fc67832786bb4p-2', '0x1.632e4c4fd73e4p-1', '0x1.e9238e2e7e733p+0'),
        ('-0x1.0398245c01d24p-1', '0x0.0p+0', '0x1.5a2b70ac9f445p-3', '0x1.9edec9a115cedp-2', '0x1.203bb51e40f2ap-1'),
        ('0x1.3a0a8be9ac082p-4', '0x1.2d2d2d2d2d2d3p-1', '0x1.08a7dd946a1b3p-1', '0x1.cb1602f8af43ap-3', '0x1.d6242004e0654p-7'),
    ),
    'thm32 spacelike': (
        ('-0x1.3333333333333p-1', '-0x1.3333333333333p-1', '-0x1.3333333333333p-1', '-0x1.3333333333333p-1', '-0x1.3333333333333p-1'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('-0x1.9a22199aaa804p-3', '-0x1.8b5ee1aa73ef0p-1', '-0x1.bf92bac791a10p+0', '-0x1.8f3230cc8bca9p+1', '-0x1.0aec47021bbf1p+3'),
        ('-0x1.5dd448324adf9p+2', '-0x1.81ef3cc5ac230p+1', '-0x1.11490ed3bea59p+1', '-0x1.d9cacd7cd7ee8p+0', '-0x1.b27864ce899cbp+0'),
        ('0x1.964e43cbce306p+5', '0x1.6d77e246d37e4p+2', '0x1.b5f5147ab8165p-1', '0x1.8024925e6c654p-3', '0x1.835567157df7ep-7'),
    ),
    'thm42 timelike': (
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.8440eb9789be1p+2', '0x1.77cd63fa92caep+1', '0x1.5bf0a8b145769p+1', '0x1.9ad8ce8aeccffp+1', '0x1.659379a71fb45p+2'),
        ('-0x1.430be8985def4p+2', '-0x1.172391f3b2266p+0', '0x0.0p+0', '0x1.a6c20a957e36ap+0', '0x1.22f8bc23333f1p+2'),
        ('0x1.4f0e912c44ae2p+2', '0x1.60a18e60566d1p+1', '0x1.5bf0a8b145769p+1', '0x1.6fcbe550b06a2p+1', '0x1.32fd0ec1c866fp+2'),
    ),
    'thm42 spacelike': (
        ('0x1.516483dfcf55dp+2', '0x1.d844039da13b3p+0', '0x1.4cccccccccccdp+0', '0x1.7c325e65dd521p-1', '0x1.cea7df09c5d63p-3'),
        ('-0x1.d859856c88ab4p+1', '-0x1.4a960287f0dc9p+0', '-0x1.d1eb851eb851ep-1', '-0x1.0a2342141aecap-1', '-0x1.43dbe8ed3daf8p-3'),
        ('0x1.4aa51098c6117p+1', '0x1.ced2038b1e019p-1', '0x1.4624dd2f1a9fbp-1', '0x1.7497c2e8f27e6p-2', '0x1.c56712e5bcc27p-4'),
        ('0x1.10e1ca0b517e4p+3', '0x1.6dc78307bac49p+1', '0x1.c41497d723e11p+0', '0x1.4b15a6f2e8b4ep+0', '0x1.14ed314f83194p+0'),
        ('-0x1.85e9a16f869cfp+2', '-0x1.1561f690873b7p+1', '-0x1.8f44e11022639p+0', '-0x1.c94ea9e3f59d4p+0', '-0x1.1226db189ce43p+2'),
        ('0x1.115e421306f14p+2', '0x1.696d60036e20cp+0', '0x1.e852cedb0e403p-2', '-0x1.2a5f56d21a412p+2', '-0x1.8058333a1066ap+7'),
    ),
    'linear': (
        ('0x1.0000000000000p+1', '0x1.0000000000000p+1', '0x1.0000000000000p+1', '0x1.0000000000000p+1', '0x1.0000000000000p+1'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.0000000000000p+0', '0x1.4000000000000p+1', '0x1.8000000000000p+1', '0x1.e666666666666p+1', '0x1.6000000000000p+2'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ),
    'saddle': (
        ('-0x1.0000000000000p+1', '-0x1.0000000000000p-1', '0x0.0p+0', '0x1.999999999999ap-1', '0x1.4000000000000p+1'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('-0x1.0000000000000p+1', '-0x1.0000000000000p-1', '0x0.0p+0', '0x1.999999999999ap-1', '0x1.4000000000000p+1'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ),
    'exp_exp': (
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
    ),
    'thm42 perturbed': (
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.152aaa3bf81ccp-3', '0x1.368b2fc6f960ap-1', '0x1.0000000000000p+0', '0x1.1cde866fe46e9p+1', '0x1.85d6fd931e0bbp+3'),
        ('0x1.8b51001f6e1d1p+2', '0x1.7bdf2780be34fp+1', '0x1.5f6fdaa3ae580p+1', '0x1.9faa8c6b814fep+1', '0x1.6bc801798218fp+2'),
        ('-0x1.4c365d8eb353ep+2', '-0x1.1cfbb4e09cdc8p+0', '0x0.0p+0', '0x1.affe81b07302ep+0', '0x1.2afb306bfe392p+2'),
        ('0x1.5b53e3e722cd5p+2', '0x1.688b12b2d685ep+1', '0x1.62f3885884914p+1', '0x1.78f174a5ef62dp+1', '0x1.3ddf34e513960p+2'),
    ),
}


@pytest.mark.parametrize("label", list(PINS))
def test_profile_values_keep_their_bits(label):
    s, p1, p2 = CASES[label]
    a1, a2 = np.array(p1), np.array(p2)
    values = [s.f(a1), s.f.deriv(a1), s.f.deriv2(a1), s.g(a2), s.g.deriv(a2), s.g.deriv2(a2)]
    got = tuple(tuple(float(v).hex() for v in np.broadcast_to(c, a1.shape)) for c in values)
    assert got == PINS[label]


@pytest.mark.parametrize("label, t", [("thm32 spacelike", 0.5), ("thm42 spacelike", 0.0)])
def test_profiles_are_nan_outside_the_radicand(label, t):
    """Where w^2 - 1 <= 0 every view of g is NaN, with no error and no
    floating-point warning."""
    g = CASES[label][0].g
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for view in (g, g.deriv, g.deriv2):
            assert np.isnan(view(np.array([t]))).all()
