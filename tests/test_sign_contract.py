"""Exact proof of the sign contract between the two curvature kernels:

    K_pipeline = -eps * K_closed,    H_pipeline = H_closed

for both factorable kinds and every second-form branch the pipeline can
take (README, "Sign conventions").  The pipeline formulas of
`curvature_arrays` are written out over the symbolic analytic jet of a
factorable surface, with W and eps as free symbols.  W = sqrt|q| and
eps = sign(q) make every identity polynomial once the denominators are
cleared, and the numerators reduce to 0 modulo W^2 - eps*q and eps^2 - 1.
The numeric checks at the end tie the written-out formulas to the code.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from pgsurf.factorable import KIND_FIRST, KIND_SECOND, closed_H, closed_K  # noqa: E402
from pgsurf.surface import curvature_arrays  # noqa: E402

fv, f1, f2, gv, g1, g2 = sp.symbols("fv f1 f2 gv g1 g2", real=True)
W, eps = sp.symbols("W eps", real=True)
PROFILE = (fv, f1, f2, gv, g1, g2)


def jet(kind):
    """The analytic jet components x1..z22 of `jet_component_arrays`."""
    graph = {"1": f1 * gv, "2": fv * g1, "11": f2 * gv, "12": f1 * g1, "22": fv * g2}
    one, zero = sp.Integer(1), sp.Integer(0)
    comp = {}
    for slot, value in graph.items():
        if kind == KIND_FIRST:   # (x, y, f(x) g(y))
            comp.update({f"x{slot}": one if slot == "1" else zero,
                         f"y{slot}": one if slot == "2" else zero, f"z{slot}": value})
        else:                    # (f(y) g(z), y, z)
            comp.update({f"x{slot}": value, f"y{slot}": one if slot == "1" else zero,
                         f"z{slot}": one if slot == "2" else zero})
    return comp


def pipeline(c, branch):
    """The formulas of `curvature_arrays` with the given second-form branch;
    returns q = Y^2 - Z^2, K, H and (L11, L12, L22)."""
    Y = c["x1"] * c["y2"] - c["x2"] * c["y1"]
    Z = c["x1"] * c["z2"] - c["x2"] * c["z1"]
    ny, nz = Z / W, Y / W
    gs, ys, zs = c[f"x{branch}"], c[f"y{branch}"], c[f"z{branch}"]

    def coeff(ij):
        t = c[f"x{ij}"] / gs
        return eps * ((c[f"y{ij}"] - t * ys) * ny - (c[f"z{ij}"] - t * zs) * nz)

    L11, L12, L22 = coeff("11"), coeff("12"), coeff("22")
    x1, x2 = c["x1"], c["x2"]
    K = -eps * (L11 * L22 - L12 * L12) / W ** 2
    H = -eps * (x2 * x2 * L11 - 2 * x1 * x2 * L12 + x1 * x1 * L22) / (2 * W ** 2)
    return sp.expand(Y * Y - Z * Z), K, H, (L11, L12, L22)


def closed(kind):
    """The closed formulas of `factorable`; |D|^(3/2) = W^3 since D = q."""
    qa, qb = (fv * g1) ** 2, (f1 * gv) ** 2
    num_k = fv * gv * f2 * g2 - (f1 * g1) ** 2
    if kind == KIND_FIRST:
        D, num_h = 1 - qa, fv * g2
    else:
        D, num_h = qa - qb, qa * f2 * gv - 2 * fv * gv * (f1 * g1) ** 2 + qb * fv * g2
    return sp.expand(D), num_k / D ** 2, num_h / (2 * W ** 3)


def vanishes(expr, q):
    """The numerator of `expr` is 0 modulo W^2 - eps*q and eps^2 - 1."""
    num = sp.expand(sp.fraction(sp.together(expr))[0])
    num = sp.rem(sp.Poly(num, W), sp.Poly(W ** 2 - eps * q, W)).as_expr()
    num = sp.rem(sp.Poly(sp.expand(num), eps), sp.Poly(eps ** 2 - 1, eps)).as_expr()
    return sp.expand(num) == 0


# the first kind has x2 = 0, so the kernel always takes branch 1 there
CASES = [(KIND_FIRST, "1"), (KIND_SECOND, "1"), (KIND_SECOND, "2")]


@pytest.mark.parametrize("kind,branch", CASES)
def test_sign_contract_is_exact(kind, branch):
    q, K, H, _ = pipeline(jet(kind), branch)
    D, K_closed, H_closed = closed(kind)
    assert sp.expand(q - D) == 0          # q = D: eps is the sign of the closed denominator
    assert vanishes(K + eps * K_closed, q)
    assert vanishes(H - H_closed, q)


def test_second_kind_branches_give_one_second_form():
    q, _, _, first = pipeline(jet(KIND_SECOND), "1")
    _, _, _, second = pipeline(jet(KIND_SECOND), "2")
    for a, b in zip(first, second):
        assert vanishes(a - b, q)


@pytest.mark.parametrize("kind", [KIND_FIRST, KIND_SECOND])
def test_written_out_formulas_are_the_kernels(kind):
    rng = np.random.default_rng(11)
    values = rng.uniform(-2.0, 2.0, size=(6, 200))
    comp = {k: sp.lambdify(PROFILE, v)(*values) + 0.0 * values[0] for k, v in jet(kind).items()}
    out = curvature_arrays(comp)
    q = sp.lambdify(PROFILE, closed(kind)[0])(*values)
    keep = np.abs(q) > 1e-3
    subs = {"W": np.sqrt(np.abs(q)), "eps": np.sign(q)}
    K_closed, _ = closed_K(kind, *values)
    H_closed, _ = closed_H(kind, *values)
    for got, closed_value, formula in ((out["K"], K_closed, pipeline(jet(kind), "1")[1]),
                                       (out["H"], H_closed, pipeline(jet(kind), "1")[2])):
        want = sp.lambdify((*PROFILE, W, eps), formula)(*values, subs["W"], subs["eps"])
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(out["K"][keep], -out["eps"][keep] * K_closed[keep], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(out["H"][keep], H_closed[keep], rtol=1e-9, atol=1e-9)
