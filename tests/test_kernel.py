"""The energy/gradient/Hessian kernel against the (N, N, d, d) kernel it
replaced, bit for bit, and against finite differences of itself."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ioncrystal as ic
from ioncrystal import crystal
from ioncrystal.constants import ELEMENTARY_CHARGE, K_COULOMB


# The kernel as it stood before the axis-plane layout, kept verbatim as the
# reference for bit identity.
def _reference_pair_geometry(pos):
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return diff, dist


def _reference_evaluate(pos, k2, kq):
    grad = k2 * pos
    energy = 0.5 * (grad * pos).sum()
    per_ion = np.abs(grad).sum(axis=1)
    diff, dist = _reference_pair_geometry(pos)
    qq_r = kq / dist
    energy += 0.5 * qq_r.sum()
    qq_r2 = qq_r / dist
    per_ion += qq_r2.sum(axis=1)
    c3 = qq_r2 / dist
    grad -= (c3[:, :, None] * diff).sum(axis=1)
    return float(energy), grad, float(per_ion.max()), (diff, dist, c3)


def _reference_hessian(geometry, k2):
    diff, dist, c3 = geometry
    n, d = k2.shape
    unit = diff / dist[:, :, None]
    blocks = c3[:, :, None, None] * (
        3.0 * unit[:, :, :, None] * unit[:, :, None, :] - np.eye(d)
    )
    H = np.zeros((n, d, n, d))
    H -= blocks.transpose(0, 2, 1, 3)
    idx = np.arange(n)
    H[idx, :, idx, :] += blocks.sum(axis=1) + k2[:, :, None] * np.eye(d)
    return H.reshape(d * n, d * n)


_SHAPES = ("axial", "linear", "planar", "mixed", "general")


def _kernel_case(rng, n, shape, si):
    """Positions (N, d), spring constants and Coulomb prefactors of one
    case: a chain of n ions of charges 1-3 in solve units or SI, with
    spring constants of either sign. 'axial' is d = 1; 'linear' puts
    every ion on the axis (x = y = +0.0 or -0.0), 'planar' holds y at
    +-0.0, 'mixed' puts some ions on the axis and 'general' none."""
    q = rng.integers(1, 4, n).astype(float)
    kq = np.outer(q, q)
    z = (np.arange(n) - 0.5 * (n - 1) + rng.uniform(-0.3, 0.3, n)) * rng.uniform(0.5, 2.0)
    if rng.random() < 0.25:
        z = rng.permutation(z)
    pos = np.empty((n, 3))
    pos[:, 2] = z
    pos[:, :2] = rng.normal(0.0, rng.uniform(0.05, 2.0), (n, 2))
    zeros = rng.choice([0.0, -0.0], (n, 2))
    if shape == "linear":
        pos[:, :2] = zeros
    elif shape == "planar":
        pos[:, 1] = zeros[:, 1]
    elif shape == "mixed":
        on_axis = rng.random(n) < 0.5
        pos[on_axis, :2] = zeros[on_axis]
    k2 = rng.uniform(-0.5, 2.0, (n, 3)) * rng.choice([1.0, 0.01, 100.0], 3)
    if shape == "axial":
        pos, k2 = pos[:, 2:], k2[:, 2:]
    if si:
        length = 1e-5 * rng.uniform(0.5, 2.0)
        kq = kq * (K_COULOMB * ELEMENTARY_CHARGE**2)
        pos = pos * length
        k2 = k2 * (K_COULOMB * ELEMENTARY_CHARGE**2 / length**3)
    return pos, k2, kq


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_kernel_matches_the_reference_bit_for_bit():
    # energy, force scale, gradient and Hessian of the axis-plane kernel are
    # the reference kernel's bytes on 1000 seeded cases, 2-100 ions, d = 1
    # and 3, linear chains with signed zeros, planar crystals, negative
    # spring constants, solve units and SI
    rng = np.random.default_rng(20130)
    sizes = np.exp(rng.uniform(np.log(2.0), np.log(101.0), 1000)).astype(int)
    sizes[:10] = [2, 2, 3, 3, 100, 100, 100, 100, 100, 100]
    seen = set()
    for k, n in enumerate(sizes):
        shape = _SHAPES[k % len(_SHAPES)]
        si = k % 7 == 3
        pos, k2, kq = _kernel_case(rng, int(n), shape, si)
        seen.add((shape, n == 100, bool((k2 < 0.0).any())))
        e, g, scale, geometry = crystal._evaluate(pos, k2, kq)
        e_r, g_r, scale_r, geometry_r = _reference_evaluate(pos, k2, kq)
        case = (k, int(n), shape, si)
        assert _bits(e) == _bits(e_r), case
        assert _bits(scale) == _bits(scale_r), case
        assert g.shape == g_r.shape and _bits(g) == _bits(g_r), case
        H = crystal._hessian(geometry, k2)
        H_r = _reference_hessian(geometry_r, k2)
        assert H.shape == H_r.shape and _bits(H) == _bits(H_r), case
    assert {s for s, _, _ in seen} == set(_SHAPES)
    assert all((s, True, True) in seen for s in _SHAPES)


def test_pair_geometry_is_in_axis_planes():
    pos = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5], [1.0, 1.0, 1.0]])
    diff, dist = crystal._pair_geometry(pos)
    assert diff.shape == (3, 3, 3) and diff.flags.c_contiguous
    for a in range(3):
        for i in range(3):
            for j in range(3):
                assert diff[a, j, i] == pos[i, a] - pos[j, a]
    assert np.all(np.isinf(np.diag(dist)))
    assert dist[0, 1] == dist[1, 0] == np.sqrt(9.0 + 4.0 + 2.25)
    assert crystal._min_separation(pos) == dist.min()


@st.composite
def _mixtures(draw):
    n = draw(st.integers(2, 100))
    charges = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    masses = draw(st.lists(st.floats(6.0, 200.0), min_size=n, max_size=n))
    alpha = draw(st.floats(0.02, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return [ic.IonSpecies(q, m) for q, m in zip(charges, masses)], alpha, seed


@settings(deadline=None, max_examples=12)
@given(_mixtures())
def test_kernel_derivatives_and_z_reflection(family, mixture):
    # on a jittered chain of a drawn mixture, in a solve's units: the
    # gradient is the central difference of the energy, the Hessian the
    # central difference of the gradient, and reflecting z maps H to P H P
    ions, alpha, seed = mixture
    n = len(ions)
    k2, kq, _, _ = crystal._solve_units(family.trap_at(alpha), ions)
    rng = np.random.default_rng(seed)
    u = np.column_stack([rng.normal(0.0, 0.3, n), rng.normal(0.0, 0.3, n),
                         np.arange(n) - 0.5 * (n - 1) + rng.uniform(-0.2, 0.2, n)])
    e, g, scale, geometry = crystal._evaluate(u, k2, kq)
    H = crystal._hessian(geometry, k2)
    h = 1e-5
    steps = h * np.eye(3 * n).reshape(3 * n, n, 3)
    fd_g = np.empty(3 * n)
    fd_H = np.empty((3 * n, 3 * n))
    for k, step in enumerate(steps):
        e_plus, g_plus = crystal._evaluate(u + step, k2, kq)[:2]
        e_minus, g_minus = crystal._evaluate(u - step, k2, kq)[:2]
        fd_g[k] = (e_plus - e_minus) / (2.0 * h)
        fd_H[:, k] = (g_plus - g_minus).ravel() / (2.0 * h)
    assert np.abs(fd_g - g.ravel()).max() <= 1e-8 * max(abs(e), 1.0)
    assert np.abs(fd_H - H).max() <= 1e-8 * np.abs(H).max()
    mirror = u * [1.0, 1.0, -1.0]
    e_m, g_m, scale_m, geometry_m = crystal._evaluate(mirror, k2, kq)
    s = np.tile([1.0, 1.0, -1.0], n)
    assert e_m == e and scale_m == scale
    assert np.array_equal(g_m.ravel(), s * g.ravel())
    assert np.array_equal(crystal._hessian(geometry_m, k2), s[:, None] * H * s[None, :])
