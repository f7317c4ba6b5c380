"""Catalog entries: analytic derivative consistency, worked values,
domains and the selector parser."""

import math

import numpy as np
import pytest

from specialk import geometry
from specialk.prepotentials import (
    Coupled,
    Cubic,
    DomainError,
    Quadratic,
    SWLog,
    catalog,
    get_entry,
    parse_entry,
)

ENTRIES = [Quadratic(), Cubic(), SWLog(), Coupled()]


def complex_fd(f, z, d, h=1e-6):
    """Holomorphic derivative along z_d by a central difference."""
    e = np.zeros_like(z)
    e[d] = h
    return (np.asarray(f(z + e)) - np.asarray(f(z - e))) / (2.0 * h)


def test_catalog_names():
    names = [e.name for e in catalog()]
    assert names == ["quadratic", "cubic", "swlog", "coupled"]
    with pytest.raises(KeyError):
        get_entry("nosuch")


@pytest.mark.parametrize("prep", ENTRIES, ids=lambda p: p.name)
def test_derivative_consistency(prep):
    """hess must match FD(grad) within 1e-6, third FD(hess) within 1e-5
    and fourth FD(third) within 1e-6 at 100 seeded domain points."""
    pts = geometry.sample_points(prep, 100, seed=42)
    worst_h = worst_t = worst_f = 0.0
    for z in pts:
        tau = prep.hess(z)
        assert np.array_equal(tau, tau.T)
        c = prep.third(z)
        q = prep.fourth(z)
        for d in range(prep.n):
            worst_h = max(worst_h, float(np.max(np.abs(
                complex_fd(prep.grad, z, d) - tau[:, d]))))
            worst_t = max(worst_t, float(np.max(np.abs(
                complex_fd(prep.hess, z, d) - c[d]))))
            worst_f = max(worst_f, float(np.max(np.abs(
                complex_fd(prep.third, z, d) - q[d]))))
        gq = complex_fd(lambda zz: np.array([prep.value(zz)]), z, 0)
        assert abs(gq[0] - prep.grad(z)[0]) < 1e-6
    assert worst_h < 1e-6
    assert worst_t < 1e-5
    assert worst_f < 1e-6


def test_third_totally_symmetric():
    """The third and fourth derivative tensors are totally symmetric."""
    for prep in ENTRIES:
        z = geometry.sample_points(prep, 1, seed=3)[0]
        c = prep.third(z)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.array_equal(c, np.transpose(c, perm))
        q = prep.fourth(z)
        assert q.shape == (prep.n,) * 4
        for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (3, 1, 2, 0)):
            assert np.array_equal(q, np.transpose(q, perm))


class TestTau:
    def test_quadratic_constant(self):
        prep = Quadratic()
        for z in ([0.0 + 0.0j], [2.0 - 1.0j]):
            assert prep.hess(z)[0, 0] == 1j

    def test_cubic_value(self):
        assert Cubic().hess([1j])[0, 0] == pytest.approx(6j)

    def test_swlog_matches_fd_of_grad(self):
        prep = SWLog(lam=1.0)
        z = np.array([1.0 + 0.0j])
        fd = complex_fd(prep.grad, z, 0)
        assert abs(fd[0] - prep.hess(z)[0, 0]) < 1e-7


class TestMagneticCoords:
    def test_quadratic(self):
        assert Quadratic().grad([2.0 + 0.0j])[0] == pytest.approx(2j)

    def test_cubic(self):
        assert Cubic().grad([1.0 + 0.0j])[0] == pytest.approx(3.0)

    def test_swlog_symbolic_formula(self):
        prep = SWLog(lam=1.0)
        z = 1.0 + 1.0j
        expect = (1j / math.pi) * (z * np.log(z * z) + z)
        assert abs(prep.grad([z])[0] - expect) < 1e-10

    def test_differential_relation(self):
        # dw = tau dz certified by finite differences
        for prep in ENTRIES:
            z = geometry.sample_points(prep, 1, seed=8)[0]
            tau = prep.hess(z)
            for d in range(prep.n):
                fd = complex_fd(prep.grad, z, d)
                assert np.max(np.abs(fd - tau[:, d])) < 1e-6


class TestDomains:
    def test_quadratic_everywhere(self):
        assert Quadratic().in_domain([100.0 - 50.0j])

    def test_cubic_upper_half_plane(self):
        prep = Cubic()
        assert prep.in_domain([0.5j])
        assert not prep.in_domain([-1j])
        assert not prep.in_domain([1.0 + 0.0j])
        with pytest.raises(DomainError):
            prep.require_domain([-1j])

    def test_swlog_excludes_cut_and_small_circle(self):
        prep = SWLog(lam=1.0)
        assert not prep.in_domain([-1.0 + 0.0j])       # branch cut
        assert not prep.in_domain([-2.5 + 0.0j])       # branch cut, large |z|
        assert prep.in_domain([-1.0 + 0.5j])           # off the cut
        assert not prep.in_domain([0.1 + 0.1j])        # inside e^{-3/2}
        assert prep.in_domain([1.0 + 0.0j])

    def test_swlog_excludes_overflowed_ratio(self):
        """Below lambda ~ 1e-308, 1 / lambda and so z / lambda overflow and
        tau is NaN; such points are outside the domain, not on it."""
        with np.errstate(all="ignore"):
            prep = SWLog(lam=1e-310)
            assert not np.isfinite(np.asarray([1e-310 + 0.5e-310j]) / prep.lam)[0]
            assert not prep.in_domain([1e-310 + 0.5e-310j])
            assert SWLog(lam=1e-308).in_domain([1e-308 + 0.5e-308j])

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_swlog_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="swlog"):
            SWLog(lam=lam)

    def test_swlog_metric_positive_on_domain(self):
        prep = SWLog(lam=1.0)
        r = math.exp(-1.5)
        assert prep.hess([(r * 1.001) * np.exp(0.3j)])[0, 0].imag > 0
        assert prep.hess([(r * 0.999) * np.exp(0.3j)])[0, 0].imag < 0

    def test_coupled_positive_definite(self):
        prep = Coupled()
        assert prep.in_domain([0.5j, 0.0j])
        assert not prep.in_domain([-0.6j, 0.0j])


class TestParser:
    def test_defaults(self):
        assert parse_entry("cubic").name == "cubic"
        assert parse_entry("quadratic").n == 1

    def test_quadratic_dimension(self):
        prep = parse_entry("quadratic(n=2)")
        assert prep.n == 2
        assert prep.hess([0j, 0j])[1, 1] == 1j

    def test_swlog_lambda(self):
        prep = parse_entry("swlog(lambda=2)")
        assert prep.lam == 2.0
        assert not prep.in_domain([0.3 + 0.0j])  # inside 2 e^{-3/2}

    def test_rejects(self):
        for bad in ("nosuch", "cubic(", "swlog(lambda)", "quadratic(n=two)",
                    "quadratic(n=2,n=3)", "swlog(lambda=1,lam=2)"):
            with pytest.raises((KeyError, ValueError)):
                parse_entry(bad)

    def test_quadratic_dimension_cap(self):
        """n is capped where verify's cost, about (2n)^6 per point, stops
        being desk scale; the cap is checked before anything is built."""
        assert parse_entry("quadratic(n=12)").n == 12
        with pytest.raises(ValueError, match="quadratic: n must be an integer from 1 to 12"):
            parse_entry("quadratic(n=13)")
        # past int()'s digit limit, refused by name and length, not read as inf
        with pytest.raises(ValueError, match=r"^quadratic: n=999999999999\.\.\. has 5000 digits"):
            parse_entry("quadratic(n=" + "9" * 5000 + ")")
