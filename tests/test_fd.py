"""The test-side finite differences (``fd.py``) against known derivatives."""

import math

import pytest

from fd import DerivativeError, fd_derivative


def test_fd_first_derivative_richardson():
    # Richardson-extrapolated central stencil should hit ~1e-10 on smooth data
    assert abs(fd_derivative(math.sin, 1.2, order=1) - math.cos(1.2)) < 1e-10
    assert abs(fd_derivative(math.exp, 0.3, order=1) - math.exp(0.3)) < 1e-9


def test_fd_second_derivative():
    assert abs(fd_derivative(math.sin, 1.2, order=2) + math.sin(1.2)) < 1e-7


def test_fd_rejects_footprint_outside_domain():
    with pytest.raises(DerivativeError):
        fd_derivative(math.log, 1e-9, order=1, domain=(0.0, math.inf))


def test_fd_bad_order():
    with pytest.raises(ValueError):
        fd_derivative(math.sin, 0.0, order=3)
