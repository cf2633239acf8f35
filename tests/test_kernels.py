"""The scalar Gamma kernel's pole window (fraclift.gamma): arguments within
the constant config.INT_TOL = 1e-9 of a nonpositive integer are poles."""

from fraclift.gamma import is_pole, recip_gamma


def test_pole_detection_tolerance():
    assert is_pole(0.0)
    assert is_pole(-3.0 + 5e-10)
    assert not is_pole(-3.0 + 1e-8)
    assert not is_pole(2.0)
    assert recip_gamma(-3.0 + 5e-10) == 0.0
