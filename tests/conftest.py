"""Independent oracle for the image potential, shared by the test modules."""

import math

import numpy as np
import pytest
from scipy.integrate import quad_vec

from neontrap import reflection_coefficient
from neontrap.constants import IMAGE_PREFACTOR


def _kspace_image_potential(stack, z):
    """pref * Integral_0^inf Lambda_L(k) e^{-2kz} dk by adaptive quadrature in k.

    Integrates the reflection coefficient directly, so it shares no
    algebra with the multiple-image series that production sums.
    """
    z = np.asarray(z, dtype=float)
    integral, _ = quad_vec(lambda k: reflection_coefficient(stack, k) * np.exp(-2.0 * k * z),
                           0.0, math.inf, epsabs=0.0, epsrel=1e-12)
    return IMAGE_PREFACTOR * integral


@pytest.fixture(scope="session")
def kspace_potential():
    return _kspace_image_potential
