"""The meV*nm model constants against the CODATA SI values they are rounded from."""

import math

import pytest

from neontrap.constants import (E_CHARGE_SI, EPS0_SI, HBAR2_OVER_2ME, HBAR_SI,
                                IMAGE_PREFACTOR, J_PER_EV, M_E_SI, MEV_PER_EV, NM_PER_M)

MEV_PER_J = MEV_PER_EV / J_PER_EV


def test_hbar2_over_2me_from_codata():
    derived = HBAR_SI ** 2 / (2.0 * M_E_SI) * MEV_PER_J * NM_PER_M ** 2
    assert derived == pytest.approx(38.099821, rel=1e-7)
    assert HBAR2_OVER_2ME == pytest.approx(derived, rel=1e-6)


def test_image_prefactor_from_codata():
    derived = E_CHARGE_SI ** 2 / (8.0 * math.pi * EPS0_SI) * MEV_PER_J * NM_PER_M
    assert derived == pytest.approx(719.982274, rel=1e-7)
    assert IMAGE_PREFACTOR == pytest.approx(derived, rel=1e-6)
