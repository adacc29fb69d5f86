"""Theta function evaluation: product route, modular route, and the
quasi-periodicity laws that the exchange relations depend on."""

import random

import mpmath as mp
import pytest

from ospboson.errors import DomainError
from ospboson.theta import (
    near_theta_zero,
    qpoch_eval,
    theta_eval,
    theta_eval_modular,
    theta_terms_needed,
)

DIGITS = 50


def rel_diff(a, b):
    scale = max(abs(a), abs(b), mp.mpf(1))
    return abs(a - b) / scale


def test_qpoch_eval_reference():
    # Euler: (q; q)_inf at q = 1/2 against a long partial product
    with mp.workdps(60):
        q = mp.mpf(1) / 2
        ref = mp.mpf(1)
        for n in range(1, 250):
            ref *= 1 - q ** n
        assert abs(qpoch_eval(q, q, 50) - ref) < mp.mpf(10) ** -45


def test_theta_golden_value():
    # frozen from an independent high-precision run of the defining product
    with mp.workdps(40):
        v = theta_eval(mp.mpc("0.7", "0.2"), mp.mpf("0.3"), 35)
        re = mp.mpf("0.073865704971576037146580361634582")
        im = mp.mpf("-0.035863768208423690948931786698065")
        assert abs(v - mp.mpc(re, im)) < mp.mpf(10) ** -30


# nomes the structure functions meet: 6.4e-5 and 0.178 are the smallest and
# largest (q p)^2 of the sample_parameters window, 0.01 is that of seed 0,
# and 0.5625 is the largest q^2
@pytest.mark.parametrize("qs", ["6.4e-5", "0.01", "0.05", "0.178", "0.3",
                                "0.5625", "0.7", "0.95", "0.98"])
def test_product_vs_modular(qs):
    with mp.workdps(DIGITS + 20):
        q = mp.mpf(qs)
        rng = random.Random(("theta-cross", qs).__repr__())
        for _ in range(12):
            # |x p^a| for |x| in [0.1, 0.9], a in [-3, 3] and p >= 1/25
            r = mp.mpf(10) ** rng.uniform(-6, 5)
            ph = 2 * mp.pi * rng.random()
            z = r * mp.e ** (mp.mpc(0, 1) * ph)
            if near_theta_zero(z, q):
                continue
            a = theta_eval(z, q, DIGITS)
            b = theta_eval_modular(z, q, DIGITS)
            assert rel_diff(a, b) < mp.mpf(10) ** -(DIGITS - 10)


@pytest.mark.parametrize("qs", ["0.4", "0.9"])
def test_quasi_periodicity(qs):
    # theta_q(q z) = -z^-1 theta_q(z)
    with mp.workdps(DIGITS + 20):
        q = mp.mpf(qs)
        z = mp.mpc("0.61", "0.34")
        lhs = theta_eval(q * z, q, DIGITS)
        rhs = -theta_eval(z, q, DIGITS) / z
        assert rel_diff(lhs, rhs) < mp.mpf(10) ** -(DIGITS - 10)


def test_modular_real_on_real_axis():
    # theta_q(z) is real for real z and q; the limits report prints the
    # modular route's values there, so its imaginary part must be exactly 0
    with mp.workdps(DIGITS + 20):
        for qs in ("0.3", "0.95"):
            q = mp.mpf(qs)
            for z in (mp.mpf("0.37"), mp.mpf("-0.8"), mp.mpf("1.9")):
                b = theta_eval_modular(z, q, DIGITS)
                assert b.imag == 0
                assert rel_diff(theta_eval(z, q, DIGITS), b) < mp.mpf(10) ** -(DIGITS - 10)


def test_quasi_periodicity_extreme_nome():
    # q -> 1 territory where the plain product is hopeless; the modular
    # route must hold the identity to full precision
    with mp.workdps(80):
        q = mp.exp(-mp.mpf("0.0125"))
        z = mp.mpc("0.8", "0.15")
        lhs = theta_eval_modular(q * z, q, 60)
        rhs = -theta_eval_modular(z, q, 60) / z
        assert rel_diff(lhs, rhs) < mp.mpf(10) ** -40


def test_inversion_symmetry():
    # theta_q(q / z) = theta_q(z)
    with mp.workdps(DIGITS + 20):
        q = mp.mpf("0.35")
        z = mp.mpc("0.5", "0.4")
        a = theta_eval(q / z, q, DIGITS)
        b = theta_eval(z, q, DIGITS)
        assert rel_diff(a, b) < mp.mpf(10) ** -(DIGITS - 10)


def test_zero_detection():
    with mp.workdps(30):
        q = mp.mpf("0.5")
        assert near_theta_zero(q ** 2, q)
        assert near_theta_zero(q ** -1, q)
        assert not near_theta_zero(mp.mpc("0.3", "0.3"), q)


def test_terms_needed_monotone():
    a = theta_terms_needed(mp.mpf("0.5"), 30)
    b = theta_terms_needed(mp.mpf("0.5"), 60)
    c = theta_terms_needed(mp.mpf("0.9"), 30)
    assert a <= b
    assert a <= c


def test_bad_nome_rejected():
    with pytest.raises(DomainError):
        theta_eval(mp.mpc("0.5"), mp.mpf("1.5"), 30)
    with pytest.raises(DomainError):
        theta_eval(mp.mpc(0), mp.mpf("0.5"), 30)
