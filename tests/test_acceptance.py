"""Acceptance suite: one test per numbered criterion.

Each test prints the criterion's pass/fail line (run pytest with -s or
check captured output on failure) and asserts the criterion's verdict.
"""

import pytest

from scatterlab import acceptance


def _check(cid: int):
    [result] = acceptance.run_all([cid])
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_partial_wave_exactness():
    _check(1)


def test_criterion_02_smatrix_unitarity():
    _check(2)


def test_criterion_03_born_cross_validation():
    _check(3)


def test_criterion_04_high_energy_error_order():
    _check(4)


def test_criterion_05_eikonal_closed_form():
    _check(5)


def test_criterion_06_residual_scaling():
    _check(6)


def test_criterion_07_s0_vs_exact_kernel():
    _check(7)


def test_criterion_08_free_asymptotics():
    _check(8)


def test_criterion_09_short_long_range_dichotomy():
    _check(9)


def test_criterion_10_time_domain_smatrix():
    _check(10)


def test_criterion_11_hilbert_schmidt_identity():
    _check(11)


def test_criterion_12_mourre_positivity():
    _check(12)


def test_criterion_13_kato_smoothness_threshold():
    _check(13)


def test_criterion_14_lap_stability():
    _check(14)


def test_criterion_15_diagonal_singularity_probe():
    _check(15)
