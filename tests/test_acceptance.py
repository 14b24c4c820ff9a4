"""Acceptance suite: one test per numbered criterion, and one for how the
criterion lines render arrays.

Each test prints the criterion's pass/fail line (run pytest with -s or
check captured output on failure), checks that each quantity on it is
rendered from the criterion's `values`, and asserts the verdict.
"""

import numpy as np

from scatterlab import acceptance


def _renders(value, shown) -> bool:
    """Whether the printed `shown` is `value` at some number of digits."""
    if isinstance(shown, (bool, np.bool_)):
        return shown is value
    if isinstance(value, np.ndarray):
        return any("[" + " ".join(f"{v:.{nd}e}" for v in value) + "]" == shown
                   for nd in range(1, 18))
    return any(acceptance._fmt(value, nd) == shown for nd in range(1, 18))


def test_printed_array_entry_never_reads_as_zero():
    # C9's Dollard increments once printed as [0. 0. 0. 0.] at 2 digits
    values = np.array([4.86e-3, 2.4e-3, 1.19e-3, 5.96e-4, 1e-300, 5e-324,
                       -3e-7, 0.0, 12.5])
    for nd in (1, 2, 6):
        shown = acceptance._show(values, nd)
        entries = [float(x) for x in shown.strip("[]").split()]
        assert len(entries) == len(values)
        assert [x == 0.0 for x in entries] == [v == 0.0 for v in values], shown
    assert (acceptance._show(values[:4], 2)
            == "[4.86e-03 2.40e-03 1.19e-03 5.96e-04]")


def test_every_criterion_names_its_reference():
    assert sorted(acceptance.REFERENCES) == sorted(acceptance.CRITERIA)
    for cid, ref in acceptance.REFERENCES.items():
        kind, _, what = ref.partition(": ")
        assert kind in ("closed form", "independent solver",
                        "independent solver at its own noise",
                        "true by construction", "none"), (cid, ref)
        assert what, (cid, ref)


def _check(cid: int):
    [result] = acceptance.run_all([cid])
    print(result.line())
    assert result.reference == acceptance.REFERENCES[cid]
    # every printed quantity is one of the values, rendered from it
    for key, shown in result.measured.items():
        assert key in result.values, key
        assert _renders(result.values[key], shown), (key, shown)
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
