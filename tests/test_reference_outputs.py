"""Every output of the pipeline at small sizes agrees with the committed
reference (``tests/reference_outputs.py`` runs it and says how to
regenerate the reference).

Bits depend on the BLAS build and the CPU, so agreement is checked at a
tolerance that rounding cannot reach and a changed draw always does.  Each
array's largest deviation, relative to its largest magnitude (at least 1),
must stay within ``TOL``.  Perturbing one quantity of every sweep by one
unit in the last place (the signals, the mean, the noise sum of squares,
or the state after each sweep) moved no array by more than 2.8e-6 at these
sizes: common-bhm's nonparametric prior amplifies rounding the most, the
other workloads stayed below 1e-9.  An extra standard normal draw in the
mean step, the noise step run before the covariance step, or a band read
one rank too low each moved some array of every workload by 0.12 to 1.3.

Where :func:`reference_outputs.platform_key` (machine, numpy, scipy, BLAS
build and CPU features) equals the one recorded with the reference, every
number and text must also be bit-for-bit equal.
"""

import re

import numpy as np
import pytest

import reference_outputs

TOL = 1e-3

_NUMBER = re.compile(r"-?\d+(?:\.(\d+))?")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return reference_outputs.collect(tmp_path_factory.mktemp("reference"))


@pytest.fixture(scope="module")
def reference():
    return reference_outputs.load()


def test_every_number_within_tolerance_of_the_reference(fresh, reference):
    numbers, _ = fresh
    ref_numbers, _, _ = reference
    assert sorted(numbers) == sorted(ref_numbers)
    drift = reference_outputs.drift(numbers, ref_numbers)
    assert {k: d for k, d in drift.items() if not d <= TOL} == {}


def test_diagnose_text_within_tolerance_of_the_reference(fresh, reference):
    """The words match exactly, integers exactly, and each decimal within
    one unit of its last printed digit plus the tolerance."""
    _, texts = fresh
    _, ref_texts, _ = reference
    assert sorted(texts) == sorted(ref_texts)
    for name, want in ref_texts.items():
        got = texts[name]
        assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want), name
        for g, w in zip(_NUMBER.finditer(got), _NUMBER.finditer(want)):
            if w.group(1) is None:
                assert g.group(0) == w.group(0), (name, w.group(0))
            else:
                slack = 10.0 ** -len(w.group(1)) + TOL * max(1.0, abs(float(w.group(0))))
                assert abs(float(g.group(0)) - float(w.group(0))) <= slack, (name, w.group(0))


def test_bit_identical_on_the_recorded_platform(fresh, reference):
    numbers, texts = fresh
    ref_numbers, ref_texts, ref_platform = reference
    if reference_outputs.platform_key() != ref_platform:
        pytest.skip("another platform rounds differently; the tolerance tests above still hold")
    differ = [k for k, v in ref_numbers.items() if not np.array_equal(numbers[k], v, equal_nan=True)]
    assert differ == []
    assert texts == ref_texts
