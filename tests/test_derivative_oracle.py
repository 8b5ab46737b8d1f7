"""A derivative oracle without jets: Richardson-extrapolated central differences.

The jet engine evaluates a partial of a field built from partials (D, and
the Fefferman metric through its forms) in lifted contexts, where a field
reads only the lift levels of the coordinates it depends on, taken in
ascending coordinate order, so d_u d_v and d_v d_u are one value.  These tests
check the first and second partials of such fields against differences of
their order-0 values alone, in numpy.
"""

import numpy as np
import pytest

from crgeo.chart import jet_data
from conftest import comparison_tensor, fefferman_tree, g_theta


def _values(field, pts, offsets):
    """Order-0 values of ``field`` at ``pts`` moved by each offset: (offsets, N, *shape)."""
    moved = (offsets[:, None] + pts[None]).reshape(-1, pts.shape[1])
    return jet_data(field, moved, 0)[0].reshape((len(offsets), len(pts)) + field.shape)


def _first(field, pts, h):
    """(N, d, *shape): central differences of step h, extrapolated from h and h/2."""
    eye = np.eye(pts.shape[1])

    def central(step):
        return (_values(field, pts, step * eye) - _values(field, pts, -step * eye)) / (2.0 * step)

    return np.moveaxis((4.0 * central(h / 2) - central(h)) / 3.0, 0, 1)


def _second(field, pts, h):
    """(N, d, d, *shape): the mixed central difference of step h, extrapolated from h and h/2."""
    d = pts.shape[1]
    eye = np.eye(d)

    def central(step):
        total = 0.0
        for a, b, sign in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            offsets = (a * eye[:, None] + b * eye[None, :]).reshape(d * d, d) * step
            total = total + sign * _values(field, pts, offsets)
        return total / (4.0 * step * step)

    d2 = (4.0 * central(h / 2) - central(h)) / 3.0
    return np.moveaxis(d2.reshape((d, d) + d2.shape[1:]), 2, 0)


def _relative_error(approx, exact):
    return float(np.abs(approx - exact).max() / np.abs(exact).max())


FIELDS = {
    "g_theta": lambda pipe: g_theta(pipe.ac.ph),
    "D": lambda pipe: comparison_tensor(pipe.ac.ph),
    "fefferman": lambda pipe: fefferman_tree(pipe.fc),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_jet_partials_match_richardson_differences(pipeline, name):
    # fubini_study, and complex_hyperbolic, the slowest catalog entry, at the
    # file's tolerances: mixed partials of both read one jet per coordinate pair
    for example in ("fubini_study", "complex_hyperbolic"):
        field = FIELDS[name](pipeline(example, 2))
        pts = field.chart.sample(4, 3, margin=0.2)
        _, d1, d2 = jet_data(field, pts, 2)
        # measured worst over the three fields: 9.0e-13 and 3.0e-12 (first
        # partials, h = 1e-3), 9.1e-8 and 2.7e-7 (second partials, h = 1e-2)
        assert _relative_error(_first(field, pts, 1e-3), d1) < 1e-9, example
        assert _relative_error(_second(field, pts, 1e-2), d2) < 1e-5, example
