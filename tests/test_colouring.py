"""The bit-mask column colouring of derivative_matrices against its numpy
oracle.

derivative_matrices probes the stencils once per colour, so the colours
decide the probes and with them the stored maps. The bit-mask colouring
is first fit in column order, as the oracle in jacobian_reference is, so
it must return the oracle's array exactly on every chart family at both
difference orders. Apart from the oracle, no row of the coupling table
may hold two distinct columns of one colour: that is what lets one probe
serve all of a colour's columns.
"""

import functools
from unittest import mock

import numpy as np
import pytest

import jacobian_reference as ref
from sigmaflow import geometry
from sigmaflow.geometry import (
    build_hopf_product,
    build_round_sphere,
    build_synthetic,
)

CHARTS = ("S3", "S4", "S5", "S1xS2", "S1xS3", "synthetic")


def chart(name, fd_order):
    # Coarse 4- and 5-D charts: build_round_sphere's floor of 16 points is
    # about accuracy, which an exact comparison of colours does not need,
    # and the numpy oracle's time grows with the coupling table's width
    # times the pattern's size.
    with mock.patch.object(geometry, "_check_resolution", lambda *a: None):
        return {"S3": lambda: build_round_sphere(3, 16, fd_order=fd_order),
                "S4": lambda: build_round_sphere(4, 8, fd_order=fd_order),
                "S5": lambda: build_round_sphere(5, 6, fd_order=fd_order),
                "S1xS2": lambda: build_hopf_product(3, 1.3, 16,
                                                   fd_order=fd_order),
                "S1xS3": lambda: build_hopf_product(4, 1.3, 8,
                                                   fd_order=fd_order),
                "synthetic": lambda: build_synthetic(
                    3, [0.5, -0.2, 0.7], 8, fd_order=fd_order)}[name]()


class _Coloured(Exception):
    """Stops derivative_matrices once the colours are known."""


@functools.lru_cache(maxsize=None)
def coloured(name, fd_order):
    """A chart, the pattern derivative_matrices colours on it (rows and
    indices of its entries) and the colours it gets; the probes are not
    run."""
    geom = chart(name, fd_order)
    seen = {}
    colouring = geometry._greedy_colouring

    def spy(rows, indices, size):
        seen.update(rows=rows, indices=indices,
                    colour=colouring(rows, indices, size))
        raise _Coloured

    with mock.patch.object(geometry, "_greedy_colouring", spy), \
            pytest.raises(_Coloured):
        geom.derivative_matrices()
    return geom, seen["rows"], seen["indices"], seen["colour"]


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", CHARTS)
def test_colouring_matches_the_numpy_oracle(name, fd_order):
    geom, rows, indices, colour = coloured(name, fd_order)
    want = ref.greedy_colouring(geom._coupling_table(), rows, indices)
    assert colour.dtype == want.dtype
    assert np.array_equal(colour, want)


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", CHARTS)
def test_no_row_holds_two_columns_of_one_colour(name, fd_order):
    geom, _, _, colour = coloured(name, fd_order)
    table = geom._coupling_table().astype(np.int64)
    assert colour.shape == (len(table),) and np.min(colour) >= 0
    # sorted by (colour, column) within each row, two neighbours of one
    # colour must be one column
    key = colour[table] * len(table) + table
    key.sort(axis=1)
    same_colour = key[:, 1:] // len(table) == key[:, :-1] // len(table)
    assert not np.any(same_colour & (key[:, 1:] != key[:, :-1]))

