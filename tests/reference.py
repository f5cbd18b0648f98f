"""Reference oracles shared by the tests.

Each one uses only Fraction or integer arithmetic and is deliberately slow,
so it stays independent of the exact-sum machinery under test.
"""

from fractions import Fraction


def exact_cells(values, span):
    """The cells of a 1D or 2D array over a span ((i0, i1),) or
    ((i0, i1), (j0, j1)), in row-major order."""
    return values[tuple(slice(i0, i1) for i0, i1 in span)].ravel()


def exact_sum(cells) -> Fraction:
    """The exact sum of float cells."""
    return sum((Fraction(float(v)) for v in cells), Fraction(0))


def exact_span_sum(values, span) -> float:
    """The exact sum over the span, correctly rounded."""
    return float(exact_sum(exact_cells(values, span)))


def exact_avg(values, span) -> Fraction:
    """The exact average over the span."""
    cells = exact_cells(values, span)
    return exact_sum(cells) / len(cells)
