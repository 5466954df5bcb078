"""Shared configuration for the wall-clock performance gates.

Each gate runs one experiment of :mod:`experiments`, asserts its rows and
its speed against an in-repo baseline, and times the run with
pytest-benchmark.  ``make bench-smoke`` runs them; the Tier-1 suite does
not collect this directory.
"""

import pytest


@pytest.fixture
def assert_result():
    """Common sanity checks for an ExperimentResult."""

    def check(result, expected_id, min_rows=1):
        assert result.experiment_id == expected_id
        assert len(result.rows) >= min_rows
        assert result.columns
        assert result.to_text()
        return result

    return check
