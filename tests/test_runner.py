"""`runner._Run.write_csv`: the bulk writer gives the bytes and manifest row
counts of csv.writer fed one `_fmt`-formatted value at a time."""

import csv
import math

import numpy as np
import pytest

import kerrswitch as ks
from kerrswitch import runner


def _reference_csv(path, header, rows):
    """The writer `write_csv` replaced: csv.writer over `_fmt` of each value."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([runner._fmt(v) for v in row])
            count += 1
    return count


NUMBERS = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    1e16,
    1e-300,
    5e-324,
    np.float64(0.1) + np.float64(0.2),
    np.int64(-7),
    12,
    True,
    False,
    10**16 + 1,
    np.float32(0.1),
]
# Every label a command writes.
LABELS = ["exact", "monte_carlo", "switched", "unswitched", "energy_at_zero_delay", "delay_at_calibrated_energy"]

TABLES = {
    "header_only": (["a", "b"], []),
    "numbers": (["x", "y", "z"], [[v, -v if not isinstance(v, bool) else v, 3] for v in NUMBERS]),
    "one_column_numbers": (["x"], [[v] for v in NUMBERS]),
    "labels_first": (["kind", "x"], [[lab, v] for lab in LABELS for v in NUMBERS]),
    "labels_last": (["x", "kind"], [[v, lab] for lab in LABELS for v in NUMBERS]),
    "tuples_and_arrays": (["a", "b"], [(1.0, 2.0), np.array([3.0, 4.0]), [5, 6]]),
    "many_blocks": (
        ["e", "wl", "kind"],
        [[i * 0.1, math.sin(i) * 1e-9, LABELS[i % len(LABELS)]] for i in range(9000)],
    ),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_bytes_and_row_counts_equal_the_reference_writer(name, tmp_path):
    header, rows = TABLES[name]
    expected_rows = _reference_csv(tmp_path / "reference.csv", header, rows)
    run = runner._Run(ks.default_config(), tmp_path / "out")
    # A generator, as the commands pass, so the writer sees each row once.
    path = run.write_csv("table.csv", header, (row for row in rows))
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    (entry,) = run.entries
    assert entry.rows == expected_rows == len(rows)
    assert entry.bytes == path.stat().st_size


def test_errors_match_the_reference_writer(tmp_path):
    run = runner._Run(ks.default_config(), tmp_path / "out")
    for bad in ([[1.0, None]], [[10**400]]):
        with pytest.raises((TypeError, OverflowError)) as expected:
            _reference_csv(tmp_path / "reference.csv", ["a"], bad)
        with pytest.raises(expected.type):
            run.write_csv("table.csv", ["a"], bad)


def test_rows_that_do_not_fit_the_first_raise(tmp_path):
    # Another width, or a label where the first row had a number.
    run = runner._Run(ks.default_config(), tmp_path / "out")
    for bad in ([[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0, 4.0, 5.0]], [[1.0, 2.0], ["exact", 2.0]]):
        with pytest.raises(TypeError):
            run.write_csv("table.csv", ["a", "b"], bad)
