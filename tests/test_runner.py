"""`runner._Run.write_csv`: the bulk writer gives the bytes and manifest row
counts of csv.writer fed one `_fmt`-formatted value at a time; and the
commands' pre-formatted label columns give the bytes of their plain rows.
`runner._Run.write_json`: the streaming writer gives the bytes and errors of
one `json.dumps` call, writes nothing on error, and holds no record list."""

import csv
import json
import math
import tracemalloc

from collections.abc import Iterator

import numpy as np
import pytest

import kerrswitch as ks
from kerrswitch import runner, switch


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


@pytest.fixture(scope="module")
def fock_csv(tmp_path_factory):
    """Bytes of a default `cmd_fock`'s fock_probs.csv at the default block."""
    out = tmp_path_factory.mktemp("fock")
    ks.cmd_fock(ks.default_config(), out)
    return (out / "fock_probs.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_fock_csv_bytes_do_not_depend_on_the_block(block, fock_csv, tmp_path, monkeypatch):
    """fock_probs.csv (6534 rows) is the same file whatever number of rows
    is formatted per write."""
    assert runner._CSV_BLOCK not in (1, 7, 4096)
    monkeypatch.setattr(runner, "_CSV_BLOCK", block)
    ks.cmd_fock(ks.default_config(), tmp_path)
    assert fock_csv.count(b"\n") == 6535
    assert (tmp_path / "fock_probs.csv").read_bytes() == fock_csv


@pytest.fixture(scope="module")
def small_cfg():
    return ks.parse_config(json.dumps({
        "grid": {"n_samples": 1024, "window_ps": 40.0},
        "solver": {"steps": 16},
        "sweep": {
            "energies_nj": [0.0, 4.0, 7.123456789012345, 12.0],
            "delays_ps": [-1.0, -0.123456789012345, 0.0, 0.3, 1.0],
        },
        "monte_carlo": {"pulses_per_delay": 500},
    }))


def test_fock_csv_equals_its_seven_column_rows(small_cfg, tmp_path):
    """fock_probs.csv, whose delay and (N, n_S, n_U) columns are formatted
    once, is the file that one 7-column row per value gives."""
    ks.cmd_fock(small_cfg, tmp_path / "cmd")
    doc = json.loads((tmp_path / "cmd" / "fock_probs.json").read_text())
    rows = [
        [tau, c["N"], c["n_S"], c["n_U"], p, err, c["kind"]]
        for c in doc["curves"]
        for tau, p, err in zip(doc["delays_ps"], c["probability"], c["stderr"])
    ]
    header = ["delay_ps", "N", "n_S", "n_U", "probability", "stderr", "kind"]
    runner._Run(small_cfg, tmp_path / "ref").write_csv("fock_probs.csv", header, rows)
    expected = (tmp_path / "ref" / "fock_probs.csv").read_bytes()
    assert expected.count(b"\n") == 1 + 5 * 2 * sum(n + 1 for n in range(1, 7))
    assert (tmp_path / "cmd" / "fock_probs.csv").read_bytes() == expected


def test_pump_spectra_csv_equals_its_three_column_rows(small_cfg, tmp_path):
    """pump_spectra.csv, whose energy column is formatted once per rung, is
    the file that one 3-column row per clipped spectrum sample gives."""
    ks.cmd_spectrum(small_cfg, tmp_path / "cmd")
    energies = np.asarray(small_cfg.sweep.energies)
    rows = [
        [e / runner._NJ, w, d]
        for e, spectrum in zip(energies, switch.pump_output_spectra(small_cfg, energies))
        for w, d in zip(*runner.clip_spectrum_support(*spectrum))
    ]
    header = ["energy_nJ", "wavelength_nm", "density_per_nm"]
    runner._Run(small_cfg, tmp_path / "ref").write_csv("pump_spectra.csv", header, rows)
    expected = (tmp_path / "ref" / "pump_spectra.csv").read_bytes()
    assert expected.count(b"\n") > 1 + len(energies)
    assert (tmp_path / "cmd" / "pump_spectra.csv").read_bytes() == expected


def _reference_json(payload):
    """The writer `write_json` replaced: one json.dumps of the whole document,
    with each iterator value as the list of its items."""
    whole = {k: list(v) if isinstance(v, Iterator) else v for k, v in payload.items()}
    return json.dumps(whole, separators=(",", ":"), sort_keys=True) + "\n"


# Each document is built afresh per call: its iterators are used up once.
DOCUMENTS = {
    "empty": lambda: {},
    "scalars": lambda: {"b": None, "a": math.nan, "c": math.inf, "d": -math.inf, "e": "é\n", "f": True},
    "list_value": lambda: {"delays_ps": [-1.5, 0.0, np.float64(0.1) + np.float64(0.2)], "n": 3},
    "iterator_value": lambda: {"z": 1, "curves": ({"k": k, "p": [k * 0.1]} for k in range(5))},
    "empty_iterator": lambda: {"curves": iter(()), "a": []},
    "only_iterators": lambda: {"b": iter([1, 2]), "a": iter(range(3))},
    "nested": lambda: {
        "outer": {"z": {"y": [None, math.nan, {"b": -math.inf, "a": np.float64(1e-300)}]}, "a": 1},
        "items": iter([{"q": {"s": 2, "r": 1}}, [], {}]),
    },
    "int_keys": lambda: {1: "x", 0: iter(["y"])},
    "fock_like": lambda: {
        "delays_ps": [d * 0.1 for d in range(-60, 61)],
        "curves": (
            {"kind": kind, "N": n, "n_S": k, "n_U": n - k, "probability": [math.sin(k + n)] * 121, "stderr": [0.0] * 121}
            for kind in ("exact", "monte_carlo")
            for n in range(1, 7)
            for k in range(n + 1)
        ),
    },
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_json_bytes_equal_the_reference_writer(name, tmp_path):
    expected = _reference_json(DOCUMENTS[name]())
    run = runner._Run(ks.default_config(), tmp_path)
    path = run.write_json("doc.json", DOCUMENTS[name]())
    assert path.read_text() == expected
    (entry,) = run.entries
    assert entry.rows == 1
    assert entry.bytes == path.stat().st_size == len(expected.encode())


def _rejected(value):
    """Documents that json.dumps rejects for `value`, at the top level, in a
    list, nested in a dict, and as an iterator item after good items, which
    the writer meets mid-file."""
    return [
        {"a": value},
        {"a": 1.0, "b": [0.5, value]},
        {"a": {"b": {"c": value}}},
        {"a": 1.0, "b": iter([{"k": 0.5}] * 500 + [{"k": value}]), "c": 2.0},
    ]


BAD_VALUES = {
    "int64": np.int64(3),
    "float32": np.float32(0.5),
    "array": np.zeros(2),
    "set": {1.0},
    "tuple_key": {(1, 2): 0.0},
    "generator_in_list": [(x for x in ())],
}


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_json_errors_match_the_reference_and_leave_nothing(name, tmp_path):
    """A value json.dumps rejects raises the same exception type; the path
    keeps what it held before (no file, or the last good write), no `.part`
    file is left, and no manifest entry is added."""
    run = runner._Run(ks.default_config(), tmp_path)
    for i, (ref, doc) in enumerate(zip(_rejected(BAD_VALUES[name]), _rejected(BAD_VALUES[name]))):
        with pytest.raises((TypeError, ValueError)) as expected:
            _reference_json(ref)
        with pytest.raises(expected.type):
            run.write_json(f"doc{i}.json", doc)
        assert list(tmp_path.iterdir()) == []
    assert run.entries == []
    good = run.write_json("doc.json", {"a": 1.0}).read_bytes()
    with pytest.raises(TypeError):
        run.write_json("doc.json", {"a": iter([1.0, np.int64(2)])})
    assert (tmp_path / "doc.json").read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]
    assert len(run.entries) == 1


def test_circular_document_raises_value_error(tmp_path):
    doc = {"a": []}
    doc["a"].append(doc)
    with pytest.raises(ValueError):
        _reference_json(doc)
    run = runner._Run(ks.default_config(), tmp_path)
    with pytest.raises(ValueError):
        run.write_json("doc.json", {"b": iter([doc])})
    assert list(tmp_path.iterdir()) == [] and run.entries == []


def test_command_json_artifacts_are_canonical(small_cfg, tmp_path):
    """Every JSON artifact of sweep, fock and calibrate is the compact,
    sorted, one-line text of its own document. sweep needs 128 steps to pass
    its convergence check on this grid."""
    sweep_cfg = ks.parse_config(json.dumps({**json.loads(ks.emit_config(small_cfg)), "solver": {"steps": 128}}))
    ks.cmd_sweep(sweep_cfg, tmp_path / "sweep")
    ks.cmd_fock(small_cfg, tmp_path / "fock")
    ks.cmd_calibrate(small_cfg, tmp_path / "calibrate")
    paths = {
        p.relative_to(tmp_path).as_posix(): p
        for p in tmp_path.glob("*/*.json")
        if p.name not in ("manifest.json", "config.json")
    }
    assert sorted(paths) == ["calibrate/calibration.json", "fock/fock_probs.json", "sweep/metrics.json"]
    for path in paths.values():
        text = path.read_text()
        assert text == json.dumps(json.loads(text), separators=(",", ":"), sort_keys=True) + "\n"


def test_fock_json_write_holds_no_record_list(tmp_path, monkeypatch):
    """Under tracemalloc, the default `cmd_fock`'s write of fock_probs.json
    (54 records, 13,068 floats, 104,005 bytes) peaks at most 0.25 MB above
    the live set at its start. Encoding the document whole traces 1.12 MB."""
    peaks = {}
    write_json = runner._Run.write_json

    def traced(self, name, payload):
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            return write_json(self, name, payload)
        finally:
            peaks[name] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    monkeypatch.setattr(runner._Run, "write_json", traced)
    ks.cmd_fock(ks.default_config(), tmp_path)
    assert (tmp_path / "fock_probs.json").stat().st_size == 104_005
    assert peaks["fock_probs.json"] <= 0.25e6


def test_fock_json_delays_are_the_config_documents(tmp_path):
    """fock_probs.json's delay axis is config.json's, value for value: the
    default -5.8 ps is written -5.8, where its SI delay over 1e-12 is
    -5.800000000000001."""
    ks.cmd_fock(ks.default_config(), tmp_path)
    config = json.loads((tmp_path / "config.json").read_text())
    doc = json.loads((tmp_path / "fock_probs.json").read_text())
    assert doc["delays_ps"] == config["sweep"]["delays_ps"]
    assert -5.8 in doc["delays_ps"]
