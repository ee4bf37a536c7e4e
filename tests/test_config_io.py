"""Config document parsing, emission, round trips, and hashing."""

import dataclasses
import hashlib
import json
import math
import typing
import warnings

import pytest

import kerrswitch as ks
from kerrswitch.config_io import _FIELDS, DEFAULT_DOCUMENT
from kerrswitch.errors import ParseError, ValidationError

# Bench-unit fields: (section, key, decimal exponent of the unit in SI, SI value).
BENCH_FIELDS = [
    ("pump", "wavelength_nm", -9, lambda c: c.pump.center_wavelength),
    ("pump", "fwhm_fs", -15, lambda c: c.pump.fwhm_duration),
    ("pump", "energy_nj", -9, lambda c: c.pump.energy),
    ("signal", "wavelength_nm", -9, lambda c: c.signal.center_wavelength),
    ("signal", "fwhm_fs", -15, lambda c: c.signal.fwhm_duration),
    ("fiber", "beta2_pump_ps2_km", -27, lambda c: c.fiber.beta2_pump),
    ("fiber", "beta3_pump_ps3_km", -39, lambda c: c.fiber.beta3_pump),
    ("fiber", "beta2_signal_ps2_km", -27, lambda c: c.fiber.beta2_signal),
    ("fiber", "walkoff_ps_m", -12, lambda c: c.fiber.walkoff),
    ("fiber", "a_eff_um2", -12, lambda c: c.fiber.a_eff),
    ("grid", "window_ps", -12, lambda c: c.grid.window),
    ("tof", "dispersion_ps_nm", -3, lambda c: c.tof.dispersion),
    ("tof", "reference_wavelength_nm", -9, lambda c: c.tof.reference_wavelength),
    ("tof", "jitter_fwhm_ps", -12, lambda c: c.tof.jitter_fwhm),
]


def document_fields():
    """Every (section, key) of DEFAULT_DOCUMENT; section None is the top level."""
    for section, body in DEFAULT_DOCUMENT.items():
        if isinstance(body, dict):
            yield from ((section, key) for key in body)
        else:
            yield None, section


DOCUMENT_FIELDS = list(document_fields())


def with_value(doc, section, key, value):
    """Set `value` at (section, key) of `doc`, or as the whole section if key
    is None; a field under a section that is not an object is skipped."""
    if key is None:
        doc[section] = value
    elif section is None:
        doc[key] = value
    elif isinstance(doc.setdefault(section, {}), dict):
        doc[section][key] = value


def hashlib_hash(cfg):
    """The config hash as hashlib's SHA-256 gives it, whichever module
    `config_hash` takes SHA-256 from."""
    return hashlib.sha256(ks.emit_config(cfg).encode("utf-8")).hexdigest()[:16]


def si_literal(x, exp):
    """The double Python reads from the SI literal of bench value x."""
    return float(f"{x!r}e{exp}")


class TestDefaults:
    def test_empty_document_gives_valid_defaults(self):
        cfg = ks.parse_config("")
        assert cfg.pump.center_wavelength == pytest.approx(1030e-9, rel=1e-12)
        assert cfg.pump.fwhm_duration == pytest.approx(180e-15, rel=1e-12)
        assert cfg.pump.energy == pytest.approx(8e-9, rel=1e-12)
        assert cfg.signal.center_wavelength == pytest.approx(1550e-9, rel=1e-12)
        assert cfg.fiber.length == 0.24
        assert cfg.fiber.walkoff * cfg.fiber.length == pytest.approx(2e-12, rel=1e-9)
        assert cfg.geometry.theta == pytest.approx(math.pi / 4.0, rel=1e-15)
        assert cfg.grid.n_samples == 16384
        assert cfg.detectors.system_transmittance == 0.32
        assert len(cfg.sweep.energies) == 29
        assert len(cfg.sweep.delays) == 121
        assert cfg.solver.steps == 256

    def test_empty_braces_equal_empty_string(self):
        assert ks.parse_config("{}") == ks.parse_config("")


class TestValidation:
    def test_negative_pump_energy(self):
        with pytest.raises(ValidationError, match="pump.energy"):
            ks.parse_config(json.dumps({"pump": {"energy_nj": -1.0}}))

    def test_bad_grid(self):
        with pytest.raises(ValidationError, match="n_samples"):
            ks.parse_config(json.dumps({"grid": {"n_samples": 1000}}))

    @pytest.mark.parametrize(
        "section,key,top",
        [
            ("grid", "n_samples", 2**22),
            ("source", "max_photon_cutoff", 1000),
            ("solver", "steps", 2**20),
            ("monte_carlo", "pulses_per_delay", 2**63 - 1),
        ],
    )
    def test_integer_fields_are_bounded(self, section, key, top):
        """Each field's own range. The pulse count is checked without noise:
        with noise, its int64 noise totals bound it lower (see
        `test_noise_totals_past_int64_rejected_at_parse`)."""
        doc = {section: {key: top}}
        if key == "pulses_per_delay":
            doc["detectors"] = {"noise_per_pulse_switched": 0.0, "noise_per_pulse_unswitched": 0.0}
        cfg = ks.parse_config(json.dumps(doc))
        assert getattr(getattr(cfg, section), key) == top
        for over in (2 * top if key == "n_samples" else top + 1, 2**64):
            with pytest.raises(ValidationError, match=f"{section}.{key}"):
                ks.parse_config(json.dumps({**doc, section: {key: over}}))

    OVERFLOWING_NOISE = {
        "monte_carlo": {"pulses_per_delay": 4611686018427387904},
        "detectors": {"noise_per_pulse_switched": 0.01, "noise_per_pulse_unswitched": 0.01},
    }

    def test_noise_totals_past_int64_rejected_at_parse(self):
        """2**62 pulses of at most 5 noise counts each could pass 2**63, so
        the parser refuses the pulse count that `fock` refuses; one pulse
        fewer than 2**63 / 5 passes."""
        with pytest.raises(ValidationError, match="4611686018427387904 pulses x 5 noise counts per pulse overflow int64"):
            ks.parse_config(json.dumps(self.OVERFLOWING_NOISE))
        most = (2**63 - 1) // 5
        doc = dict(self.OVERFLOWING_NOISE, monte_carlo={"pulses_per_delay": most})
        assert ks.parse_config(json.dumps(doc)).monte_carlo.pulses_per_delay == most
        doc["monte_carlo"] = {"pulses_per_delay": most + 1}
        with pytest.raises(ValidationError, match="overflow int64"):
            ks.parse_config(json.dumps(doc))

    def test_large_noise_means_need_no_noise_grid(self, monkeypatch):
        """Large noise means are decided without the noise grid: a mean of
        1e4 counts per window is accepted at the default pulse count, a mean
        of 2e10 is refused there (its grid would take minutes and gigabytes)
        and refused at 1e9 pulses, and a mean that overflows to infinity is
        refused."""
        def no_grid(mean):
            raise AssertionError("the noise grid was built")

        monkeypatch.setattr(ks.photons, "_noise_totals", no_grid)
        ks.parse_config(json.dumps({"detectors": {"noise_window_multiplier": 5e8}}))
        with pytest.raises(ValidationError, match="2e\\+10 mean noise counts per window exceed 10000"):
            ks.parse_config(json.dumps({"detectors": {"noise_window_multiplier": 1e15}}))
        with pytest.raises(ValidationError, match="overflow int64"):
            ks.parse_config(json.dumps({
                "detectors": {"noise_window_multiplier": 1e15},
                "monte_carlo": {"pulses_per_delay": 10**9},
            }))
        with pytest.raises(ValidationError, match="overflow int64"):
            ks.parse_config(json.dumps({
                "detectors": {"noise_per_pulse_switched": 1e300, "noise_window_multiplier": 1e300},
            }))

    def test_bad_efficiency(self):
        with pytest.raises(ValidationError, match="herald_efficiency"):
            ks.parse_config(json.dumps({"detectors": {"herald_efficiency": 1.5}}))

    def test_bad_theta(self):
        with pytest.raises(ValidationError, match="theta"):
            ks.parse_config(json.dumps({"geometry": {"theta_rad": 3.0}}))

    def test_wrong_type(self):
        with pytest.raises(ParseError, match="pump.energy_nj"):
            ks.parse_config(json.dumps({"pump": {"energy_nj": "eight"}}))

    def test_bad_sweep_list(self):
        with pytest.raises(ParseError, match="sweep.delays_ps"):
            ks.parse_config(json.dumps({"sweep": {"delays_ps": []}}))


class TestNonFiniteNumbers:
    def test_infinity_rejected(self):
        with pytest.raises(ParseError, match="pump.energy_nj"):
            ks.parse_config('{"pump": {"energy_nj": Infinity}}')

    def test_overflowing_literal_rejected(self):
        with pytest.raises(ParseError, match="pump.energy_nj"):
            ks.parse_config('{"pump": {"energy_nj": 1e400}}')

    def test_nan_in_list_rejected(self):
        with pytest.raises(ParseError, match=r"sweep.delays_ps\[1\]"):
            ks.parse_config('{"sweep": {"delays_ps": [0.0, NaN]}}')

    def test_integer_too_large_for_a_float_rejected(self):
        with pytest.raises(ParseError, match="fiber.length_m"):
            ks.parse_config('{"fiber": {"length_m": 1%s}}' % ("0" * 400))

    def test_integer_past_the_digit_limit_rejected(self):
        with pytest.raises(ParseError):
            ks.parse_config('{"pump": {"energy_nj": 1%s}}' % ("0" * 5000))


class TestStrictness:
    def test_unknown_key_rejected_in_strict_mode(self):
        with pytest.raises(ParseError, match="pump.enregy_nj"):
            ks.parse_config(json.dumps({"pump": {"enregy_nj": 8.0}}), strict=True)

    def test_unknown_key_warns_in_lenient_mode(self):
        with pytest.warns(UserWarning, match="enregy_nj"):
            cfg = ks.parse_config(json.dumps({"pump": {"enregy_nj": 9.0}}), strict=False)
        assert cfg.pump.energy == pytest.approx(8e-9, rel=1e-12)

    def test_rep_rate_is_an_unknown_key(self):
        doc = json.dumps({"pump": {"rep_rate_hz": 200e3}})
        with pytest.raises(ParseError, match="pump.rep_rate_hz"):
            ks.parse_config(doc, strict=True)
        with pytest.warns(UserWarning, match="pump.rep_rate_hz"):
            assert ks.parse_config(doc, strict=False) == ks.default_config()

    def test_unknown_top_level_section(self):
        with pytest.raises(ParseError, match="detector_bank"):
            ks.parse_config(json.dumps({"detector_bank": {}}))


class TestMalformedDocuments:
    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            ks.parse_config("{\n  'pump': }")

    def test_non_object_root(self):
        with pytest.raises(ParseError):
            ks.parse_config("[1, 2, 3]")

    def test_non_object_section(self):
        with pytest.raises(ParseError, match="pump"):
            ks.parse_config(json.dumps({"pump": 7}))

    @pytest.mark.parametrize(
        "text",
        ["[" * 100000 + "]" * 100000, '{"pump": ' * 50000 + "8.0" + "}" * 50000],
        ids=["arrays", "objects"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested too deeply"):
            ks.parse_config(text)

    def test_any_replaced_value_raises_only_config_errors(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        scalars = (
            st.none()
            | st.booleans()
            | st.text(max_size=4)
            | st.floats()
            | st.integers(-(10**400), 10**400)
        )
        values = st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=8,
        )
        sections = [s for s, body in DEFAULT_DOCUMENT.items() if isinstance(body, dict)]
        paths = st.sampled_from(DOCUMENT_FIELDS + [(s, None) for s in sections])

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(st.tuples(paths, values), min_size=1, max_size=3), st.booleans())
        def check(replacements, strict):
            doc: dict = {}
            for (section, key), value in replacements:
                with_value(doc, section, key, value)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    ks.parse_config(json.dumps(doc), strict=strict)
                except (ParseError, ValidationError):
                    pass

        check()


class TestRoundTrip:
    def test_defaults_round_trip(self):
        cfg = ks.parse_config("")
        again = ks.parse_config(ks.emit_config(cfg))
        assert again == cfg

    def test_overrides_round_trip(self):
        doc = {
            "pump": {"energy_nj": 7.83, "fwhm_fs": 177.7},
            "fiber": {"walkoff_ps_m": 8.333333333333334, "beta2_pump_ps2_km": 23.456},
            "sweep": {"energies_nj": [0.1, 1.7, 9.99], "delays_ps": [-2.2, 0.0, 2.2]},
            "detectors": {"noise_per_pulse_switched": 3.3e-6},
            "rng_seed": 987654321,
        }
        cfg = ks.parse_config(json.dumps(doc))
        again = ks.parse_config(ks.emit_config(cfg))
        assert again == cfg

    def test_value_no_bench_double_spells_round_trips(self):
        # 32135522020932111 nm is 32135522.020932112 m: 17 digits, while the
        # nearest nm double prints as 3.213552202093211e+16.
        cfg = ks.parse_config(json.dumps({"pump": {"wavelength_nm": 32135522020932111}}))
        assert cfg.pump.center_wavelength == 32135522.020932112
        text = ks.emit_config(cfg)
        assert '"wavelength_nm": 32135522.020932112e9' in text
        again = ks.parse_config(text)
        assert again == cfg
        assert ks.config_hash(again) == ks.config_hash(cfg)

    def test_document_literal_digits_decide_the_si_double(self):
        # The double of 32135522020932112.0 prints with one digit fewer; the
        # literal, not that repr, is what is shifted to SI.
        cfg = ks.parse_config('{"pump": {"wavelength_nm": 32135522020932112.0}}')
        assert cfg.pump.center_wavelength == 32135522.020932112
        assert ks.parse_config('{"pump": {"energy_nj": 6E0}}').pump.energy == 6e-9

    def test_any_accepted_document_round_trips_with_its_hash(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = (
            st.floats(allow_nan=False, allow_infinity=False)
            | st.floats(1e-3, 1.0)
            | st.integers(-(10**20), 10**20)
        )

        def values_for(default):
            if isinstance(default, list):
                return st.lists(finite, min_size=1, max_size=4)
            if isinstance(default, int):
                return st.integers(0, 2**64) | st.sampled_from([8, 64, 4096, 16384])
            return finite

        def default_of(section, key):
            return DEFAULT_DOCUMENT[section][key] if section else DEFAULT_DOCUMENT[key]

        # A few fields at a time, so that a fair share of documents parse.
        overrides = st.lists(st.sampled_from(DOCUMENT_FIELDS), max_size=6, unique=True).flatmap(
            lambda paths: st.fixed_dictionaries({p: values_for(default_of(*p)) for p in paths})
        )

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(overrides)
        def check(given):
            doc: dict = {}
            for (section, key), value in given.items():
                with_value(doc, section, key, value)
            try:
                cfg = ks.parse_config(json.dumps(doc))
            except (ParseError, ValidationError):
                return
            again = ks.parse_config(ks.emit_config(cfg))
            assert again == cfg
            assert ks.config_hash(again) == ks.config_hash(cfg) == hashlib_hash(cfg)

        check()

    def test_largest_double_round_trips(self):
        # Its SI value shifts back past the largest double, to inf.
        cfg = ks.parse_config('{"fiber": {"walkoff_ps_m": 1.7976931348623157e308}}')
        assert ks.parse_config(ks.emit_config(cfg)) == cfg

    def test_emit_is_stable(self):
        cfg = ks.parse_config("")
        assert ks.emit_config(cfg) == ks.emit_config(ks.parse_config(ks.emit_config(cfg)))


class TestExactUnitConversion:
    def test_default_bench_fields_parse_to_si_literal(self):
        cfg = ks.parse_config("")
        off = [
            (f"{section}.{key}", get(cfg), si_literal(DEFAULT_DOCUMENT[section][key], exp))
            for section, key, exp, get in BENCH_FIELDS
            if get(cfg) != si_literal(DEFAULT_DOCUMENT[section][key], exp)
        ]
        assert off == []

    def test_default_sweep_axes_parse_to_si_literals(self):
        cfg = ks.parse_config("")
        sweep = DEFAULT_DOCUMENT["sweep"]
        off_energies = [
            (x, e) for x, e in zip(sweep["energies_nj"], cfg.sweep.energies) if e != si_literal(x, -9)
        ]
        off_delays = [
            (x, d) for x, d in zip(sweep["delays_ps"], cfg.sweep.delays) if d != si_literal(x, -12)
        ]
        assert off_energies == []
        assert off_delays == []

    def test_emit_defaults_gives_back_default_document(self):
        text = ks.emit_config(ks.default_config())
        assert "7.500000000000001" not in text
        assert json.loads(text) == DEFAULT_DOCUMENT

    def test_decimal_literals_parse_exactly_and_round_trip(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # At most 15 significant digits and a normal exponent range, so the
        # literal survives the trip through a double unchanged.
        literal = st.tuples(
            st.integers(-(10**15) + 1, 10**15 - 1), st.integers(-250, 250)
        ).map(lambda mk: f"{mk[0]}e{mk[1]}")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(literal, min_size=1, max_size=6))
        def check(literals):
            cfg = ks.parse_config('{"sweep": {"delays_ps": [%s]}}' % ", ".join(literals))
            m_k = [text.split("e") for text in literals]
            assert cfg.sweep.delays == tuple(float(f"{m}e{int(k) - 12}") for m, k in m_k)
            emitted = ks.emit_config(cfg)
            assert json.loads(emitted)["sweep"]["delays_ps"] == [float(t) for t in literals]
            assert ks.parse_config(emitted) == cfg

        check()


class TestFieldTable:
    def test_rows_cover_every_config_field_once(self):
        hints = typing.get_type_hints(ks.ExperimentConfig)
        expected = set()
        for name, kind in hints.items():
            if dataclasses.is_dataclass(kind):
                expected |= {(name, f.name) for f in dataclasses.fields(kind)}
            else:
                expected.add((None, name))
        rows = [(row.section, row.name) for row in _FIELDS]
        assert len(rows) == len(set(rows))
        assert set(rows) == expected

    def test_default_hash_is_pinned(self):
        cfg = ks.default_config()
        assert ks.config_hash(cfg) == "e7b051d4f46d5793" == hashlib_hash(cfg)


class TestConfigHash:
    def test_hash_is_64_bit_hex(self):
        h = ks.config_hash(ks.parse_config(""))
        assert len(h) == 16
        int(h, 16)

    def test_equal_configs_share_hash(self):
        assert ks.config_hash(ks.parse_config("")) == ks.config_hash(ks.parse_config("{}"))

    @pytest.mark.parametrize(
        "doc",
        [
            {"pump": {"energy_nj": 8.1}},
            {"fiber": {"n2_m2_w": 2.7e-20}},
            {"rng_seed": 54321},
            {"sweep": {"delays_ps": [0.0]}},
            {"solver": {"steps": 128}},
        ],
    )
    def test_any_field_change_changes_hash(self, doc):
        base = ks.config_hash(ks.parse_config(""))
        assert ks.config_hash(ks.parse_config(json.dumps(doc))) != base
