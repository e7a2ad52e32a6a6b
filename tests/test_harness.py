import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entshape import channels
from entshape.entanglement import er_bell_diagonal
from entshape.harness import experiments, tables
from entshape.harness.claims import CLAIMS, claim
from entshape.harness.config import (
    CONVENTIONS,
    DEFAULT_P_PRIME,
    ER_STATES,
    MAX_N_PAIRS,
    MAX_SWEEP_COUNT,
    MAX_TRAJECTORY_SAMPLES,
    SIDES,
    ConfigError,
    ExperimentConfig,
    build_config,
    load_config_file,
    parse_value,
)
from entshape.harness.experiments import input_pair_state, run
from entshape.harness.tables import calibrate_p_prime
from entshape.harness.report import _is_reproduced, discrepancy_entry, render_report
from entshape.qstate import BellDiagonalState, DensityMatrix, binary_entropy, werner


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "entshape", *args],
        capture_output=True,
        text=True,
    )


def strip_wall_clock(path: Path) -> str:
    return "\n".join(
        line for line in path.read_text().splitlines() if "wall_clock" not in line
    )


class TestConfig:
    def test_parse_values(self):
        assert parse_value("p", "0.3") == 0.3
        assert parse_value("n_pairs", "16") == 16
        assert parse_value("quiet", "true") is True
        assert parse_value("convention", "oracle") == "oracle"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_value("bogus", "1")

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\np = 0.25\nn_pairs = 8  # inline\nconvention = paper\n")
        overrides = load_config_file(path)
        assert overrides == {"p": 0.25, "n_pairs": 8, "convention": "paper"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("p 0.25\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(path)

    def test_validation_catches_ranges(self):
        with pytest.raises(ConfigError):
            build_config("table1", {"convention": "oracle", "p": 0.9})
        with pytest.raises(ConfigError):
            build_config("table1", {"convention": "oracle", "n_pairs": 3})
        with pytest.raises(ConfigError):
            build_config("table1", {"convention": "oracle", "rounds": 5})
        with pytest.raises(ConfigError):
            build_config("bogus", {})

    def test_convention_must_be_explicit(self):
        for experiment in ("table1", "flow", "sweep"):
            with pytest.raises(ConfigError, match="explicitly"):
                build_config(experiment, {})
        # Neither table2 nor er reads a convention, and selfcheck needs none;
        # one given to them must still be valid.
        for experiment in ("table2", "er", "selfcheck"):
            build_config(experiment, {})
            with pytest.raises(ConfigError, match="explicitly"):
                build_config(experiment, {"convention": "claim"})

    def test_er_param_checked_against_state_family(self):
        for state, bad in [
            ("werner", 5.0), ("werner", -0.34), ("depolarizing", 0.76),
            ("depolarizing", -0.1), ("amplitude_damping", 1.01),
        ]:
            with pytest.raises(ConfigError, match="er_param"):
                build_config("er", {"convention": "oracle", "er_state": state, "er_param": bad})
        build_config("er", {"convention": "oracle", "er_state": "werner", "er_param": -1 / 3})
        build_config("er", {"convention": "oracle", "er_state": "bell", "er_param": 5.0})

    def test_non_finite_values_rejected(self):
        for key in ("er_param", "sweep_stop", "t_total", "p_prime"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ConfigError, match="not finite"):
                    build_config("selfcheck", {key: bad})

    def test_trajectory_sample_cap(self):
        # Validation only: none of these grids is run.
        build_config("flow", {"convention": "oracle", "t_total": MAX_TRAJECTORY_SAMPLES - 1, "t_step": 1.0})
        for overrides in (
            {"t_total": MAX_TRAJECTORY_SAMPLES, "t_step": 1.0},
            {"t_total": 1e6, "t_step": 1e-6},
        ):
            with pytest.raises(ConfigError, match="trajectory samples"):
                build_config("flow", {"convention": "oracle", **overrides})

    def test_flow_needs_compression(self):
        with pytest.raises(ConfigError, match="p_prime"):
            build_config("flow", {"convention": "oracle", "p": DEFAULT_P_PRIME / 2})
        with pytest.raises(ConfigError, match="p_prime"):
            build_config("flow", {"convention": "oracle", "p_prime": 0.5})
        build_config("flow", {"convention": "oracle", "p": DEFAULT_P_PRIME})
        # Only flow compares a compressed trajectory against the raw one.
        build_config("table1", {"convention": "oracle", "p_prime": 0.5})

    def test_n_pairs_cap(self):
        build_config("table1", {"convention": "oracle", "n_pairs": MAX_N_PAIRS})
        with pytest.raises(ConfigError, match="n_pairs"):
            build_config("table1", {"convention": "oracle", "n_pairs": 2 * MAX_N_PAIRS})
        # A huge rounds value is rejected without building 2**rounds.
        for rounds in (65, 10**18):
            with pytest.raises(ConfigError, match="rounds"):
                build_config("table1", {"convention": "oracle", "n_pairs": MAX_N_PAIRS, "rounds": rounds})

    def test_removed_keys_rejected(self):
        for key in (
            "workers", "ad_grid", "ad_slices", "batch_count", "run_count",
            "dd_noise_density", "dd_pulse_count", "dd_pulse_frequency",
        ):
            with pytest.raises(ConfigError, match="unknown"):
                parse_value(key, "1")


@st.composite
def config_values(draw):
    """Every configurable key at a value that passes validation for selfcheck."""
    exponent = draw(st.integers(0, 64))
    sweep_start = draw(st.floats(0.0, 0.7))
    t_step = draw(st.floats(1e-3, 1.0))
    return {
        "convention": draw(st.sampled_from(CONVENTIONS)),
        "sides": draw(st.sampled_from(SIDES)),
        "p": draw(st.floats(0.0, 0.75)),
        "gamma": draw(st.floats(0.0, 1.0)),
        "p_prime": draw(st.floats(0.0, 0.75)),
        "n_pairs": 2**exponent,
        "rounds": draw(st.integers(0, exponent)),
        "master_seed": draw(st.integers(0, 2**64 - 1)),
        "er_state": draw(st.sampled_from(ER_STATES)),
        # [0, 3/4] lies inside every state family's domain.
        "er_param": draw(st.floats(0.0, 0.75)),
        "sweep_start": sweep_start,
        "sweep_stop": draw(st.floats(sweep_start, 0.75, exclude_min=True)),
        "sweep_count": draw(st.integers(2, MAX_SWEEP_COUNT)),
        "t_total": draw(st.floats(t_step, 1000 * t_step)),
        "t_step": t_step,
        "out_dir": draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
        "quiet": draw(st.booleans()),
    }


def _load_lines(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text("".join(f"{line}\n" for line in lines))
        return load_config_file(path)


FLOAT_KEYS = ("p", "gamma", "p_prime", "er_param", "sweep_start", "sweep_stop", "t_total", "t_step")


class TestConfigProperties:
    @given(values=config_values())
    @settings(max_examples=60, deadline=None)
    def test_file_round_trip(self, values):
        overrides = _load_lines(f"{key} = {value}" for key, value in values.items())
        assert overrides == values
        cfg = build_config("selfcheck", overrides)
        assert {key: getattr(cfg, key) for key in values} == values

    @given(
        key=st.from_regex(r"[a-z_]{1,16}", fullmatch=True).filter(
            lambda k: k not in ExperimentConfig.__dataclass_fields__
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown"):
            _load_lines([f"{key} = 1"])

    @given(key=st.sampled_from(FLOAT_KEYS), raw=st.sampled_from(["nan", "inf", "-inf"]))
    @settings(max_examples=30, deadline=None)
    def test_non_finite_rejected(self, key, raw):
        overrides = _load_lines([f"{key} = {raw}"])
        with pytest.raises(ConfigError, match="not finite"):
            build_config("selfcheck", overrides)


class TestConventions:
    def test_oracle_one_sided(self):
        state = input_pair_state("oracle", "one", 0.2)
        assert state.coefficients == pytest.approx((0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3), abs=1e-12)

    def test_paper_one_sided(self):
        state = input_pair_state("paper", "one", 0.2)
        assert state.fidelity == pytest.approx(0.85, abs=1e-12)

    def test_two_sided_composition(self):
        one = input_pair_state("oracle", "one", 0.2)
        two = input_pair_state("oracle", "two", 0.2)
        assert two.fidelity < one.fidelity

    @pytest.mark.parametrize("geometry", ["one", "two"])
    @pytest.mark.parametrize("bridge", ["oracle", "paper"])
    def test_pair_bell_weights_closed_form(self, bridge, geometry):
        # The calibration inverts these closed forms instead of building the
        # Kraus output: each transit shrinks the Werner parameter by 1 - 4p/3
        # (oracle) or 1 - p (paper, the Kraus path at 3p/4), and two transits
        # square the factor; werner((1 - p)^k) is the paper's direct mixture.
        k = 1 if geometry == "one" else 2
        for p in np.linspace(0, 0.75, 31):
            shrink = (1 - 4 * p / 3 if bridge == "oracle" else 1 - p) ** k
            state = input_pair_state(bridge, geometry, p)
            expected = werner(shrink).coefficients
            assert max(abs(a - b) for a, b in zip(state.coefficients, expected)) <= 1e-15

    def test_calibration_builds_no_state(self, monkeypatch):
        counts = {"apply": 0, "density_matrix": 0}
        real_apply, real_init = channels.apply, DensityMatrix.__init__

        def counted_apply(*args, **kwargs):
            counts["apply"] += 1
            return real_apply(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            counts["density_matrix"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(channels, "apply", counted_apply)
        monkeypatch.setattr(experiments, "apply", counted_apply)
        monkeypatch.setattr(DensityMatrix, "__init__", counted_init)
        expected = {
            ("paper", "one"): 0.502178519387724,
            ("paper", "two"): 0.29443534625643564,
            ("oracle", "one"): 0.251089259693862,
            ("oracle", "two"): 0.13829496059816254,
        }
        for (bridge, geometry), p_prime in expected.items():
            calib = calibrate_p_prime(0.187, bridge, geometry)
            assert abs(calib["p_prime"] - p_prime) <= 1e-15
        assert counts == {"apply": 0, "density_matrix": 0}
        # The counters see what a Kraus-path pair builds: one apply per transit.
        input_pair_state("oracle", "two", 0.2)
        assert counts["apply"] == 2 and counts["density_matrix"] > 0

    def test_calibration_known_solutions(self):
        # Calibrated values cross-checked against direct formula inversions.
        paper = calibrate_p_prime(0.187, "paper", "one")
        assert paper["p_prime"] == pytest.approx(0.5022, abs=1e-3)
        oracle_one = calibrate_p_prime(0.187, "oracle", "one")
        assert oracle_one["p_prime"] == pytest.approx(0.2511, abs=1e-3)
        oracle_two = calibrate_p_prime(0.187, "oracle", "two")
        assert oracle_two["p_prime"] == pytest.approx(0.1383, abs=1e-3)
        assert oracle_two["achieved_er"] == pytest.approx(0.187, abs=1e-9)

    @given(
        target=st.floats(0.0, 1.0),
        bridge=st.sampled_from(["oracle", "paper"]),
        geometry=st.sampled_from(["one", "two"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_calibration_reaches_every_target(self, target, bridge, geometry):
        # Every target in [0, 1] has a p' under every reading, and the Kraus
        # pair at that p' reads the target back: oracle by the closed form,
        # paper by the unclamped fidelity form at the Werner parameter.
        p_prime = calibrate_p_prime(target, bridge, geometry)["p_prime"]
        assert 0 <= p_prime <= (0.75 if bridge == "oracle" else 1.0)
        pair = input_pair_state(bridge, geometry, p_prime)
        if bridge == "oracle":
            read_back = er_bell_diagonal(pair).value
        else:
            read_back = 1 - binary_entropy((1 + (4 * pair.fidelity - 1) / 3) / 2)
        assert abs(read_back - target) <= 1e-12

    @pytest.mark.parametrize("target", [-1e-12, 1 + 1e-12, math.nan])
    def test_calibration_rejects_target_outside_unit_interval(self, target):
        with pytest.raises(ValueError, match="outside"):
            calibrate_p_prime(target, "oracle", "one")


class TestReport:
    def test_reproduced_by_std_rule(self):
        entry = discrepancy_entry(claim("table1_success"), 0.33, "test")
        assert entry["status"] == "reproduced"  # |0.33 - 0.31| <= 3 * 0.02
        entry = discrepancy_entry(claim("table1_success"), 0.40, "test")
        assert entry["status"] == "discrepant"

    def test_relative_window_for_bare_claims(self):
        entry = discrepancy_entry(claim("h2_0915"), 0.456, "test")
        assert entry["status"] == "reproduced"
        entry = discrepancy_entry(claim("h2_0915"), 0.4196, "test")
        assert entry["status"] == "discrepant"
        assert entry["absolute_gap"] == pytest.approx(0.0364, abs=1e-4)

    def test_zero_claim_has_no_relative_gap(self):
        entry = discrepancy_entry(claim("dd_limit"), 0.2, "test")
        assert entry["status"] == "discrepant"
        assert entry["absolute_gap"] == pytest.approx(0.2, abs=1e-12)
        assert entry["relative_gap"] is None
        assert "relative" not in render_report("x", [entry]).split("gap:")[1].splitlines()[0]

    def test_render_contains_all_entries(self):
        entries = [
            discrepancy_entry(claim("h2_0915"), 0.4196, "direct"),
            discrepancy_entry(claim("table1_success"), 0.33, "exact tree"),
        ]
        text = render_report("table1", entries)
        assert "h2_0915" in text and "table1_success" in text
        assert "[DISCREPANT]" in text and "[REPRODUCED]" in text

    def test_registry_has_mandatory_entries(self):
        for key in ("h2_0915", "hashing_rate_p02", "eb_threshold", "dd_limit"):
            assert key in CLAIMS


class TestExperiments:
    def test_table1_writes_report_with_mandatory_entries(self, tmp_path):
        cfg = build_config(
            "table1",
            {
                "convention": "both",
                "out_dir": str(tmp_path),
            },
        )
        result = run(cfg)
        assert result.ok
        report = (tmp_path / "table1_discrepancy_report.txt").read_text()
        for key in ("h2_0915", "hashing_rate_p02", "eb_threshold", "dd_limit"):
            assert key in report
        doc = json.loads((tmp_path / "table1_result.json").read_text())
        assert doc["experiment"] == "table1"
        claim_keys = {d["claim"] for d in doc["discrepancies"]}
        assert {"table1_success", "table1_er_global", "pes_calibration"} <= claim_keys

    def test_pes_row_realizes_compressed_parameter(self, tmp_path):
        cfg = build_config(
            "table1",
            {"convention": "oracle", "sides": "one", "out_dir": str(tmp_path)},
        )
        result = run(cfg)
        row = next(r for r in result.rows if r["protocol"] == "pre_channel_shaping")
        assert cfg.p == 0.2 and row["p_prime"] == 0.17
        assert row["dd_noise_density_over_frequency"] == math.log(cfg.p / 0.17)
        assert row["er_per_pair_oracle"] == pytest.approx(
            er_bell_diagonal(BellDiagonalState((0.83, 0.17 / 3, 0.17 / 3, 0.17 / 3))).value, abs=1e-9
        )

    def test_calibrated_rows_report_achieved_er(self, tmp_path):
        cfg = build_config("table1", {"convention": "both", "out_dir": str(tmp_path)})
        rows = [r for r in run(cfg).rows if r["protocol"] == "pre_channel_shaping_calibrated"]
        assert len(rows) == 4
        for row in rows:
            calib = calibrate_p_prime(0.187, row["convention"], row["sides"])
            assert row["calibration_achieved_er"] == calib["achieved_er"]
            assert row["calibration_achieved_er"] == pytest.approx(0.187, abs=1e-12)
            # Only the oracle/two calibration lies within compression's reach of p = 0.2.
            assert row["dd_reachable_from_p"] == ((row["convention"], row["sides"]) == ("oracle", "two"))
            if row["convention"] == "paper":
                # The unclamped fidelity form at F = 1 - p' is neither column.
                assert row["er_per_pair_oracle"] == pytest.approx(0.0444, abs=1e-4)
                assert row["er_per_pair_fidelity_form"] == pytest.approx(0.3021, abs=1e-4)

    def test_table2_damping_gap_carries_interval(self, tmp_path):
        cfg = build_config(
            "table2",
            {"convention": "oracle", "sides": "one", "out_dir": str(tmp_path)},
        )
        result = run(cfg)
        row = next(r for r in result.rows if r["protocol"] == "damping_suppression")
        entry = next(e for e in result.discrepancies if e["claim"] == "ad_delta")
        assert entry["interval"] == row["delta_er_interval"]

    @pytest.mark.parametrize(
        "experiment, convention, sides",
        # No calibration is feasible under paper/one, so pes_calibration is decided on NaN.
        [("table1", "both", "both"), ("table1", "paper", "one"), ("table2", "oracle", "both")],
    )
    def test_every_claim_check_has_single_status(self, tmp_path, experiment, convention, sides):
        cfg = build_config(
            experiment,
            {"convention": convention, "sides": sides, "out_dir": str(tmp_path)},
        )
        for entry in run(cfg).discrepancies:
            rule = _is_reproduced(CLAIMS[entry["claim"]], entry["computed_value"])
            assert entry["status"] == ("reproduced" if rule else "discrepant")

    def test_no_certified_interval_straddles_a_status_window(self, tmp_path):
        # A status decided at one end of a certified interval holds at the other.
        cfg = build_config("table2", {"out_dir": str(tmp_path)})
        entries = [e for e in run(cfg).discrepancies if "interval" in e]
        assert [e["claim"] for e in entries] == ["table2_pes", "ad_delta"]
        for entry in entries:
            ends = [_is_reproduced(CLAIMS[entry["claim"]], end) for end in entry["interval"]]
            assert ends == [entry["status"] == "reproduced"] * 2

    @pytest.mark.parametrize(
        "experiment, overrides",
        [("table2", {}), ("er", {"er_state": "werner", "er_param": 0.83}), ("selfcheck", {})],
    )
    def test_unread_convention_leaves_result_unchanged(self, tmp_path, experiment, overrides):
        # These experiments read no convention, so none given, or any given,
        # writes the same result document outside the wall clock.
        path = tmp_path / f"{experiment}_result.json"
        documents = set()
        for given in ({}, {"convention": "oracle"}, {"convention": "paper"}, {"convention": "both"}):
            run(build_config(experiment, {**overrides, **given, "out_dir": str(tmp_path)}))
            documents.add(strip_wall_clock(path))
        assert len(documents) == 1
        assert json.loads(path.read_text())["config"]["convention"] == ""

    @pytest.mark.parametrize("experiment", ["table1", "table2"])
    def test_claim_statuses_are_pinned(self, tmp_path, experiment):
        # Every claim's status, in report order, at the default config plus the
        # convention and sides stored next to the statuses.
        pinned = json.loads((Path(__file__).parent / "claim_statuses.json").read_text())[experiment]
        cfg = build_config(experiment, {**pinned["config"], "out_dir": str(tmp_path)})
        statuses = [(e["claim"], e["status"]) for e in run(cfg).discrepancies]
        assert statuses == list(pinned["statuses"].items())

    def test_flow_round_trip(self, tmp_path):
        cfg = build_config(
            "flow",
            {"convention": "oracle", "sides": "one", "out_dir": str(tmp_path), "t_step": 0.1},
        )
        result = run(cfg)
        assert result.ok
        csv_path = tmp_path / "post_trajectory.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,fidelity,er_bits,mixedness"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        # repr round-trip: parsing reproduces the in-memory samples exactly
        from entshape.dynamics import trajectory

        post, _ = trajectory(cfg.p, DEFAULT_P_PRIME, 1.0, cfg.t_total, cfg.t_step)
        for line, sample in zip(lines[1:], post):
            parsed = tuple(float(x) for x in line.split(","))
            assert parsed == sample

    def test_flow_points_ordering(self, tmp_path):
        cfg = build_config(
            "flow",
            {"convention": "oracle", "sides": "one", "out_dir": str(tmp_path)},
        )
        result = run(cfg)
        points = {r["name"]: r for r in result.rows}
        assert points["pes_endpoint"]["er_bits"] >= points["post_global_average"]["er_bits"]
        assert points["pes_endpoint"]["mixedness"] <= points["post_global_average"]["mixedness"]

    def test_sweep_csv(self, tmp_path):
        cfg = build_config(
            "sweep",
            {"convention": "oracle", "sides": "one", "out_dir": str(tmp_path), "sweep_count": 3},
        )
        result = run(cfg)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("p,convention,sides")
        assert len(lines) == 1 + 3

    def test_er_experiment(self, tmp_path):
        cfg = build_config(
            "er",
            {"convention": "oracle", "er_state": "werner", "er_param": 0.83, "out_dir": str(tmp_path)},
        )
        result = run(cfg)
        row = result.rows[0]
        assert row["er_numeric"] == pytest.approx(row["er_closed_form"], abs=5e-3)

    def test_selfcheck_passes(self, tmp_path):
        cfg = build_config("selfcheck", {"out_dir": str(tmp_path)})
        result = run(cfg)
        assert result.ok
        assert all(row["ok"] for row in result.rows)


STATIC_CLAIMS = (
    "h2_0915",
    "er_werner_083",
    "hashing_rate_p02",
    "eb_threshold",
    "dd_limit",
    "fidelity_bridge",
    "pulse_average_compression",
    "rate_sign",
)


def post_row(success=0.5, er_global=0.5, er_selected=0.5, rates=(0.5, 0.5)):
    """A synthetic distillation row carrying only the columns the claim records read."""
    return {
        "success_probability_exact": success,
        "er_global_oracle": er_global,
        "er_selected_oracle": er_selected,
        "rate_selected_per_pair": rates[0],
        "rate_success_times_global": rates[1],
    }


def nearest_records(table, post):
    # Each method text is what its wording function was given, so a test reads the pick back.
    return tables._nearest_reading_records(table, post, lambda label, values: label, lambda rates: rates)


class TestClaimRecords:
    def test_nearest_reading_takes_first_on_tie(self):
        claimed = claim("table1_success").value
        low, high = claimed - 0.0625, claimed + 0.0625
        assert abs(low - claimed) == abs(high - claimed)
        for first, second in [("a/one", "b/two"), ("b/two", "a/one")]:
            post = {first: post_row(success=low), second: post_row(success=high), "c/one": post_row(success=0.9)}
            assert nearest_records("table1", post)["table1_success"] == (low, first)
            post = {first: post_row(er_global=0.4), second: post_row(er_global=0.4)}
            assert nearest_records("table1", post)["table1_er_global"] == (0.4, first)

    @pytest.mark.parametrize(
        "rates, nearest",
        [
            ({"a": (0.5, 0.2), "b": (0.3, 0.0045), "c": (0.006, 1.0)}, 0.0045),
            ({"a": (0.5, 0.2), "b": (0.3, 0.0045), "c": (0.0041, 1.0)}, 0.0041),
        ],
    )
    def test_rate_is_nearest_of_both_definitions_of_every_reading(self, rates, nearest):
        post = {label: post_row(rates=pair) for label, pair in rates.items()}
        assert nearest_records("table1", post)["table1_rate"] == (nearest, rates)

    @pytest.mark.parametrize(
        "table, keys",
        [
            ("table1", ["table1_success", "table1_er_global", "table1_er_selected", "table1_rate"]),
            # The registry holds no table2_er_selected claim, so table2 gets no such record.
            ("table2", ["table2_success", "table2_er_global", "table2_rate"]),
        ],
    )
    def test_single_reading_gets_every_record_of_its_table(self, table, keys):
        row = post_row(success=0.3, er_global=0.02, er_selected=0.7, rates=(0.001, 0.02))
        records = nearest_records(table, {"one": row})
        assert list(records) == keys
        values = {"success": 0.3, "er_global": 0.02, "er_selected": 0.7, "rate": 0.001}
        for key in keys:
            method = {"one": (0.001, 0.02)} if key.endswith("rate") else "one"
            assert records[key] == (values[key.removeprefix(f"{table}_")], method)

    def test_static_entries_are_shared_and_ignore_the_config(self, tmp_path):
        def static_entries(experiment, **settings):
            cfg = build_config(experiment, {**settings, "out_dir": str(tmp_path)})
            entries = {e["claim"]: e for e in run(cfg).discrepancies if e["claim"] in STATIC_CLAIMS}
            assert sorted(entries) == sorted(STATIC_CLAIMS)
            return entries

        reference = static_entries("table1", convention="both")
        assert "oracle_reading" in reference["er_werner_083"]
        assert static_entries("table2") == reference
        assert static_entries("table1", convention="paper", sides="one", p=0.5, p_prime=0.3) == reference
        assert static_entries("table2", convention="paper", sides="two", gamma=0.7, n_pairs=16) == reference


class TestCLI:
    def test_check_exit_zero(self, tmp_path):
        proc = cli("check", "--out", str(tmp_path), "--quiet")
        assert proc.returncode == 0, proc.stderr

    def test_missing_convention_exits_two(self, tmp_path):
        proc = cli("table1", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "convention" in proc.stderr

    @pytest.mark.parametrize(
        "args, loaded",
        [
            ((), []),
            (("flow", "--convention", "oracle"), []),
            (("er", "--state", "werner", "--param", "0.83"), ["entshape.ree"]),
            (("check",), ["entshape.ree"]),
            (("table1", "--convention", "oracle"), ["entshape.harness.tables"]),
        ],
        ids=["import", "flow", "er", "check", "table1"],
    )
    def test_subcommand_compiles_only_what_it_runs(self, tmp_path, args, loaded):
        # A fresh interpreter per case: the X reduction and the table runners
        # are imported by the subcommands that run them, and only by those.
        # Every solve here is an exact X state whose interval closes, so none
        # loads the general solver.
        script = (
            "import json, sys\n"
            "from entshape.harness import cli\n"
            "code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
            "watched = ('entshape.ree', 'entshape.ree_general', 'entshape.harness.tables')\n"
            "print(json.dumps([m for m in watched if m in sys.modules]))\n"
            "sys.exit(code)\n"
        )
        argv = [*args, "--out", str(tmp_path), "--quiet"] if args else []
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == loaded

    def test_general_solver_compiles_only_for_inputs_outside_the_x_pattern(self):
        # A fresh interpreter: a damped pair is an exact X state and loads the
        # X reduction alone; the same pair with its kept qubit turned by
        # R_y(pi/3) has entries outside the X pattern and loads the general
        # solver, whose front end rotates it back.
        script = (
            "import json, math, sys\n"
            "import numpy as np\n"
            "from entshape.channels import amplitude_damping, transmit_bell_pair\n"
            "from entshape.entanglement import er_numeric\n"
            "from entshape.qstate import DensityMatrix\n"
            "watched = ('entshape.ree', 'entshape.ree_general')\n"
            "pair = transmit_bell_pair(amplitude_damping(0.3))\n"
            "closes = [er_numeric(pair).converged]\n"
            "loaded = [[m for m in watched if m in sys.modules]]\n"
            "c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)\n"
            "u = np.kron(np.eye(2), [[c, -s], [s, c]])\n"
            "closes.append(er_numeric(DensityMatrix(u @ pair.matrix @ u.T, (2, 2))).converged)\n"
            "loaded.append([m for m in watched if m in sys.modules])\n"
            "print(json.dumps([loaded, closes]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded, closes = json.loads(proc.stdout)
        assert loaded == [["entshape.ree"], ["entshape.ree", "entshape.ree_general"]]
        assert closes == [True, True]

    def test_unwritable_output_exits_three(self):
        proc = cli(
            "er",
            "--convention",
            "oracle",
            "--out",
            "/proc/entshape_cannot_write_here",
            "--quiet",
        )
        assert proc.returncode == 3, (proc.returncode, proc.stderr)

    @pytest.mark.parametrize(
        "args",
        [
            ("table1", "--convention", "both"),
            ("table2", "--convention", "oracle"),
            ("flow", "--convention", "oracle"),
            ("sweep", "--convention", "both"),
            ("er", "--convention", "oracle", "--state", "amplitude_damping", "--param", "0.3"),
            ("check",),
        ],
        ids=lambda args: args[0],
    )
    def test_repeat_run_byte_identical(self, tmp_path, args):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            proc = cli(*args, "--seed", "424242", "--out", str(out), "--quiet")
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                {
                    f.name: strip_wall_clock(f).replace(str(out), "OUT")
                    for f in sorted(out.iterdir())
                }
            )
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "args",
        [
            ("table1", "--convention", "both", "--sides", "both"),
            ("table2", "--convention", "oracle", "--sides", "both"),
        ],
        ids=lambda args: args[0],
    )
    def test_tables_are_seed_free(self, tmp_path, args):
        # Every table column is read off the exact branch table.
        documents, reports = [], []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            proc = cli(*args, "--seed", seed, "--out", str(out), "--quiet")
            assert proc.returncode == 0, proc.stderr
            doc = json.loads((out / f"{args[0]}_result.json").read_text())
            for key in ("wall_clock_seconds", "files"):
                del doc[key]
            for key in ("master_seed", "out_dir"):
                del doc["config"][key]
            documents.append(doc)
            reports.append((out / f"{args[0]}_discrepancy_report.txt").read_bytes())
        assert documents[0] == documents[1]
        assert reports[0] == reports[1]

    def test_config_cannot_override_subcommand(self, tmp_path):
        config = tmp_path / "f.cfg"
        config.write_text("experiment = sweep\n")
        out = tmp_path / "out"
        proc = cli("table1", "--convention", "oracle", "--config", str(config), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "experiment" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_er_cli(self, tmp_path):
        proc = cli(
            "er", "--convention", "oracle", "--state", "werner",
            "--param", "0.9", "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "er_numeric" in proc.stdout

    def test_er_summary_lines(self, tmp_path, capsys):
        # In process and without --quiet, so the summary printer runs.
        from entshape.harness.cli import main

        assert main(["er", "--state", "werner", "--param", "0.83", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "experiment: er  ok: True"
        assert lines[1].startswith("  state=werner  param=0.83  er_numeric=0.449458  er_numeric_lower=0.449458  ")
        assert "converged=True" in lines[1].split()
        assert sorted(lines[2:]) == sorted(f"wrote {path}" for path in tmp_path.iterdir())
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "state, param",
        # werner_channel is gone: the depolarizing family names the same state.
        [("werner", "5"), ("amplitude_damping", "nan"), ("werner_channel", "0.2")],
    )
    def test_bad_er_param_exits_two(self, tmp_path, state, param):
        out = tmp_path / "out"
        proc = cli(
            "er", "--convention", "oracle", "--state", state,
            "--param", param, "--out", str(out),
        )
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_runs_flag_is_gone(self, tmp_path):
        out = tmp_path / "out"
        proc = cli("table1", "--convention", "oracle", "--runs", "10", "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "--runs" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_run_count_key_is_gone(self, tmp_path):
        config = tmp_path / "runs.cfg"
        config.write_text("run_count = 10\n")
        out = tmp_path / "out"
        proc = cli("table1", "--convention", "oracle", "--config", str(config), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "unknown configuration key" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_huge_sweep_count_exits_two(self, tmp_path):
        config = tmp_path / "huge.cfg"
        config.write_text(f"sweep_count = {MAX_SWEEP_COUNT + 1}\n")
        proc = cli("sweep", "--convention", "oracle", "--config", str(config), "--out", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "sweep grid" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("setting", ["p = 0.1", "p_prime = 0.5"])
    def test_flow_without_compression_exits_two(self, tmp_path, setting):
        config = tmp_path / "flow.cfg"
        config.write_text(setting + "\n")
        proc = cli("flow", "--convention", "oracle", "--config", str(config), "--out", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "p_prime" in proc.stderr and "Traceback" not in proc.stderr

    def test_huge_n_pairs_exits_two(self, tmp_path):
        config = tmp_path / "huge.cfg"
        config.write_text(f"n_pairs = {2**1100}\n")
        proc = cli("table1", "--convention", "oracle", "--config", str(config), "--out", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "n_pairs" in proc.stderr and "Traceback" not in proc.stderr

    def test_huge_trajectory_exits_two(self, tmp_path):
        # One sample past the cap, so a missing check would cost a second,
        # not an allocation of the size the cap guards against.
        config = tmp_path / "huge.cfg"
        config.write_text(f"t_total = {MAX_TRAJECTORY_SAMPLES}\nt_step = 1\n")
        proc = cli("flow", "--convention", "oracle", "--config", str(config), "--out", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "trajectory samples" in proc.stderr and "Traceback" not in proc.stderr
