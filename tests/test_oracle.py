"""Loading-protocol generation and degrading-hysteresis simulation."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelearn import oracle
from bracelearn.errors import DivergenceError, ValidationError
from bracelearn.oracle import BoucWenParams, LoadingProtocol, Series


class TestLoadingProtocol:
    def test_default_geometry(self, default_data):
        disp, _ = default_data
        assert len(disp) == 26 * 200 + 1 == 5201
        assert disp.values.max() == 1.0
        assert disp.values.min() == -1.0
        assert disp.values[0] == 0.0
        assert disp.values[-1] == 0.0

    def test_single_cycle(self):
        protocol = LoadingProtocol(
            delta_y=1.0, amplitude_factors=(1.0,), cycles_per_amplitude=1,
            points_per_cycle=16,
        )
        series = oracle.generate_protocol(protocol)
        assert len(series) == 17
        assert series.values[0] == 0.0 and series.values[-1] == 0.0
        assert series.values.max() == 1.0 and series.values.min() == -1.0

    def test_per_amplitude_peaks(self, default_protocol, default_data):
        disp, _ = default_data
        ppc = default_protocol.points_per_cycle
        for level, factor in enumerate(default_protocol.amplitude_factors):
            for rep in range(2):
                cyc = level * 2 + rep
                segment = disp.values[cyc * ppc : (cyc + 1) * ppc + 1]
                assert segment.max() == pytest.approx(factor * 0.1, rel=1e-12)

    def test_symmetry(self, default_data):
        disp, _ = default_data
        assert disp.values.max() == -disp.values.min()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(delta_y=0.0), "delta_y"),
            (dict(amplitude_factors=()), "amplitude_factors"),
            (dict(amplitude_factors=(1.0, 1.0)), "increasing"),
            (dict(amplitude_factors=(2.0, 1.0)), "increasing"),
            (dict(amplitude_factors=(-1.0, 2.0)), "positive"),
            (dict(cycles_per_amplitude=0), "cycles_per_amplitude"),
            (dict(points_per_cycle=7), "points_per_cycle"),
            (dict(dt=0.0), "dt"),
            # 10 x delta_y, the largest default peak, is past the float range
            (dict(delta_y=1e308), "delta_y"),
            (dict(delta_y=2e307), "delta_y"),
            # entries float() cannot convert are named, not bare exceptions
            (dict(amplitude_factors=(1.0, 10**400)), r"amplitude_factors\[1\]"),
            (dict(amplitude_factors=(1.0, "x")), r"amplitude_factors\[1\]"),
            (dict(amplitude_factors=(1.0, None)), r"amplitude_factors\[1\]"),
        ],
    )
    def test_validation_names_field(self, kwargs, message):
        with pytest.raises(ValidationError, match=message) as excinfo:
            LoadingProtocol(**kwargs)
        assert excinfo.value.field == next(iter(kwargs))

    def test_sample_count_past_the_cap_rejected_before_allocating(self):
        # 1 amplitude x 100000 cycles x 10 points + 1 sample: one past the cap
        kwargs = dict(amplitude_factors=(1.0,), points_per_cycle=10)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="1000001 samples") as excinfo:
                LoadingProtocol(cycles_per_amplitude=100_000, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert excinfo.value.field == "cycles_per_amplitude"
        assert peak < 100_000  # no list of peaks, let alone the 8 MB record
        assert oracle.MAX_SAMPLES == 1_000_000
        LoadingProtocol(cycles_per_amplitude=99_999, **kwargs)  # 999991 samples


class TestSeries:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValidationError, match="dt"):
            Series(dt=-1.0, values=np.ones(3), unit=oracle.DISPLACEMENT)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="non-empty"):
            Series(dt=0.1, values=np.array([]), unit=oracle.FORCE)

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValidationError, match="unit"):
            Series(dt=0.1, values=np.ones(3), unit="velocity")

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValidationError, match="displacement.*sample 1") as excinfo:
            Series(dt=1.0, values=[1.0, np.nan, 2.0], unit=oracle.DISPLACEMENT)
        assert excinfo.value.field == "values"


class TestSimulate:
    def test_linear_limit(self, default_data):
        disp, _ = default_data
        params = BoucWenParams(k=2.0, alpha=1.0)
        force = oracle.simulate(params, disp)
        np.testing.assert_allclose(force.values, 2.0 * disp.values, rtol=1e-12)

    def test_zero_input_zero_output(self):
        disp = Series(dt=0.01, values=np.zeros(50), unit=oracle.DISPLACEMENT)
        force = oracle.simulate(BoucWenParams(), disp)
        assert np.all(force.values == 0.0)

    @pytest.mark.parametrize(
        "specimen, sha256",
        [
            (oracle.SPECIMENS["a"], "8efd6d41022f6fb7a8cb939dfe901780e507ca80f427a7b26ab16f6349252bc7"),
            (oracle.SPECIMENS["b"], "461f4612066c30bc4f9bfe51ccc8a4a2c2ab9e3414c8f2fa91f9b84c66d6f497"),
        ],
        ids=["a", "b"],
    )
    def test_trace_is_pinned(self, default_data, specimen, sha256):
        # recorded once: any change to the velocity or the RK4 arithmetic moves these bytes
        disp, _ = default_data
        trace = oracle.simulate_trace(specimen, disp)
        raw = trace.force.values.tobytes() + trace.z.tobytes() + trace.energy.tobytes()
        assert hashlib.sha256(raw).hexdigest() == sha256

    def test_single_sample(self):
        disp = Series(dt=0.1, values=[0.5], unit=oracle.DISPLACEMENT)
        force = oracle.simulate(BoucWenParams(), disp)
        assert force.values.tolist() == [0.05 * 10.0 * 0.5]  # alpha * k * x, with z still 0

    def test_requires_displacement_series(self):
        force_like = Series(dt=0.01, values=np.ones(10), unit=oracle.FORCE)
        with pytest.raises(ValidationError, match="displacement"):
            oracle.simulate(BoucWenParams(), force_like)

    def test_z_bound(self):
        # closed-form bound (A0 / (beta + gamma))^(1/n) = 1 for these values
        protocol = LoadingProtocol(
            delta_y=1.0, amplitude_factors=(2.0, 6.0, 10.0),
            cycles_per_amplitude=1, points_per_cycle=200,
        )
        disp = oracle.generate_protocol(protocol)
        params = BoucWenParams(
            k=2.0, alpha=0.1, A0=1.0, beta=0.5, gamma=0.5, n=1.0,
            delta_nu=0.0, delta_eta=0.0, asym=1.0, substeps=8,
        )
        trace = oracle.simulate_trace(params, disp)
        assert np.abs(trace.z).max() <= 1.0

    def test_small_signal_secant_stiffness(self):
        # amplitudes far below yield: secant stiffness ~ alpha*k + (1-alpha)*k*A0
        protocol = LoadingProtocol(
            delta_y=0.1, amplitude_factors=(0.01,), cycles_per_amplitude=1,
            points_per_cycle=400,
        )
        disp = oracle.generate_protocol(protocol)
        params = BoucWenParams(delta_nu=0.0, delta_eta=0.0)
        force = oracle.simulate(params, disp)
        peak = np.argmax(disp.values)
        secant = force.values[peak] / disp.values[peak]
        expected = params.alpha * params.k + (1 - params.alpha) * params.k * params.A0
        assert secant == pytest.approx(expected, rel=0.05)

    def test_degradation_monotone_peaks_post_yield(self, default_protocol, default_data):
        # below yield the virgin first cycle undershoots the second (z starts
        # at zero), so the cycle-pair comparison is meaningful once loops
        # saturate: levels >= 4*delta_y here
        disp, force = default_data
        ppc = default_protocol.points_per_cycle
        factors = default_protocol.amplitude_factors
        for level, factor in enumerate(factors):
            if factor < 4.0:
                continue
            start = level * 2 * ppc
            first = force.values[start : start + ppc + 1].max()
            second = force.values[start + ppc : start + 2 * ppc + 1].max()
            assert second <= first + 1e-12, f"level {factor}"

    def test_degradation_monotone_strong_variant(self):
        protocol = LoadingProtocol(
            delta_y=0.1, amplitude_factors=(5.0, 8.0, 10.0),
            cycles_per_amplitude=2, points_per_cycle=200,
        )
        disp = oracle.generate_protocol(protocol)
        force = oracle.simulate(BoucWenParams(delta_nu=0.3), disp)
        for level in range(3):
            start = level * 2 * 200
            first = force.values[start : start + 201].max()
            second = force.values[start + 200 : start + 401].max()
            assert second <= first + 1e-12

    def test_energy_monotone_at_cycle_boundaries(self, default_protocol, default_data):
        # instantaneous z*xdot dips below zero right after reversals, so
        # monotonicity is asserted on completed cycles
        disp, _ = default_data
        trace = oracle.simulate_trace(BoucWenParams(), disp)
        boundary_energy = trace.energy[:: default_protocol.points_per_cycle]
        assert np.all(np.diff(boundary_energy) >= -1e-12)
        assert trace.energy[-1] > 0

    def test_rk4_convergence_order(self):
        # smooth monotone ramp keeps z >= 0, avoiding the |z| kink, so the
        # refinement-error ratio shows the integrator's true order
        num, amp = 401, 0.5
        t = np.arange(num) * 0.01
        ramp = amp * (1 - np.cos(np.pi * t / t[-1])) / 2
        disp = Series(dt=0.01, values=ramp, unit=oracle.DISPLACEMENT)
        base = BoucWenParams(n=2.0, substeps=1)
        runs = [
            oracle.simulate(replace(base, substeps=s), disp).values for s in (1, 2, 4, 8)
        ]
        err1 = np.linalg.norm(runs[0] - runs[1])
        err2 = np.linalg.norm(runs[1] - runs[2])
        err3 = np.linalg.norm(runs[2] - runs[3])
        assert 8.0 <= err1 / err2 <= 32.0
        assert 8.0 <= err2 / err3 <= 32.0

    def test_sign_structure(self, default_protocol, default_data):
        disp, force = default_data
        ppc = default_protocol.points_per_cycle
        # pre-yield: displacement and force track each other within a cycle
        first = slice(0, ppc + 1)
        corr = np.corrcoef(disp.values[first], force.values[first])[0, 1]
        assert corr > 0.9
        # across amplitude levels the peak force eventually comes back down
        peaks = [
            force.values[level * 2 * ppc : (level + 1) * 2 * ppc + 1].max()
            for level in range(len(default_protocol.amplitude_factors))
        ]
        assert peaks[-1] < max(peaks)
        assert peaks[-1] < peaks[8]  # 10*delta_y peak below the 6*delta_y peak

    def test_divergence_reports_sample_index(self):
        # gamma >> beta destabilizes z; huge velocities blow it up fast
        values = np.concatenate([np.zeros(2), np.array([0.0, 1e300, -1e300, 1e300])])
        disp = Series(dt=0.01, values=values, unit=oracle.DISPLACEMENT)
        params = BoucWenParams(beta=0.0, gamma=-5.0, n=2.0, substeps=1)
        with pytest.raises(DivergenceError) as excinfo:
            oracle.simulate(params, disp)
        assert excinfo.value.index is not None
        assert "sample" in str(excinfo.value)

    #: The sample whose state overflows, by (n, delta_y); None where the
    #: whole record stays finite. Every other pair overflows at sample 1.
    OVERFLOW_INDEX = {
        (2, 1e3): None, (2, 1e10): 251, (2, 1e30): 51, (20, 1e3): 51,
        (3, 1e3): 351, (3, 1e10): 151, (8, 1e3): 151,
    }

    @pytest.mark.parametrize("delta_y", [1e3, 1e10, 1e30, 1e50, 1e80, 1e100])
    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    def test_overflowing_exponent_diverges_at_a_pinned_sample(self, n, delta_y):
        # |z| ** n and the displacement rate grow with delta_y until a state overflows
        disp = oracle.generate_protocol(LoadingProtocol(delta_y=delta_y))
        index = self.OVERFLOW_INDEX.get((n, delta_y), 1)
        if index is None:
            assert np.all(np.isfinite(oracle.simulate(BoucWenParams(n=n), disp).values))
            return
        with pytest.raises(DivergenceError) as excinfo:
            oracle.simulate(BoucWenParams(n=n), disp)
        assert excinfo.value.index == index

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(k=0.0), "k"),
            (dict(alpha=1.5), "alpha"),
            (dict(A0=-1.0), "A0"),
            (dict(n=0.5), "n"),
            (dict(delta_nu=-0.1), "delta_nu"),
            (dict(delta_eta=-0.1), "delta_eta"),
            (dict(asym=0.5), "asym"),
            (dict(substeps=0), "substeps"),
        ],
    )
    def test_param_validation_names_field(self, kwargs, message):
        with pytest.raises(ValidationError, match=message) as excinfo:
            BoucWenParams(**kwargs)
        assert excinfo.value.field == next(iter(kwargs))


class TestCsv:
    def test_round_trip(self, tiny_data, tmp_path):
        disp, force = tiny_data
        path = tmp_path / "data.csv"
        oracle.write_csv(path, disp, force)
        disp2, force2 = oracle.read_csv(path)
        assert disp2.dt == disp.dt
        np.testing.assert_array_equal(disp2.values, disp.values)
        np.testing.assert_array_equal(force2.values, force.values)
        assert disp2.unit == oracle.DISPLACEMENT and force2.unit == oracle.FORCE

    def test_byte_order_mark_skipped(self, tiny_csv, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with one
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + tiny_csv.read_bytes())
        for plain, read in zip(oracle.read_csv(tiny_csv), oracle.read_csv(marked)):
            assert (read.dt, read.t0, read.unit) == (plain.dt, plain.t0, plain.unit)
            np.testing.assert_array_equal(read.values, plain.values)

    def test_header_and_row_count(self, tiny_data, tmp_path):
        disp, force = tiny_data
        path = tmp_path / "data.csv"
        oracle.write_csv(path, disp, force)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,displacement,force"
        assert len(lines) == len(disp) + 1

    @pytest.mark.parametrize(
        "mismatch, message",
        [
            (dict(values=np.zeros(3)), "length mismatch: 361 displacement vs 3 force"),
            (dict(dt=0.02), "dt mismatch: 0.01 displacement vs 0.02 force"),
        ],
        ids=["length", "dt"],
    )
    def test_mismatched_pair_rejected_without_file(self, tiny_data, tmp_path, mismatch, message):
        disp, force = tiny_data
        path = tmp_path / "data.csv"
        with pytest.raises(ValidationError, match=message):
            oracle.write_csv(path, disp, replace(force, **mismatch))
        assert not path.exists()

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,disp,force\n0,0,0\n1,1,1\n")
        with pytest.raises(ValidationError, match="bad.csv, line 1: expected header"):
            oracle.read_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1", "expected 3 fields, got 2"),
            ("1,1,1,1", "expected 3 fields, got 4"),
            ("1,abc,1", "could not convert string to float: 'abc'"),
            ("1,nan,1", "non-finite"),
            ("1,1,inf", "non-finite"),
            ("1.5,1,1", "non-uniform t column"),
        ],
        ids=["short-row", "long-row", "non-numeric", "nan", "inf", "non-uniform-t"],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, row, message):
        from bracelearn.cli import main

        path = tmp_path / "bad.csv"
        path.write_text(f"t,displacement,force\n0,0,0\n{row}\n2,2,2\n")
        with pytest.raises(ValidationError, match=f"bad.csv, line 3: {message}"):
            oracle.read_csv(path)
        # the CLI reports it as a data error, not a traceback
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(path), "--model", "Model 1", "--out", str(out)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("times", [(2, 1, 0), (1, 1, 1)], ids=["decreasing", "constant"])
    def test_t_must_increase(self, tmp_path, capsys, times):
        from bracelearn.cli import main

        path = tmp_path / "bad.csv"
        rows = "".join(f"{t},{i},{i}\n" for i, t in enumerate(times))
        path.write_text("t,displacement,force\n" + rows)
        with pytest.raises(ValidationError, match="bad.csv, line 3: t must increase"):
            oracle.read_csv(path)
        code = main(["train", "--data", str(path), "--model", "Model 1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "bad.csv, line 3" in capsys.readouterr().err

    # the csv reader's default field limit is 131,072 characters
    @pytest.mark.parametrize(
        "text, line",
        [
            (f"t,displacement,force\n0,{'1' * 200_000},0\n1,1,1\n", 2),
            (f"t,{'d' * 200_000},force\n0,0,0\n1,1,1\n", 1),
        ],
        ids=["row", "header"],
    )
    def test_over_long_field_names_file_and_line(self, tmp_path, capsys, text, line):
        from bracelearn.cli import main

        path = tmp_path / "big.csv"
        path.write_text(text)
        message = f"big.csv, line {line}: field larger than field limit"
        with pytest.raises(ValidationError, match=message):
            oracle.read_csv(path)
        code = main(["train", "--data", str(path), "--model", "Model 1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert f"big.csv, line {line}" in capsys.readouterr().err

    def test_t_span_past_float_range_names_file(self, tmp_path, capsys):
        from bracelearn.cli import main

        path = tmp_path / "wide.csv"
        path.write_text("t,displacement,force\n-1e308,0,0\n1e308,1,1\n")
        message = r"wide.csv: the t column runs from -1e\+308 to 1e\+308"
        with pytest.raises(ValidationError, match=message):
            oracle.read_csv(path)
        code = main(["train", "--data", str(path), "--model", "Model 1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "wide.csv: the t column" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([1.7e308, -1.7e308, -1e-320, 0.0, 1.0]),
                  st.floats(allow_nan=False, allow_infinity=False)),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    ), max_size=5))
    def test_finite_rows_read_or_name_file(self, rows):
        text = "t,displacement,force\n" + "".join(f"{t!r},{x!r},{f!r}\n" for t, x, f in rows)
        try:
            oracle.read_csv("prop.csv", text.encode())
        except ValidationError as exc:
            assert "prop.csv" in str(exc)

    def test_first_t_kept(self, tmp_path):
        path = tmp_path / "late.csv"
        rows = "".join(f"{5.0 + 0.5 * i!r},{float(i)!r},{float(-i)!r}\n" for i in range(10))
        path.write_text("t,displacement,force\n" + rows)
        disp, force = oracle.read_csv(path)
        assert (disp.t0, force.t0, disp.dt) == (5.0, 5.0, 0.5)
        copy = tmp_path / "copy.csv"
        oracle.write_csv(copy, disp, force)
        assert copy.read_text() == path.read_text()
