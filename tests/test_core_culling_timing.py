"""Tests for culling rules and phase timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.culling import early_cull_mask, sphere_diameter_for_volume
from repro.core.timing import PhaseTimer, TessTimings

from .clip_reference import exact_cull_mask, passes_early_cull


class TestSphereDiameter:
    def test_unit_sphere(self):
        # Volume 4/3 pi -> radius 1 -> diameter 2.
        assert sphere_diameter_for_volume(4.0 * np.pi / 3.0) == pytest.approx(2.0)

    def test_zero(self):
        assert sphere_diameter_for_volume(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sphere_diameter_for_volume(-1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_inverse_relationship(self, v):
        d = sphere_diameter_for_volume(v)
        assert (np.pi / 6.0) * d**3 == pytest.approx(v, rel=1e-9)


class TestEarlyCull:
    def test_no_threshold_keeps_all(self):
        assert passes_early_cull(0.0, None)
        assert passes_early_cull(0.0, 0.0)
        np.testing.assert_array_equal(
            early_cull_mask(np.array([0.0, 1.0]), None), [True, True]
        )

    def test_small_cell_culled(self):
        vmin = 1.0
        d = sphere_diameter_for_volume(vmin)
        assert not passes_early_cull(0.9 * d, vmin)
        assert passes_early_cull(1.1 * d, vmin)

    def test_conservative_no_false_culls(self):
        """A cell culled early must genuinely be below the volume threshold.

        By the isodiametric inequality vol <= (pi/6) diameter^3, so culling
        at diameter < d(vmin) can never remove a cell with vol >= vmin.
        """
        rng = np.random.default_rng(0)
        for _ in range(200):
            vol = float(rng.uniform(0.01, 10.0))
            vmin = float(rng.uniform(0.01, 10.0))
            # Max possible diameter consistent with this volume is unknown,
            # but the minimum is the sphere diameter.
            diam_min = sphere_diameter_for_volume(vol)
            if vol >= vmin:
                assert passes_early_cull(diam_min, vmin)

    def test_vectorized_matches_scalar(self):
        seps = np.linspace(0.0, 3.0, 50)
        mask = early_cull_mask(seps, 1.0)
        for s, m in zip(seps, mask):
            assert passes_early_cull(float(s), 1.0) == bool(m)


class TestExactCull:
    def test_min_only(self):
        v = np.array([0.5, 1.0, 2.0])
        np.testing.assert_array_equal(exact_cull_mask(v, vmin=1.0), [False, True, True])

    def test_max_only(self):
        v = np.array([0.5, 1.0, 2.0])
        np.testing.assert_array_equal(exact_cull_mask(v, vmax=1.0), [True, True, False])

    def test_band(self):
        v = np.array([0.5, 1.0, 2.0])
        np.testing.assert_array_equal(
            exact_cull_mask(v, vmin=0.75, vmax=1.5), [False, True, False]
        )

    def test_no_thresholds(self):
        assert exact_cull_mask(np.array([1.0, 2.0])).all()


class TestTimings:
    def test_phases_accumulate(self):
        t = PhaseTimer()
        with t.phase("compute"):
            sum(range(10000))
        with t.phase("compute"):
            sum(range(10000))
        assert t.timings.compute > 0
        assert t.timings.compute_cpu > 0
        assert t.timings.exchange == 0

    def test_arbitrary_phase_names_accepted(self):
        t = PhaseTimer()
        with t.phase("halo_merge"):
            sum(range(1000))
        assert t.wall("halo_merge") > 0
        assert "halo_merge" in t.phase_names
        assert "halo_merge" in t.as_dict()
        # Non-canonical phases don't leak into the paper's three-phase view.
        assert t.timings.total == 0.0

    def test_invalid_phase_name_rejected(self):
        t = PhaseTimer()
        for bad in ("", None, 3):
            with pytest.raises(ValueError):
                with t.phase(bad):
                    pass

    def test_extended_row_adds_comm_columns(self):
        t = TessTimings(compute_cpu=2.0, comm_wait=0.5, msgs_sent=7, bytes_recv=64)
        row = t.as_row()
        assert sorted(row) == [
            "compute_s", "exchange_s", "output_s", "tess_total_s", "wall_total_s",
        ]
        ext = t.as_row_extended()
        assert ext["comm_wait_s"] == 0.5
        assert ext["msgs_sent"] == 7
        assert ext["bytes_recv"] == 64
        assert all(ext[k] == row[k] for k in row)

    def test_max_with_covers_comm_counters(self):
        a = TessTimings(comm_wait=0.2, msgs_sent=3, bytes_sent=10)
        b = TessTimings(comm_wait=0.1, msgs_sent=9, bytes_sent=4)
        m = a.max_with(b)
        assert (m.comm_wait, m.msgs_sent, m.bytes_sent) == (0.2, 9, 10)

    def test_total(self):
        t = TessTimings(exchange=1.0, compute=2.0, output=3.0)
        assert t.total == 6.0
        assert t.total_cpu == 0.0

    def test_max_with(self):
        a = TessTimings(exchange=1.0, compute=5.0, output=0.0, compute_cpu=4.0)
        b = TessTimings(exchange=2.0, compute=1.0, output=3.0, compute_cpu=2.0)
        m = a.max_with(b)
        assert (m.exchange, m.compute, m.output, m.compute_cpu) == (2.0, 5.0, 3.0, 4.0)

    def test_as_row_uses_cpu(self):
        t = TessTimings(compute=10.0, compute_cpu=2.0)
        row = t.as_row()
        assert row["compute_s"] == 2.0
        assert row["wall_total_s"] == 10.0
