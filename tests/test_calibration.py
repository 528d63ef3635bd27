"""Tests pinning the calibrated models to the paper's published anchors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import (
    MODELS,
    AccuracyPair,
    PiecewiseCurve,
    caffenet_accuracy_model,
    caffenet_time_model,
    googlenet_accuracy_model,
    googlenet_time_model,
)
from repro.errors import CalibrationError
from repro.perf.device import K80
from repro.pruning import PruneSpec
from repro.pruning.schedule import DegreeOfPruning

MIN = 60.0


@pytest.fixture(scope="module")
def ctm():
    return caffenet_time_model()


@pytest.fixture(scope="module")
def cam():
    return caffenet_accuracy_model()


@pytest.fixture(scope="module")
def gtm():
    return googlenet_time_model()


@pytest.fixture(scope="module")
def gam():
    return googlenet_accuracy_model()


class TestPiecewiseCurve:
    def test_interpolates(self):
        c = PiecewiseCurve([(0.0, 1.0), (1.0, 0.0)])
        assert c(0.25) == pytest.approx(0.75)

    def test_clamps_outside_range(self):
        c = PiecewiseCurve([(0.2, 5.0), (0.8, 1.0)])
        assert c(0.0) == 5.0
        assert c(1.0) == 1.0

    def test_flat_then_linear_shape(self):
        c = PiecewiseCurve.flat_then_linear(0.5, 0.9, 0.0, 55.0)
        assert c(0.0) == 0.0
        assert c(0.5) == 0.0
        assert c(0.7) == pytest.approx(27.5)
        assert c(0.9) == 55.0

    def test_rejects_non_monotone_x(self):
        with pytest.raises(CalibrationError):
            PiecewiseCurve([(0.5, 1.0), (0.5, 2.0)])

    def test_rejects_single_point(self):
        with pytest.raises(CalibrationError):
            PiecewiseCurve([(0.0, 1.0)])

    def test_vectorised_eval(self):
        c = PiecewiseCurve([(0.0, 0.0), (1.0, 10.0)])
        np.testing.assert_allclose(
            c(np.array([0.0, 0.5, 1.0])), [0.0, 5.0, 10.0]
        )

    def test_is_nonincreasing(self):
        assert PiecewiseCurve([(0, 2.0), (1, 1.0)]).is_nonincreasing()
        assert not PiecewiseCurve([(0, 1.0), (1, 2.0)]).is_nonincreasing()


class TestAccuracyPair:
    def test_fraction_views(self):
        p = AccuracyPair(top1=55.0, top5=80.0)
        assert p.top1_fraction == 0.55
        assert p.top5_fraction == 0.80

    def test_get_by_metric(self):
        p = AccuracyPair(top1=10.0, top5=20.0)
        assert p.get("top1") == 10.0
        with pytest.raises(KeyError):
            p.get("top3")

    def test_rejects_out_of_range(self):
        with pytest.raises(CalibrationError):
            AccuracyPair(top1=-1.0, top5=50.0)
        with pytest.raises(CalibrationError):
            AccuracyPair(top1=10.0, top5=101.0)


class TestCaffenetTimeAnchors:
    """Every wall-clock anchor from DESIGN.md section 6."""

    def test_unpruned_19_minutes(self, ctm):
        t = ctm.inference_time(PruneSpec.unpruned(), 50_000, K80)
        assert t / MIN == pytest.approx(19.0, rel=1e-6)

    def test_conv1_sweep_endpoint(self, ctm):
        t = ctm.inference_time(PruneSpec({"conv1": 0.9}), 50_000, K80)
        assert t / MIN == pytest.approx(16.6, rel=0.01)

    def test_conv2_sweep_endpoint(self, ctm):
        t = ctm.inference_time(PruneSpec({"conv2": 0.9}), 50_000, K80)
        assert t / MIN == pytest.approx(14.0, rel=0.01)

    def test_conv2_is_strongest_single_layer(self, ctm):
        times = {
            layer: ctm.inference_time(PruneSpec({layer: 0.9}), 50_000, K80)
            for layer in ("conv1", "conv2", "conv3", "conv4", "conv5")
        }
        assert min(times, key=times.get) == "conv2"

    def test_figure8_conv1_2_combo(self, ctm):
        spec = PruneSpec({"conv1": 0.3, "conv2": 0.5})
        t = ctm.inference_time(spec, 50_000, K80) / MIN
        assert t == pytest.approx(13.0, rel=0.05)  # paper: 13 min

    def test_figure8_all_conv_combo(self, ctm):
        spec = PruneSpec(
            {"conv1": 0.3, "conv2": 0.5, "conv3": 0.5, "conv4": 0.5, "conv5": 0.5}
        )
        t = ctm.inference_time(spec, 50_000, K80) / MIN
        assert t == pytest.approx(11.0, rel=0.08)  # paper: 11 min

    def test_figure4_single_inference_endpoints(self, ctm):
        layers = ["conv1", "conv2", "conv3", "conv4", "conv5"]
        assert ctm.single_inference(
            PruneSpec.unpruned(), K80
        ) == pytest.approx(0.09)
        assert ctm.single_inference(
            PruneSpec.uniform(layers, 0.9), K80
        ) == pytest.approx(0.05, rel=0.01)

    def test_figure4_monotone_decrease(self, ctm):
        layers = ["conv1", "conv2", "conv3", "conv4", "conv5"]
        times = [
            ctm.single_inference(PruneSpec.uniform(layers, r / 10), K80)
            for r in range(10)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(times, times[1:]))

    def test_figure5_saturation(self, ctm):
        bm = ctm.batching_model(PruneSpec.unpruned(), K80)
        assert 200 <= bm.knee_batch(0.85) <= 400


class TestCaffenetAccuracyAnchors:
    def test_baseline(self, cam):
        base = cam.accuracy(PruneSpec.unpruned())
        assert base.top5 == pytest.approx(80.0)
        assert base.top1 == pytest.approx(55.0)

    @pytest.mark.parametrize(
        "layer,knee", [("conv1", 0.3), ("conv2", 0.5), ("conv3", 0.5)]
    )
    def test_sweet_spots_flat(self, cam, layer, knee):
        base = cam.accuracy(PruneSpec.unpruned())
        at_knee = cam.accuracy(PruneSpec({layer: knee}))
        assert at_knee.top5 == pytest.approx(base.top5)
        assert at_knee.top1 == pytest.approx(base.top1)

    def test_conv1_collapses_to_zero(self, cam):
        acc = cam.accuracy(PruneSpec({"conv1": 0.9}))
        assert acc.top5 == pytest.approx(0.0)
        assert acc.top1 == pytest.approx(0.0)

    def test_other_layers_fall_to_25(self, cam):
        for layer in ("conv2", "conv3", "conv4", "conv5"):
            acc = cam.accuracy(PruneSpec({layer: 0.9}))
            assert acc.top5 == pytest.approx(25.0)

    def test_figure8_conv1_2_accuracy(self, cam):
        acc = cam.accuracy(PruneSpec({"conv1": 0.3, "conv2": 0.5}))
        assert acc.top5 == pytest.approx(70.0, abs=1.0)  # paper: 70%

    def test_figure8_all_conv_accuracy(self, cam):
        spec = PruneSpec(
            {"conv1": 0.3, "conv2": 0.5, "conv3": 0.5, "conv4": 0.5, "conv5": 0.5}
        )
        acc = cam.accuracy(spec)
        assert acc.top5 == pytest.approx(62.0, abs=3.0)  # paper: 62%

    def test_interaction_zero_for_single_layer(self, cam):
        # single-layer sweeps must follow their curves exactly
        assert cam._interaction(PruneSpec({"conv1": 0.8}), 10.0) == 0.0

    def test_interaction_positive_for_combos(self, cam):
        spec = PruneSpec({"conv1": 0.2, "conv2": 0.2})
        assert cam._interaction(spec, 10.0) > 0.0

    @given(st.floats(0.0, 0.89), st.floats(0.0, 0.89))
    @settings(max_examples=40, deadline=None)
    def test_accuracy_bounded(self, cam, r1, r2):
        acc = cam.accuracy(PruneSpec({"conv1": r1, "conv2": r2}))
        assert 0.0 <= acc.top1 <= 55.0
        assert 0.0 <= acc.top5 <= 80.0

    def test_monotone_in_ratio(self, cam):
        accs = [
            cam.accuracy(PruneSpec({"conv2": r / 10})).top5
            for r in range(10)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(accs, accs[1:]))

    def test_top1_below_top5_always(self, cam):
        for r in (0.0, 0.3, 0.6, 0.9):
            acc = cam.accuracy(PruneSpec({"conv3": r}))
            assert acc.top1 <= acc.top5


class TestGooglenetAnchors:
    def test_unpruned_13_minutes(self, gtm):
        t = gtm.inference_time(PruneSpec.unpruned(), 50_000, K80)
        assert t / MIN == pytest.approx(13.0, rel=1e-6)

    def test_conv2_3x3_endpoint(self, gtm):
        t = gtm.inference_time(PruneSpec({"conv2-3x3": 0.9}), 50_000, K80)
        assert t / MIN == pytest.approx(9.0, rel=0.01)  # paper: 13 -> 9

    def test_figure4_single_inference(self, gtm):
        assert gtm.single_inference(
            PruneSpec.unpruned(), K80
        ) == pytest.approx(0.16)
        from repro.calibration.googlenet import GOOGLENET_SWEET_SPOTS

        layers = list(GOOGLENET_SWEET_SPOTS)
        heavy = PruneSpec.uniform(layers, 0.9)
        assert gtm.single_inference(heavy, K80) == pytest.approx(
            0.10, rel=0.01
        )

    def test_accuracy_flat_until_60(self, gam):
        base = gam.accuracy(PruneSpec.unpruned())
        for layer in (
            "conv1-7x7-s2",
            "conv2-3x3",
            "inception-3a-3x3",
            "inception-4d-5x5",
        ):
            at60 = gam.accuracy(PruneSpec({layer: 0.6}))
            assert at60.top5 == pytest.approx(base.top5)

    def test_accuracy_drops_past_60(self, gam):
        base = gam.accuracy(PruneSpec.unpruned())
        at80 = gam.accuracy(PruneSpec({"conv2-3x3": 0.8}))
        assert at80.top5 < base.top5

    def test_uncalibrated_layer_uses_default_response(self, gam):
        base = gam.accuracy(PruneSpec.unpruned())
        flat = gam.accuracy(PruneSpec({"inception-4b-3x3": 0.5}))
        dropped = gam.accuracy(PruneSpec({"inception-4b-3x3": 0.85}))
        assert flat.top5 == pytest.approx(base.top5)
        assert dropped.top5 < base.top5

    def test_deeper_but_fewer_params_narrative(self, gtm, ctm):
        # Googlenet single inference is slower despite fewer parameters
        assert gtm.single_inference(
            PruneSpec.unpruned(), K80
        ) > ctm.single_inference(PruneSpec.unpruned(), K80)


class TestModelTable:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_every_row_names_both_ladders(self, name):
        row = MODELS[name]
        assert row.time_model().name == row.accuracy_model().name == name
        plan, allocate = row.plan_degrees(), row.allocate_degrees()
        assert plan and allocate
        for degrees in (plan, allocate):
            assert all(isinstance(d, DegreeOfPruning) for d in degrees)
            # each ladder prunes layers of its own model
            layers = {layer for d in degrees for layer, _ in d.spec.ratios}
            assert layers <= set(row.accuracy_model().drop_curves_top5)
