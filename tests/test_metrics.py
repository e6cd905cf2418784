"""Greedy detection matching and interpolated average precision."""

import numpy as np
import pytest

from nlcdet import (
    Box3D, Detection, InvalidValue, average_precision, evaluate, iou_3d, match_detections,
)

from conftest import random_box


def box_at(x, y=0.0, yaw=0.0, l=4.0, w=2.0, h=1.5):
    return Box3D(center=np.array([x, y, 0.0]), l=l, w=w, h=h, yaw=yaw)


class TestMatching:
    def test_exact_overlap_matched(self):
        gt = box_at(10.0)
        result = match_detections([Detection(box=gt, score=0.9)], [gt], 0.7)
        assert result == [(0, 0)]

    def test_higher_score_takes_the_gt(self):
        gt = box_at(10.0)
        dets = [Detection(box=gt, score=0.5), Detection(box=gt, score=0.8)]
        result = dict(match_detections(dets, [gt], 0.5))
        assert result[1] == 0
        assert result[0] is None

    def test_low_iou_unmatched(self):
        result = match_detections(
            [Detection(box=box_at(0.0), score=0.9)], [box_at(50.0)], 0.5
        )
        assert result == [(0, None)]

    def test_score_tie_breaks_by_index(self):
        gt = box_at(10.0)
        dets = [Detection(box=gt, score=0.7), Detection(box=gt, score=0.7)]
        result = dict(match_detections(dets, [gt], 0.5))
        assert result[0] == 0
        assert result[1] is None

    def test_matches_greedy_oracle(self, rng):
        for _ in range(20):
            gts = [random_box(rng, center_scale=8.0, dim_lo=1.5) for _ in range(4)]
            dets = []
            for gi, gt in enumerate(gts):
                jitter = rng.uniform(-0.5, 0.5, size=3)
                dets.append(
                    Detection(
                        box=Box3D(center=gt.center + jitter, l=gt.l, w=gt.w, h=gt.h, yaw=gt.yaw),
                        score=float(rng.random()),
                    )
                )
            dets.append(Detection(box=random_box(rng, center_scale=30.0), score=0.5))
            got = dict(match_detections(dets, gts, 0.3))

            # oracle: re-run the documented greedy rule naively
            taken = set()
            expected = {}
            for di in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
                best, best_iou = None, 0.3
                for gi in range(len(gts)):
                    if gi in taken:
                        continue
                    iou = iou_3d(dets[di].box, gts[gi])
                    if iou > best_iou:
                        best, best_iou = gi, iou
                if best is not None:
                    taken.add(best)
                expected[di] = best
            assert got == expected

    def test_permutation_invariance(self, rng):
        gts = [box_at(10.0), box_at(20.0)]
        dets = [
            Detection(box=box_at(10.1), score=0.9),
            Detection(box=box_at(19.8), score=0.6),
            Detection(box=box_at(40.0), score=0.8),
        ]
        base = dict(match_detections(dets, gts, 0.3))
        # matching is index-keyed, so results must agree per detection object
        assert base == {0: 0, 1: 1, 2: None}

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            match_detections([], [box_at(0.0)], 0.0)
        with pytest.raises(ValueError):
            match_detections([], [box_at(0.0)], 1.5)


class TestAveragePrecision:
    def test_perfect_detector(self):
        assert average_precision([True, True, True], [0.9, 0.8, 0.7], 3) == 1.0

    def test_zero_matches(self):
        assert average_precision([False, False], [0.9, 0.8], 2) == 0.0

    def test_hand_enumerated_case_r40(self):
        # 2 GTs, [TP 0.9, FP 0.8, TP 0.7]:
        # recall 0.5 at precision 1 (first TP), recall 1.0 at precision 2/3;
        # 20 sample points fall at recall <= 0.5, 20 above.
        ap = average_precision([True, False, True], [0.9, 0.8, 0.7], 2)
        assert abs(ap - 5.0 / 6.0) < 1e-12

    def test_hand_enumerated_case_r11(self):
        # 11-point: 6 samples (0..0.5) at precision 1, 5 samples at 2/3
        ap = average_precision([True, False, True], [0.9, 0.8, 0.7], 2, recall_positions=11)
        assert abs(ap - (6 + 10.0 / 3.0) / 11.0) < 1e-12

    def test_score_rescaling_invariance(self, rng):
        flags = rng.random(20) < 0.5
        scores = rng.random(20)
        base = average_precision(flags, scores, 12)
        assert average_precision(flags, 7.5 * scores, 12) == base
        assert average_precision(flags, scores + 3.0, 12) == base

    def test_bounded(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 15))
            flags = rng.random(n) < 0.5
            scores = rng.random(n)
            ap = average_precision(flags, scores, int(rng.integers(1, 8)))
            assert 0.0 <= ap <= 1.0

    def test_adding_tp_never_decreases(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 10))
            flags = list(rng.random(n) < 0.5)
            scores = list(rng.random(n))
            num_gt = int(sum(flags)) + 3
            base = average_precision(flags, scores, num_gt)
            grown = average_precision(flags + [True], scores + [float(rng.random())], num_gt)
            assert grown >= base - 1e-12

    def test_lowest_score_fp_never_increases(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 10))
            flags = list(rng.random(n) < 0.5)
            scores = list(rng.uniform(0.5, 1.0, size=n))
            num_gt = max(int(sum(flags)), 1)
            base = average_precision(flags, scores, num_gt)
            grown = average_precision(flags + [False], scores + [0.1], num_gt)
            assert grown <= base + 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            average_precision([True], [0.5], 0)
        with pytest.raises(ValueError):
            average_precision([True], [0.5], 1, recall_positions=25)


class TestDetection:
    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, score):
        # a NaN score once made evaluate depend on the order of the detections
        with pytest.raises(InvalidValue):
            Detection(box=box_at(10.0), score=score)

    @pytest.mark.parametrize("score", [0.0, -1.0, 1e300, np.float64(0.9)])
    def test_finite_score_kept(self, score):
        assert Detection(box=box_at(10.0), score=score).score == score


class TestEvaluate:
    def test_end_to_end_perfect(self):
        gts = [box_at(10.0), box_at(20.0)]
        dets = [Detection(box=g, score=s) for g, s in zip(gts, (0.9, 0.8))]
        assert evaluate(dets, gts, 0.7) == 1.0

    def test_end_to_end_hand_case(self):
        gts = [box_at(10.0), box_at(20.0)]
        dets = [
            Detection(box=box_at(10.0), score=0.9),
            Detection(box=box_at(40.0), score=0.8),
            Detection(box=box_at(20.0), score=0.7),
        ]
        assert abs(evaluate(dets, gts, 0.7) - 5.0 / 6.0) < 1e-12

    def test_no_detections(self):
        assert evaluate([], [box_at(0.0)], 0.5) == 0.0

    def test_no_gts_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [], 0.5)
