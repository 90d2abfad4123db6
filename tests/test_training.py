import gc
import json
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from hdrdeghost import tensor as tc, training
from hdrdeghost.codecs import DatasetError
from hdrdeghost.hdrmath import MU, HdrImage, LdrImage, SampleTriplet, mu_law
from hdrdeghost.model import init_params, load_checkpoint, tiny_preset
from hdrdeghost.training import (AdamState, TrainConfig, adam_step, augment,
                                 crop_patches, l1_tonemapped_loss,
                                 synth_dataset, train_loop, training_step)


class TestLoss:
    def test_identical_images_zero(self):
        x = np.random.default_rng(0).uniform(0, 1, size=(1, 4, 4, 3))
        assert float(l1_tonemapped_loss(tc.Tensor(x), x).data) == 0.0

    def test_black_versus_white_is_one(self):
        z = tc.Tensor(np.zeros((1, 2, 2, 3)))
        assert float(l1_tonemapped_loss(z, np.ones((1, 2, 2, 3))).data) == 1.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, size=(2, 3, 3, 3))
        b = rng.uniform(0, 1, size=(2, 3, 3, 3))
        got = float(l1_tonemapped_loss(tc.Tensor(a), b).data)
        want = float(np.mean(np.abs(mu_law(a) - mu_law(b))))
        assert got == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_matches_the_per_op_chain(self, dtype):
        # outputs below 0, at 0, inside (0, 1), at 1 and above 1
        rng = np.random.default_rng(4)
        o = rng.uniform(0, 1, size=(2, 4, 5, 3))
        o[0, 0, :, 0] = [-0.5, 0.0, 1.0, 1.5, 2.0]
        o, gt = o.astype(dtype), rng.uniform(0, 1, size=o.shape).astype(dtype)
        tape = tc.Tape()
        leaf = tc.Tensor(o, tape)
        (got,) = tc.backward(l1_tonemapped_loss(leaf, gt), [leaf])

        # mean(abs(log(clip(o, 0, 1) * MU + 1) * (1 / log1p(MU)) - mu_law(gt))),
        # one kernel's vjp after another, from the loss back to o
        c = float(1.0 / np.log1p(MU))
        d = np.log(np.clip(o, 0.0, 1.0) * MU + 1.0) * c - mu_law(gt)
        g = np.broadcast_to(np.ones((), dtype) / d.size, d.shape).copy()  # mean
        g = g * np.sign(d)                                 # abs
        g = g * c                                          # scale by 1 / log1p(MU)
        g = g / (np.clip(o, 0.0, 1.0) * MU + 1.0)          # log
        g = g * MU                                         # scale by MU
        g = g * ((o > 0) & (o < 1)).astype(dtype)          # clip
        assert got.dtype == dtype and got.tobytes() == g.tobytes()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(tc.ShapeError, match="shape"):
            l1_tonemapped_loss(tc.Tensor(np.zeros((1, 2, 2, 3))),
                               np.zeros((1, 3, 3, 3)))


class TestAdam:
    def params(self):
        return {"w": np.array([1.0, -2.0, 3.0])}

    def test_zero_gradient_keeps_parameters(self):
        p = self.params()
        state = AdamState(p)
        out = adam_step(p, {"w": np.zeros(3)}, state)
        np.testing.assert_array_equal(out["w"], p["w"])

    def test_first_step_moves_by_lr_times_sign(self):
        p = self.params()
        state = AdamState(p, lr=1e-4)
        g = np.array([0.5, -2.0, 1e-3])
        out = adam_step(p, {"w": g}, state)
        # bias correction makes the first update lr * g / (|g| + eps)
        np.testing.assert_allclose(
            out["w"], p["w"] - 1e-4 * g / (np.abs(g) + 1e-8), atol=1e-12)

    def test_two_steps_match_handwritten_recurrence(self):
        rng = np.random.default_rng(2)
        p = {"w": rng.normal(size=5)}
        state = AdamState(p, lr=1e-3)
        g1, g2 = rng.normal(size=5), rng.normal(size=5)
        out = adam_step(adam_step(p, {"w": g1}, state), {"w": g2}, state)

        m = v = np.zeros(5)
        w = p["w"].copy()
        for t, g in ((1, g1), (2, g2)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w = w - 1e-3 * (m / (1 - 0.9 ** t)) / (
                np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.abs(out["w"] - w).max() <= 1e-10

    def test_nan_gradient_raises_with_name(self):
        p = self.params()
        state = AdamState(p)
        with pytest.raises(FloatingPointError, match="'w'"):
            adam_step(p, {"w": np.array([np.nan, 0.0, 0.0])}, state)


def make_triplet(h, w, seed=0, with_gt=True):
    rng = np.random.default_rng(seed)
    pix = rng.uniform(0, 1, size=(3, h, w, 3))
    gt = HdrImage(rng.uniform(0, 1, size=(h, w, 3))) if with_gt else None
    return SampleTriplet(ldr=tuple(
        LdrImage(pix[i], t) for i, t in enumerate((0.25, 1.0, 4.0))),
        ground_truth=gt, name="t")


class TestPatches:
    def test_exact_fit_single_patch(self):
        crops = crop_patches(make_triplet(128, 128), patch=128, stride=64)
        assert len(crops) == 1

    def test_256x192_grid(self):
        crops = crop_patches(make_triplet(192, 256), patch=128, stride=64)
        # rows at y in {0, 64}; columns at x in {0, 64, 128}
        assert len(crops) == 6

    def test_last_position_snaps_to_border(self):
        crops = crop_patches(make_triplet(100, 130), patch=64, stride=64)
        names = {c.name.split("@")[1] for c in crops}
        assert "36,66" in names  # bottom-right corner is covered

    def test_crops_are_aligned_across_images(self):
        s = make_triplet(130, 130, seed=3)
        for c in crop_patches(s, patch=64, stride=64):
            y, x = map(int, c.name.split("@")[1].split(","))
            np.testing.assert_array_equal(
                c.ldr[2].pixels, s.ldr[2].pixels[y:y + 64, x:x + 64])
            np.testing.assert_array_equal(
                c.ground_truth.pixels,
                s.ground_truth.pixels[y:y + 64, x:x + 64])

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            crop_patches(make_triplet(32, 32), patch=64)


class TestAugment:
    def test_code_zero_is_identity(self):
        s = make_triplet(8, 8, seed=4)
        out = augment(s, 0)
        for a, b in zip(out.ldr, s.ldr):
            np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_four_rotations_compose_to_identity(self):
        s = make_triplet(8, 8, seed=5)
        out = s
        for _ in range(4):
            out = augment(out, 1)
        np.testing.assert_array_equal(out.ldr[0].pixels, s.ldr[0].pixels)

    def test_flip_is_involution(self):
        s = make_triplet(8, 8, seed=6)
        out = augment(augment(s, 4), 4)
        np.testing.assert_array_equal(out.ground_truth.pixels,
                                      s.ground_truth.pixels)

    def test_all_codes_distinct_on_generic_patch(self):
        s = make_triplet(8, 8, seed=7)
        seen = [augment(s, c).ldr[0].pixels.tobytes() for c in range(8)]
        assert len(set(seen)) == 8

    def test_rotation_of_rectangle_rejected(self):
        with pytest.raises(ValueError, match="square"):
            augment(make_triplet(4, 8), 1)

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError, match="0..7"):
            augment(make_triplet(4, 4), 8)


class TestSynthData:
    def test_seeded_reproducibility(self):
        a = synth_dataset(3, seed=9, size=16)
        b = synth_dataset(3, seed=9, size=16)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.ground_truth.pixels,
                                          sb.ground_truth.pixels)
            for ia, ib in zip(sa.ldr, sb.ldr):
                np.testing.assert_array_equal(ia.pixels, ib.pixels)

    def test_gt_in_unit_interval(self):
        for s in synth_dataset(4, seed=10, size=16):
            gt = s.ground_truth.pixels
            assert gt.min() >= 0.0 and gt.max() <= 1.0

    def test_ldrs_invert_to_their_frames_radiance(self):
        # the reference frame images the ground truth and the other two the
        # moved scene, so wherever no clamping occurred, (LDR^gamma) / t
        # recovers the ground truth from frame 1 and agrees between 0 and 2
        (s,) = synth_dataset(1, seed=11, size=16)
        recs = [im.pixels ** 2.2 / im.exposure_time for im in s.ldr]
        masks = [(im.pixels > 1e-3) & (im.pixels < 1.0 - 1e-9) for im in s.ldr]
        assert masks[1].any()
        gt = s.ground_truth.pixels
        assert np.abs(recs[1][masks[1]] - gt[masks[1]]).max() <= 1e-9
        ok = masks[0] & masks[2]
        assert ok.any()
        assert np.abs(recs[0][ok] - recs[2][ok]).max() <= 1e-9
        # the moved blob: frames 0 and 2 do not image the ground truth
        assert np.abs(recs[0][ok] - gt[ok]).max() > 1e-3

    def test_exposure_times(self):
        (s,) = synth_dataset(1, seed=12, size=16)
        assert [im.exposure_time for im in s.ldr] == [0.25, 1.0, 4.0]


class TestTrainingStep:
    def test_loss_matches_objective_and_grads_cover_params(self):
        cfg = tiny_preset(dtype="f64")
        params = init_params(cfg, seed=13)
        batch = synth_dataset(2, seed=14, size=8)
        tcfg = TrainConfig(batch_size=2, patch=8, stride=8)
        loss, grads = training_step(batch, params, cfg, tcfg)
        assert loss > 0.0
        # every parameter should receive a gradient array of matching shape
        assert set(grads) == set(params)
        for k in params:
            assert grads[k].shape == params[k].shape

    def test_f32_step_runs_in_f32(self):
        cfg = tiny_preset()
        rng = np.random.default_rng(26)
        params = init_params(cfg, seed=13)
        for k, v in params.items():
            if ".off." in k:  # sample between pixels, not on the grid
                params[k] = (v + rng.normal(0, 0.05, size=v.shape)).astype(v.dtype)
        batch = synth_dataset(2, seed=14, size=8)
        tcfg = TrainConfig(batch_size=2, patch=8, stride=8)
        _, grads = training_step(batch, params, cfg, tcfg)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        new = adam_step(params, grads, AdamState(params))
        assert {v.dtype for v in new.values()} == {np.dtype(np.float32)}

    def test_step_leaves_no_reference_cycle(self, monkeypatch):
        # reference counting alone frees a step's graph: with the cycle
        # collector off, a bound leaf, the model output and an activation
        # a vjp kept are all gone once the step returns
        refs = []
        bind, forward = training.bind_params, training.forward_from_inputs

        def bind_params(params, tape=None):
            leaves = bind(params, tape)
            refs.append(weakref.ref(leaves["embed.w"]))
            return leaves

        def forward_from_inputs(*args):
            out = forward(*args)
            nodes = out.tape.nodes
            kept = next(n for n in nodes[len(nodes) // 2:]
                        if n.vjp is not None and n.out() is not None)
            refs.extend([weakref.ref(out), out.node.out, kept.out])
            return out

        monkeypatch.setattr(training, "bind_params", bind_params)
        monkeypatch.setattr(training, "forward_from_inputs", forward_from_inputs)
        cfg = tiny_preset()
        params = init_params(cfg, seed=15)
        batch = synth_dataset(1, seed=16, size=8)
        tcfg = TrainConfig(batch_size=1, patch=8, stride=8)
        gc.collect()
        gc.disable()
        try:
            _, grads = training_step(batch, params, cfg, tcfg)
            assert len(refs) == 4 and [r() for r in refs] == [None] * 4
        finally:
            gc.enable()
        assert set(grads) == set(params)

    @staticmethod
    def _offset_params(cfg, seed):
        # offset predictors drawn off zero: samples fall between pixels
        params = init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        for k, v in params.items():
            if ".off." in k:
                params[k] = (v + rng.normal(0, 0.05, size=v.shape)).astype(v.dtype)
        return params

    def test_batch_step_is_the_mean_of_its_samples_steps(self):
        cfg = tiny_preset(dtype="f64")
        params = self._offset_params(cfg, 27)
        batch = synth_dataset(4, seed=28, size=16)
        tcfg = TrainConfig(batch_size=4, patch=16, stride=16)
        loss, grads = training_step(batch, params, cfg, tcfg)
        singles = [training_step([s], params, cfg, tcfg) for s in batch]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12)
        for k, g in grads.items():
            want = sum(gs[k] for _, gs in singles) / 4
            err = np.abs(g - want).max()
            if k.endswith(".msa.k.b"):
                # the softmax cancels a key bias: its gradient is rounding
                # noise, so only its absolute size is defined
                assert err <= 1e-18, k
            else:
                assert err <= 1e-12 * np.abs(want).max(), k

    def test_batch_step_holds_one_samples_graph(self):
        # a batch of 4 peaks within a quarter of one sample's step: the
        # graph of one sample at a time, not of the batch
        cfg = tiny_preset()
        params = self._offset_params(cfg, 29)
        batch = synth_dataset(4, seed=30, size=32)
        tcfg = TrainConfig(batch_size=4, patch=32, stride=32)
        peaks = []
        for b in (1, 4):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                training_step(batch[:b], params, cfg, tcfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_deterministic(self):
        cfg = tiny_preset(dtype="f64")
        params = init_params(cfg, seed=15)
        batch = synth_dataset(1, seed=16, size=8)
        tcfg = TrainConfig(batch_size=1, patch=8, stride=8)
        l1, g1 = training_step(batch, params, cfg, tcfg)
        l2, g2 = training_step(batch, params, cfg, tcfg)
        assert l1 == l2
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])


class TestTrainLoop:
    def run(self, out_dir, seed=17, dtype="f32"):
        cfg = tiny_preset(dtype=dtype)
        params = init_params(cfg, seed=18)
        data = synth_dataset(3, seed=seed, size=16)
        tcfg = TrainConfig(batch_size=2, epochs=2, patch=16, stride=16,
                           seed=seed, max_steps=4)
        return train_loop(data, params, cfg, tcfg, out_dir), cfg

    def test_writes_log_and_checkpoint(self, tmp_path):
        final, cfg = self.run(tmp_path / "runA")
        log = (tmp_path / "runA" / "metrics.jsonl").read_text().splitlines()
        recs = [json.loads(ln) for ln in log]
        assert recs and {"epoch", "step", "loss", "psnr_mu"} <= set(recs[0])
        back, cfg2 = load_checkpoint(tmp_path / "runA" / "checkpoint.hdck")
        assert cfg2 == cfg
        for k in final:
            np.testing.assert_array_equal(
                back[k], final[k].astype(back[k].dtype))

    def test_writes_one_record_per_step(self, tmp_path):
        cfg = tiny_preset()
        tcfg = TrainConfig(batch_size=1, epochs=1, patch=16, stride=16, seed=5,
                           max_steps=3)
        train_loop(synth_dataset(3, seed=5, size=16), init_params(cfg, seed=6),
                   cfg, tcfg, tmp_path)
        recs = [json.loads(ln) for ln in
                (tmp_path / "steps.jsonl").read_text().splitlines()]
        assert [r["step"] for r in recs] == [1, 2, 3]
        for r in recs:
            assert set(r) == {"step", "loss", "grad_norm", "step_s", "peak_rss_mb"}
            assert all(np.isfinite(r[k]) and r[k] > 0 for k in r)
        peaks = [r["peak_rss_mb"] for r in recs]
        assert peaks == sorted(peaks)

    def test_seeded_runs_identical(self, tmp_path):
        a, _ = self.run(tmp_path / "runB", dtype="f64")
        b, _ = self.run(tmp_path / "runC", dtype="f64")
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_interrupt_saves_last_completed_step(self, tmp_path):
        # one epoch of max_steps=4 with batch 2 over 3 patches: 2 steps
        cfg = tiny_preset()
        data = synth_dataset(3, seed=17, size=16)
        tcfg = TrainConfig(batch_size=2, epochs=2, patch=16, stride=16,
                           seed=17, max_steps=4)

        def interrupt(rec):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            train_loop(data, init_params(cfg, seed=18), cfg, tcfg,
                       tmp_path / "cut", log_fn=interrupt)
        done = train_loop(data, init_params(cfg, seed=18), cfg,
                          replace(tcfg, epochs=1), tmp_path / "whole")
        back, _ = load_checkpoint(tmp_path / "cut" / "checkpoint.hdck")
        for k in done:
            assert done[k].dtype == np.float32
            np.testing.assert_array_equal(back[k], done[k])

    @pytest.mark.parametrize("error", [FloatingPointError])
    def test_failure_saves_the_parameters_the_failed_step_started_from(
            self, tmp_path, monkeypatch, error):
        # batch 1 over 3 patches: steps 1 and 2 complete, step 3 fails
        cfg = tiny_preset()
        tcfg = TrainConfig(batch_size=1, epochs=1, patch=16, stride=16, seed=5)
        step, started = training.training_step, []

        def third_step_fails(batch, params, *args):
            started.append(params)
            if len(started) == 3:
                raise error("step 3 failed")
            return step(batch, params, *args)

        monkeypatch.setattr(training, "training_step", third_step_fails)
        ckpt = tmp_path / "checkpoint.hdck"
        with pytest.raises(error, match=r"^step 3 failed; parameters of the last "
                           rf"completed step \(2\) saved to {re.escape(str(ckpt))}$"):
            train_loop(synth_dataset(3, seed=5, size=16),
                       init_params(cfg, seed=6), cfg, tcfg, tmp_path)
        back, _ = load_checkpoint(ckpt)
        assert len(started) == 3 and set(back) == set(started[2])
        for k, v in started[2].items():
            assert np.isfinite(back[k]).all()
            np.testing.assert_array_equal(back[k], v)
        assert any((started[2][k] != started[0][k]).any() for k in back)

    def test_requires_ground_truth(self, tmp_path):
        cfg = tiny_preset()
        data = [make_triplet(16, 16, with_gt=False)]
        with pytest.raises(DatasetError, match="ground truth"):
            train_loop(data, init_params(cfg, seed=0), cfg,
                       TrainConfig(patch=16, stride=16), tmp_path / "runD")

    def test_resume_from_checkpoint_is_lossless_in_f64(self, tmp_path):
        # save/load round trip in f64 mode preserves params bit for bit, so
        # a resumed step equals an uninterrupted one
        cfg = tiny_preset(dtype="f64")
        params = init_params(cfg, seed=19)
        data = synth_dataset(1, seed=20, size=8)
        tcfg = TrainConfig(batch_size=1, patch=8, stride=8)
        from hdrdeghost.model import save_checkpoint
        save_checkpoint(tmp_path / "c.hdck", params, cfg)
        back, _ = load_checkpoint(tmp_path / "c.hdck")
        l1, g1 = training_step(data, params, cfg, tcfg)
        l2, g2 = training_step(data, back, cfg, tcfg)
        assert l1 == l2
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])
