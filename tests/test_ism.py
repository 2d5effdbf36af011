import hashlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from srirkit.arrays import MicArrayGeometry, builtin_array
from srirkit import dsp, presets
from srirkit.errors import (
    DegenerateInputError,
    LostDirectPathError,
    TruncatedResponseWarning,
)
from srirkit.grids import fibonacci_grid
from srirkit.hrir import HrirSet, spherical_head_hrir_set
from srirkit.ism import (
    ImageSourceList,
    Scene,
    ShoeboxRoom,
    enumerate_images,
    render_array_srir,
    render_foa_srir,
    render_reference_brir,
)
from srirkit.metrics import t30_mid

FS = 48000.0


def _room(max_order=1, beta=0.8, dims=(5.0, 4.0, 3.0)):
    return ShoeboxRoom(
        dimensions=np.array(dims),
        reflection_coefficients=np.full(6, beta),
        max_order=max_order,
    )


def _scene(max_order=1, beta=0.8, source=(3.0, 2.0, 1.5), recv=(1.5, 1.7, 1.2)):
    return Scene(
        room=_room(max_order, beta),
        source=np.array(source),
        receiver_origin=np.array(recv),
    )


def _brute_force_images(room, source, max_order):
    """Independent enumeration over a padded mirror lattice."""
    out = []
    reach = max_order + 2
    for mx in range(-reach, reach + 1):
        for px in (0, 1):
            ox = abs(mx - px) + abs(mx)
            if ox > max_order:
                continue
            for my in range(-reach, reach + 1):
                for py in (0, 1):
                    oy = abs(my - py) + abs(my)
                    if ox + oy > max_order:
                        continue
                    for mz in range(-reach, reach + 1):
                        for pz in (0, 1):
                            oz = abs(mz - pz) + abs(mz)
                            if ox + oy + oz > max_order:
                                continue
                            pos = (
                                (1 - 2 * px) * source[0] + 2 * mx * room.dimensions[0],
                                (1 - 2 * py) * source[1] + 2 * my * room.dimensions[1],
                                (1 - 2 * pz) * source[2] + 2 * mz * room.dimensions[2],
                            )
                            out.append((pos, ox + oy + oz))
    return out


class TestEnumerateImages:
    def test_order_zero_single_direct_path(self):
        scene = _scene(max_order=0)
        images = enumerate_images(scene)
        assert len(images) == 1
        dist = np.linalg.norm(scene.source - scene.receiver_origin)
        assert images.delays[0] == pytest.approx(dist / 343.0)
        assert images.amplitudes[0] == pytest.approx(1.0 / dist)
        assert images.orders[0] == 0

    def test_order_one_has_seven_mirrored_entries(self):
        scene = _scene(max_order=1)
        images = enumerate_images(scene)
        assert len(images) == 7
        sx, sy, sz = scene.source
        lx, ly, lz = scene.room.dimensions
        expected = {
            (sx, sy, sz),
            (-sx, sy, sz), (2 * lx - sx, sy, sz),
            (sx, -sy, sz), (sx, 2 * ly - sy, sz),
            (sx, sy, -sz), (sx, sy, 2 * lz - sz),
        }
        got = {tuple(np.round(p, 9)) for p in images.positions}
        assert got == {tuple(np.round(p, 9)) for p in expected}

    def test_zero_coefficients_leave_only_direct(self):
        scene = _scene(max_order=2, beta=0.0)
        images = enumerate_images(scene)
        nonzero = images.amplitudes > 0
        assert np.count_nonzero(nonzero) == 1
        assert images.orders[nonzero][0] == 0

    @pytest.mark.parametrize("max_order", [0, 1, 2, 3])
    def test_count_matches_brute_force(self, max_order):
        scene = _scene(max_order=max_order)
        images = enumerate_images(scene)
        brute = _brute_force_images(scene.room, scene.source, max_order)
        assert len(images) == len(brute)
        got = sorted(tuple(np.round(p, 6)) for p in images.positions)
        expected = sorted(tuple(np.round(np.asarray(p), 6)) for p, _ in brute)
        assert got == expected

    def test_delays_sorted_and_positive(self):
        images = enumerate_images(_scene(max_order=3))
        assert np.all(images.delays > 0)
        assert np.all(np.diff(images.delays) >= 0)

    def test_directions_unit_and_toward_images(self):
        scene = _scene(max_order=1)
        images = enumerate_images(scene)
        norms = np.linalg.norm(images.directions, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        recon = images.receiver_origin + images.directions * (
            images.delays[:, None] * 343.0
        )
        assert np.abs(recon - images.positions).max() < 1e-9

    def test_source_on_wall_rejected(self):
        with pytest.raises(ValueError):
            Scene(room=_room(), source=np.array([0.0, 2.0, 1.5]),
                  receiver_origin=np.array([1.5, 1.7, 1.2]))

    @pytest.mark.parametrize("field, dims, coeffs", [
        ("dimensions", (5.0, np.nan, 3.0), [0.8] * 6),
        ("dimensions", (5.0, np.inf, 3.0), [0.8] * 6),
        ("reflection_coefficients", (5.0, 4.0, 3.0), [0.8] * 5 + [np.nan]),
    ], ids=["nan-dimension", "infinite-dimension", "nan-coefficient"])
    def test_non_finite_room_rejected_naming_the_field(self, field, dims, coeffs):
        """NaN fails every comparison, so negative range tests let it through."""
        with pytest.raises(ValueError, match=field):
            ShoeboxRoom(dimensions=np.array(dims), reflection_coefficients=np.array(coeffs))

    @pytest.mark.parametrize("field", ["source", "receiver_origin"])
    def test_non_finite_point_rejected_naming_the_field(self, field):
        """A NaN source used to end in "direct path lost ... arrives at sample nan"."""
        points = {"source": np.array([3.0, 2.0, 1.5]),
                  "receiver_origin": np.array([1.5, 1.7, 1.2])}
        points[field][0] = np.nan
        with pytest.raises(ValueError, match=field):
            Scene(room=_room(), **points)

    def test_source_at_receiver_rejected(self):
        with pytest.raises(ValueError):
            Scene(room=_room(), source=np.array([1.5, 1.7, 1.2]),
                  receiver_origin=np.array([1.5, 1.7, 1.2]))


class TestRenderArraySrir:
    def test_equidistant_capsules_identical(self):
        geom = builtin_array("om6")
        # Source on the +Z axis above the receiver: all four X/Y capsules
        # are equidistant from every image on that axis.
        scene = Scene(
            room=_room(max_order=0),
            source=np.array([1.5, 1.7, 2.4]),
            receiver_origin=np.array([1.5, 1.7, 1.2]),
        )
        srir = render_array_srir(enumerate_images(scene), geom, FS, 2000)
        mats = srir.samples
        assert np.abs(mats[0] - mats[1]).max() < 1e-9  # +x vs -x
        assert np.abs(mats[2] - mats[3]).max() < 1e-9  # +y vs -y
        assert np.abs(mats[0] - mats[2]).max() < 1e-9

    def test_direct_peak_time_within_half_sample(self):
        geom = builtin_array("om6")
        scene = _scene(max_order=0)
        images = enumerate_images(scene)
        srir = render_array_srir(images, geom, FS, 2000)
        for cap, ch in zip(geom.positions, srir.samples):
            dist = np.linalg.norm(scene.source - (scene.receiver_origin + cap))
            expected = dist / 343.0 * FS
            peak = int(np.argmax(np.abs(ch)))
            assert abs(peak - expected) <= 0.5

    def test_direct_energy_follows_inverse_square_law(self):
        geom = builtin_array("om6")
        scene = _scene(max_order=0, source=(2.2, 1.7, 1.2))
        images = enumerate_images(scene)
        srir = render_array_srir(images, geom, FS, 2000)
        d_plus = np.linalg.norm(scene.source - (scene.receiver_origin + geom.positions[0]))
        d_minus = np.linalg.norm(scene.source - (scene.receiver_origin + geom.positions[1]))
        e_plus = np.sum(srir.samples[0] ** 2)
        e_minus = np.sum(srir.samples[1] ** 2)
        assert e_plus / e_minus == pytest.approx((d_minus / d_plus) ** 2, rel=0.01)

    def test_one_call_equals_per_capsule_placement(self):
        """All capsules placed in one call (several kernel blocks, arrivals
        past the end) equal one placement per capsule with the render's
        Farrow kernels, bit for bit."""
        geom = builtin_array("om6")
        images = enumerate_images(_scene(max_order=12))
        with pytest.warns(TruncatedResponseWarning):
            srir = render_array_srir(images, geom, FS, 1500)
        assert len(images) > 2 * dsp._IMPULSE_BLOCK
        for cap, channel in zip(geom.positions, srir.samples):
            dist = np.linalg.norm(images.positions - (images.receiver_origin + cap), axis=1)
            single = np.zeros(1500)
            delays = dist / dsp.SPEED_OF_SOUND * FS
            dsp.place_fractional_impulses(single, delays, images.wall_products / dist,
                                          _polynomial=True)
            assert np.array_equal(channel, single)

    def test_truncation_warns(self):
        geom = builtin_array("om6")
        scene = _scene(max_order=1)
        images = enumerate_images(scene)
        with pytest.warns(TruncatedResponseWarning):
            render_array_srir(images, geom, FS, 300)  # too short for reflections


class TestLostDirectPath:
    """A source 8 cm in front of the om6 origin arrives 11.2 samples in at
    the origin (4.2 at the front capsule), inside the interpolator's
    16-sample half-width."""

    @pytest.fixture(scope="class")
    def images(self):
        origin = np.array(presets.APL_RECEIVER_ORIGIN)
        scene = Scene(room=presets.scene("front_left", max_order=2).room,
                      source=origin + [0.08, 0.0, 0.0], receiver_origin=origin,
                      receiver=presets.om6())
        return enumerate_images(scene)

    @pytest.mark.parametrize("render", ["array", "foa", "reference"])
    def test_each_renderer_raises(self, images, render):
        hrirs = spherical_head_hrir_set(fibonacci_grid(16).directions, sample_rate=FS)
        calls = {
            "array": lambda: render_array_srir(images, builtin_array("om6"), FS, 4800),
            "foa": lambda: render_foa_srir(images, FS, 4800),
            "reference": lambda: render_reference_brir(images, hrirs, FS, 4800),
        }
        with pytest.raises(LostDirectPathError, match="direct path lost") as info:
            calls[render]()
        assert isinstance(info.value, DegenerateInputError)


class TestRenderReferenceBrir:
    def test_single_direct_image_reproduces_hrir(self):
        grid = fibonacci_grid(64)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        delay_samples = 320
        dist = delay_samples / FS * 343.0
        recv = np.array([2.5, 2.0, 1.5])
        # pick an HRIR direction whose source position stays inside the room
        room_dims = np.array([6.0, 5.0, 3.2])
        candidates = recv + dist * hrirs.directions
        inside = np.all((candidates > 0.3) & (candidates < room_dims - 0.3), axis=1)
        index = int(np.nonzero(inside)[0][0])
        scene = Scene(
            room=_room(max_order=0, dims=tuple(room_dims)),
            source=recv + dist * hrirs.directions[index],
            receiver_origin=recv,
        )
        images = enumerate_images(scene)
        brir = render_reference_brir(images, hrirs, FS, 2000)
        expected_l = np.zeros(2000 + 127)
        expected_l[delay_samples : delay_samples + 128] = hrirs.left[index] / dist
        assert np.abs(brir.left.samples - expected_l).max() < 1e-9 / dist

    def test_frontal_source_near_zero_itd(self):
        from srirkit.metrics import itd

        # Left/right symmetric HRIR set including the exact frontal direction:
        # the frontal source then maps to a symmetric pair of ears.
        base = fibonacci_grid(32).directions
        mirrored = base[np.abs(base[:, 1]) > 1e-12] * np.array([1.0, -1.0, 1.0])
        dirs = np.concatenate([[[1.0, 0.0, 0.0]], base, mirrored])
        hrirs = spherical_head_hrir_set(dirs, sample_rate=FS)
        recv = np.array([2.0, 2.0, 1.5])
        scene = Scene(
            room=_room(max_order=0, dims=(6.0, 5.0, 3.2)),
            source=recv + np.array([1.9, 0.0, 0.0]),
            receiver_origin=recv,
        )
        brir = render_reference_brir(enumerate_images(scene), hrirs, FS, 2000)
        assert abs(itd(brir)) < 20.0

    def test_two_images_sum_exactly(self):
        grid = fibonacci_grid(32)
        hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
        recv = np.array([2.5, 2.0, 1.5])
        scene = Scene(
            room=_room(max_order=1, dims=(6.0, 5.0, 3.2)),
            source=np.array([4.0, 2.5, 1.8]),
            receiver_origin=recv,
        )
        images = enumerate_images(scene)
        two = ImageSourceList(
            positions=images.positions[:2], amplitudes=images.amplitudes[:2],
            delays=images.delays[:2], directions=images.directions[:2],
            orders=images.orders[:2], receiver_origin=images.receiver_origin,
        )
        singles = []
        for i in range(2):
            one = ImageSourceList(
                positions=images.positions[i : i + 1],
                amplitudes=images.amplitudes[i : i + 1],
                delays=images.delays[i : i + 1],
                directions=images.directions[i : i + 1],
                orders=images.orders[i : i + 1],
                receiver_origin=images.receiver_origin,
            )
            singles.append(render_reference_brir(one, hrirs, FS, 2000))
        combined = render_reference_brir(two, hrirs, FS, 2000)
        total = singles[0].left.samples + singles[1].left.samples
        assert np.abs(combined.left.samples - total).max() < 1e-12

    @staticmethod
    def _per_direction_convolution(images, hrirs, length):
        """Each used direction's impulse train convolved with its HRIR pair by
        np.convolve, summed, and the count of arrivals that do not fit."""
        matches = np.argmax(images.directions @ hrirs.directions.T, axis=1)
        delays = images.delays * FS
        expected = np.zeros((2, length + hrirs.length - 1))
        truncated = 0
        for h in np.unique(matches):
            train = np.zeros(length)
            sel = matches == h
            truncated += dsp.place_fractional_impulses(train, delays[sel], images.amplitudes[sel],
                                                       _polynomial=True)
            expected[0] += np.convolve(train, hrirs.left[h])
            expected[1] += np.convolve(train, hrirs.right[h])
        return expected, truncated

    @pytest.mark.parametrize("taps", [1, 128, 300])
    def test_matches_per_direction_convolution(self, rng, taps):
        """Over more than 64 used HRIR directions of 1-300 taps and a length
        that no frame divides, the BRIR equals each direction's impulse train
        convolved with its HRIR pair by np.convolve, and every truncated
        arrival is counted."""
        hrirs = HrirSet(fibonacci_grid(300).directions, rng.normal(size=(300, taps)),
                        rng.normal(size=(300, taps)), FS)
        images = enumerate_images(_scene(max_order=8))
        length = 3001
        with pytest.warns(TruncatedResponseWarning) as caught:
            brir = render_reference_brir(images, hrirs, FS, length)
        matches = np.argmax(images.directions @ hrirs.directions.T, axis=1)
        assert np.unique(matches).size > 64
        expected, truncated = self._per_direction_convolution(images, hrirs, length)
        assert np.abs(brir.samples - expected).max() <= 1e-12 * np.abs(expected).max()
        assert truncated > 0
        assert str(caught[0].message).startswith(f"{truncated} image arrivals")

    def test_sparse_scene_matches_per_direction_convolution(self, rng):
        """A first-order scene's seven arrivals in 19,200 samples: most of the
        512-sample frames hold no arrival, and those are silence."""
        hrirs = HrirSet(fibonacci_grid(300).directions, rng.normal(size=(300, 128)),
                        rng.normal(size=(300, 128)), FS)
        images = enumerate_images(_scene(max_order=1))
        brir = render_reference_brir(images, hrirs, FS, 19200)
        frames = np.unique((np.floor(images.delays * FS).astype(int) - dsp.FRACTIONAL_DELAY_HALF)
                           // 512)
        assert frames.size < 19200 // 512 // 2
        expected, truncated = self._per_direction_convolution(images, hrirs, 19200)
        assert truncated == 0
        assert np.abs(brir.samples - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_no_arrival_that_fits_renders_silence(self):
        """An image list without its direct image whose arrivals all miss a
        300-sample buffer: no direction is used, every frame is empty, and the
        BRIR is silence of the full length."""
        images = enumerate_images(_scene(max_order=3))
        late = images.orders > 0
        images = ImageSourceList(images.positions[late], images.amplitudes[late],
                                 images.delays[late], images.directions[late],
                                 images.orders[late], images.receiver_origin)
        hrirs = spherical_head_hrir_set(fibonacci_grid(40).directions, sample_rate=FS)
        with pytest.warns(TruncatedResponseWarning, match=f"^{late.sum()} image arrivals"):
            brir = render_reference_brir(images, hrirs, FS, 300)
        assert brir.samples.shape == (2, 300 + hrirs.length - 1)
        assert not brir.samples.any()

    @pytest.mark.parametrize("budget", [1, 2**62], ids=["one-frame", "all-frames"])
    def test_bytes_do_not_depend_on_the_chunk_size(self, monkeypatch, budget):
        """277 used HRIR directions: one frame per chunk and every frame in
        one give the bytes of the default chunks."""
        hrirs = spherical_head_hrir_set(fibonacci_grid(300).directions, sample_rate=FS)
        images = enumerate_images(_scene(max_order=8))
        with pytest.warns(TruncatedResponseWarning):
            expected = render_reference_brir(images, hrirs, FS, 3001).samples
            monkeypatch.setattr(dsp, "_TIME_BLOCK_BYTES", budget)
            assert np.array_equal(render_reference_brir(images, hrirs, FS, 3001).samples, expected)

    def test_dense_hrir_set_memory_bounded(self):
        """12,000 HRIR directions, 1,400 of them used: only one chunk of
        frames' (frame, direction) segments is built at a time, far below one
        impulse train per direction (12,000 x 4,800 samples, 461 MB)."""
        hrirs = spherical_head_hrir_set(fibonacci_grid(12000).directions, sample_rate=FS)
        images = enumerate_images(_scene(max_order=10))
        tracemalloc.start()
        try:
            with pytest.warns(TruncatedResponseWarning):
                brir = render_reference_brir(images, hrirs, FS, 4800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(brir.samples)
        assert peak < 50e6


class TestFoaRender:
    def test_direct_image_encodes_direction(self):
        scene = _scene(max_order=0, source=(3.0, 3.0, 1.9))
        images = enumerate_images(scene)
        foa = render_foa_srir(images, FS, 2000)
        u = images.directions[0]
        peak = int(np.argmax(np.abs(foa.w.samples)))
        w = foa.w.samples[peak]
        assert foa.x.samples[peak] / w == pytest.approx(u[0], abs=1e-6)
        assert foa.y.samples[peak] / w == pytest.approx(u[1], abs=1e-6)
        assert foa.z.samples[peak] / w == pytest.approx(u[2], abs=1e-6)

    def test_keeps_the_i0_window(self):
        """The FOA render places its arrivals with the np.i0 window, byte for
        byte. SIRR reads the FOA and amplifies its rounding (ROADMAP item 4):
        with the polynomial window here the seed-0 golden record fails. The
        FOA takes the polynomial window only after item 4's re-record."""
        images = enumerate_images(_scene(max_order=6))
        with pytest.warns(TruncatedResponseWarning):
            foa = render_foa_srir(images, FS, 1500)
        amps = images.amplitudes * np.vstack([np.ones(len(images)), images.directions.T])
        expected = np.zeros((4, 1500))
        dsp.place_fractional_impulses(expected, images.delays * FS, amps, _polynomial=False)
        assert foa.samples.tobytes() == expected.tobytes()


def test_decay_monotone_in_wall_reflection():
    grid = fibonacci_grid(48)
    hrirs = spherical_head_hrir_set(grid.directions, sample_rate=FS)
    t30s = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        for beta in (0.6, 0.7, 0.8):
            scene = Scene(
                room=ShoeboxRoom(
                    dimensions=np.array((6.2, 5.6, 3.4)),
                    reflection_coefficients=np.full(6, beta),
                    max_order=25,
                ),
                source=np.array([5.0, 3.2, 1.4]),
                receiver_origin=np.array([3.3, 2.6, 1.275]),
            )
            brir = render_reference_brir(
                enumerate_images(scene), hrirs, FS, int(0.5 * FS)
            )
            t30s.append(t30_mid(brir))
    assert t30s[0] < t30s[1] < t30s[2]


@pytest.mark.parametrize("max_order", [2.5, True, float("nan"), "3", 3.0, -1])
def test_room_order_must_be_a_whole_number(max_order):
    """The library's one integer rule: 3.0 is refused as in ``fibonacci_grid``;
    the CLI casts a whole JSON number before it builds the room."""
    with pytest.raises(ValueError, match="max_order"):
        _room(max_order=max_order)


def test_room_order_is_stored_as_an_int():
    assert type(_room(max_order=np.int64(3)).max_order) is int


def test_receiver_is_an_array():
    assert _scene().receiver.name == "om6"
    hrirs = spherical_head_hrir_set(fibonacci_grid(16).directions, sample_rate=FS)
    for receiver in (hrirs, "ideal-foa"):
        with pytest.raises(ValueError, match="receiver must be a MicArrayGeometry"):
            Scene(room=_room(), source=np.array([3.0, 2.0, 1.5]),
                  receiver_origin=np.array([1.5, 1.7, 1.2]), receiver=receiver)


def test_center_capsule_is_the_ideal_w():
    """A pressure capsule at the array origin hears what the ideal
    first-order receiver's W does, so a dedicated centre microphone is the
    ``zeroth-order`` pressure source."""
    om6_and_center = MicArrayGeometry(np.vstack([presets.om6().positions, np.zeros(3)]))
    images = enumerate_images(presets.scene("front_left", max_order=10))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        center = render_array_srir(images, om6_and_center, FS, 4800).samples[6]
        w = render_foa_srir(images, FS, 4800).w.samples
    assert np.abs(center - w).max() <= 1e-15 * np.abs(w).max()



def test_array_and_reference_bytes_do_not_depend_on_blas_threads(blas_env):
    """The array and reference renders build their kernels as BLAS products
    of the Farrow table; one thread and two give both renders the same bytes."""
    script = (
        "import hashlib, warnings\n"
        "from srirkit import presets\n"
        "from srirkit.grids import fibonacci_grid\n"
        "from srirkit.hrir import spherical_head_hrir_set\n"
        "from srirkit.ism import enumerate_images, render_array_srir, render_reference_brir\n"
        "warnings.simplefilter('ignore')\n"
        "images = enumerate_images(presets.scene('front_left', max_order=12))\n"
        f"hrirs = spherical_head_hrir_set(fibonacci_grid(240).directions, sample_rate={FS})\n"
        f"srir = render_array_srir(images, presets.om6(), {FS}, 9600)\n"
        f"brir = render_reference_brir(images, hrirs, {FS}, 9600)\n"
        "print(hashlib.sha256(srir.samples.tobytes() + brir.samples.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in (1, 2):
        run = subprocess.run([sys.executable, "-c", script], env=blas_env(threads),
                             capture_output=True, text=True, timeout=120, check=True)
        digests.append(run.stdout.strip())
    images = enumerate_images(presets.scene("front_left", max_order=12))
    hrirs = spherical_head_hrir_set(fibonacci_grid(240).directions, sample_rate=FS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedResponseWarning)
        srir = render_array_srir(images, presets.om6(), FS, 9600)
        brir = render_reference_brir(images, hrirs, FS, 9600)
    here = hashlib.sha256(srir.samples.tobytes() + brir.samples.tobytes()).hexdigest()
    assert digests == [here, here]
