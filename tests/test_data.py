import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadfq.data import (
    box_muller,
    apply_standardization,
    load_csv,
    make_blobs,
    make_rings,
    sample_noise_and_labels,
    save_csv,
    standardize,
    substream,
)
from adadfq.errors import ConfigError, DataError


class TestSubstream:
    def test_same_seed_replays(self):
        a = substream(7, "noise").random(5)
        b = substream(7, "noise").random(5)
        np.testing.assert_array_equal(a, b)

    def test_substreams_independent(self):
        a = substream(7, "noise").random(5)
        b = substream(7, "labels").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = substream(0, "noise").random(5)
        b = substream(1, "noise").random(5)
        assert not np.array_equal(a, b)

    # The first two draws of three streams. The golden test checks the key
    # derivation only on the numpy its hashes were recorded with; these
    # literals check it on any numpy.
    @pytest.mark.parametrize("seed, name, first, second", [
        (0, "noise", "0x1.9c69697a93570p-2", "0x1.b35f07a1db6b8p-4"),
        (0, "labels", "0x1.63bcbfb2b906cp-1", "0x1.63002aeedc500p-7"),
        (7, "generator_init", "0x1.b3fe986858d4bp-1", "0x1.440b5c0d34e28p-1"),
    ])
    def test_first_draws_are_pinned(self, seed, name, first, second):
        draws = substream(seed, name).random(2).tolist()
        assert draws == [float.fromhex(first), float.fromhex(second)]


class TestBoxMuller:
    def test_shape_and_dtype(self):
        z = box_muller(substream(0, "x"), (3, 5))
        assert z.shape == (3, 5) and z.dtype == np.float64

    def test_odd_count(self):
        assert box_muller(substream(0, "x"), (7,)).shape == (7,)

    def test_moments(self):
        z = box_muller(substream(0, "x"), (200_000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_known_transform_values(self):
        # feed a generator and recompute the transform by hand on the same
        # uniform draws
        gen = substream(3, "probe")
        z = box_muller(gen, (2,))
        gen2 = substream(3, "probe")
        u = gen2.random(1)
        u2 = gen2.random(1)
        r = np.sqrt(-2.0 * np.log(1.0 - u))
        np.testing.assert_allclose(
            z, [r[0] * np.cos(2 * np.pi * u2[0]), r[0] * np.sin(2 * np.pi * u2[0])]
        )


class TestMakeBlobs:
    def test_split_sizes_and_stratification(self):
        train, test = make_blobs(4, 50, 8, 1.0, 0)
        assert train.num_samples == 160 and test.num_samples == 40
        assert set(np.unique(train.labels)) == set(range(4))
        assert set(np.unique(test.labels)) == set(range(4))

    def test_deterministic(self):
        a, _ = make_blobs(3, 20, 4, 1.0, 5)
        b, _ = make_blobs(3, 20, 4, 1.0, 5)
        np.testing.assert_array_equal(a.features, b.features)

    def test_centers_respected_at_small_spread(self):
        train, _ = make_blobs(4, 50, 4, 0.01, 0)
        for c in range(4):
            cluster = train.features[train.labels == c]
            center = cluster.mean(axis=0)
            angle = 2 * np.pi * c / 4
            np.testing.assert_allclose(
                center[:2], [4 * np.cos(angle), 4 * np.sin(angle)], atol=0.05
            )
            np.testing.assert_allclose(center[2:], 0.0, atol=0.05)


class TestMakeRings:
    def test_radii_grow_with_class(self):
        train, _ = make_rings(3, 100, 0)
        norms = np.linalg.norm(train.features, axis=1)
        means = [norms[train.labels == c].mean() for c in range(3)]
        np.testing.assert_allclose(means, [1.0, 2.0, 3.0], atol=0.1)

    def test_two_dimensional(self):
        train, _ = make_rings(2, 20, 0)
        assert train.dim == 2


class TestStandardize:
    def test_zero_mean_unit_std(self):
        train, _ = make_blobs(3, 100, 4, 2.0, 1)
        out, stats = standardize(train)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-10)

    def test_apply_reuses_train_stats(self):
        train, test = make_blobs(3, 100, 4, 2.0, 1)
        out, stats = standardize(train)
        test_out = apply_standardization(test, stats)
        np.testing.assert_allclose(
            test_out.features, (test.features - stats[0]) / stats[1]
        )

    def test_constant_column_warns_and_zeroes(self):
        train, _ = make_blobs(3, 20, 4, 1.0, 0)
        train.features[:, 2] = 7.0
        with pytest.warns(UserWarning, match="constant"):
            out, _ = standardize(train)
        np.testing.assert_array_equal(out.features[:, 2], 0.0)


class TestCsvRoundTrip:
    def test_save_load_identity(self, tmp_path):
        train, _ = make_blobs(3, 20, 4, 1.0, 2)
        path = tmp_path / "d.csv"
        save_csv(train, path)
        loaded = load_csv(path, stats=(np.zeros(4), np.ones(4)))
        np.testing.assert_array_equal(loaded.features, train.features)
        np.testing.assert_array_equal(loaded.labels, train.labels)

    def test_load_returns_raw_rows_by_default(self, tmp_path):
        # standardizing is the caller's, from a train split's statistics
        train, _ = make_blobs(3, 20, 4, 1.0, 2)
        train.features += 100.0
        path = tmp_path / "d.csv"
        save_csv(train, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.features, train.features)
        np.testing.assert_array_equal(loaded.labels, train.labels)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,target\n1.0,2.0,0\n")
        with pytest.raises(ConfigError, match="label"):
            load_csv(path)

    def test_repeated_column_is_rejected(self, tmp_path):
        """A second ``label`` column would otherwise load as a feature."""
        path = tmp_path / "d.csv"
        path.write_text("label,x0,label\n0,1.5,1\n1,2.5,0\n")
        with pytest.raises(DataError, match=r"d\.csv: column 'label' appears twice"):
            load_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,label\n1.0,oops,0\n")
        with pytest.raises(DataError, match=":2"):
            load_csv(path)

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,label\n1.0,2.0,0.5\n")
        with pytest.raises(DataError):
            load_csv(path)

    @pytest.mark.parametrize("row", ["1.0,{},1", "{},2.0,1", "1.0,2.0,{}"],
                             ids=["feature", "first_feature", "label"])
    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
    def test_non_finite_value_reports_line(self, tmp_path, row, cell):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,label\n1.0,2.0,0\n" + row.format(cell) + "\n")
        with pytest.raises(DataError, match=":3: non-finite value"):
            load_csv(path)

    def test_label_beyond_int64_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,label\n1.0,2.0,0\n1.0,2.0,1e300\n")
        with pytest.raises(DataError, match=":3: non-integer or oversized label"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet exports start with one; the label is the first column,
        # where the mark would otherwise hide its name
        text = "label,x0,x1\n0,1.0,2.0\n1,3.0,4.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        got, want = load_csv(marked), load_csv(plain)
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_truncated_byte_order_mark_is_not_utf8(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbblabel,x0\n0,1.0\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_csv(path)


class TestSampleNoiseAndLabels:
    def test_shapes_and_one_hot(self):
        z, y = sample_noise_and_labels(substream(0, "noise"), substream(0, "labels"), 16, 64, 4)
        assert z.data.shape == (16, 64)
        assert y.data.shape == (16, 4)
        np.testing.assert_array_equal(y.data.sum(axis=1), 1.0)
        assert set(np.unique(y.data)) <= {0.0, 1.0}

    def test_deterministic_given_seed(self):
        z1, y1 = sample_noise_and_labels(substream(9, "noise"), substream(9, "labels"), 8, 16, 3)
        z2, y2 = sample_noise_and_labels(substream(9, "noise"), substream(9, "labels"), 8, 16, 3)
        np.testing.assert_array_equal(z1.data, z2.data)
        np.testing.assert_array_equal(y1.data, y2.data)

    @given(st.integers(2, 6), st.integers(2, 32))
    @settings(max_examples=20, deadline=None)
    def test_labels_in_range_property(self, num_classes, batch):
        _, y = sample_noise_and_labels(substream(1, "noise"), substream(1, "labels"),
                                       batch, 4, num_classes)
        assert y.data.argmax(axis=1).max() < num_classes
