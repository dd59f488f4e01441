import numpy as np

from critnorm import fieldio

import testdata


class TestCsvExport:
    def test_slice_layout(self, tmp_path, grid16, rng):
        f = testdata.random_scalar(grid16, rng)
        p = tmp_path / "slice.csv"
        fieldio.write_csv_slice(p, f, axis=2)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "coord0,coord1,value"
        assert len(lines) == 1 + grid16.n ** 2
        i, j, v = (float(t) for t in lines[1].split(","))
        assert np.isclose(i, grid16.x[0])
        assert np.isclose(v, f.values[0, 0, grid16.n // 2])

    def test_roundtrip_precision(self, tmp_path, grid16, rng):
        f = testdata.random_scalar(grid16, rng)
        p = tmp_path / "slice.csv"
        fieldio.write_csv_slice(p, f, axis=0)
        rows = np.loadtxt(p, delimiter=",", skiprows=1)
        vals = rows[:, 2].reshape(grid16.n, grid16.n)
        assert np.array_equal(vals, f.values[grid16.n // 2])
