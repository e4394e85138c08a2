"""ioutil.write_csv against the per-cell oracle writer, and the float
kernel's text against repr(float(v)) on every class of float64 value."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from betagraph import ioutil

bit_patterns = st.lists(st.integers(-2**63, 2**63 - 1), max_size=60)
float32s = st.lists(st.floats(width=32), max_size=60)


def written(values):
    """The writer's text of each entry of a 1-D array, and the distinct
    texts it took from repr one by one."""
    taken = []

    def spy(strings):
        strings = list(strings)
        taken.extend(strings)
        return text(strings)

    text, ioutil._text = ioutil._text, spy
    try:
        cells, lens = ioutil._cells(np.asarray(values))
    finally:
        ioutil._text = text
    return [bytes(c[:n]).decode() for c, n in zip(cells, lens)], taken


def assert_repr(x):
    got, _ = written(x)
    assert got == [repr(float(v)) for v in x.tolist()]


class TestFloatKernel:
    @given(bit_patterns)
    def test_any_bit_pattern(self, bits):
        assert_repr(np.array(bits, dtype=np.int64).view(np.float64))

    @given(st.lists(st.floats(allow_subnormal=True), max_size=60))
    def test_floats_with_subnormals_zeros_infinities_nan(self, values):
        assert_repr(np.array(values + [0.0, -0.0, np.inf, -np.inf, np.nan,
                                       5e-324, -2.2250738585072014e-308]))

    @given(float32s)
    def test_float32_arrays(self, values):
        assert_repr(np.array(values, dtype=np.float32))

    @pytest.mark.filterwarnings("error")
    def test_float32_signalling_nan_widens_silently(self, tmp_path):
        # quiet bit clear, payload set; the widening cast raises the invalid
        # flag on these, and a warning here would be an error
        bits = np.array([0x7f800001, 0xffa00000, 0x7fbfffff, 0x7fc00000],
                        np.uint32)
        x = bits.view(np.float32)
        assert_repr(x)
        ioutil.write_csv(tmp_path / "nan.csv", ["v"], [x])
        assert (tmp_path / "nan.csv").read_text() == "v\n" + "nan\n" * 4

    @given(st.lists(st.tuples(st.integers(-10**9, 10**9),
                              st.integers(1, 10**9)), min_size=1, max_size=60))
    def test_rationals(self, pairs):
        assert_repr(np.array([i / m for i, m in pairs]))

    @given(st.lists(st.tuples(st.integers(-5, 17), st.integers(-64, 64)),
                    min_size=1, max_size=60))
    def test_power_of_ten_neighbours(self, pairs):
        # 10**k (1 + j 2**-52): the edges of the log10 estimate and of 10**k
        assert_repr(np.array([10.0**k * (1 + j * 2.0**-52) for k, j in pairs]))

    @given(st.lists(st.integers(-1074, 1023), min_size=1, max_size=60))
    def test_exact_powers_of_two_go_to_repr(self, exps):
        x = np.array([(-1.0) ** e * 2.0**e for e in exps])
        got, taken = written(x)
        assert got == list(map(repr, x.tolist()))
        assert sorted(taken) == sorted(set(got))

    @given(st.lists(st.integers(0, 2**51 - 1), min_size=1, max_size=60))
    def test_exact_ties_go_to_repr(self, js):
        # (2**52 + 2j + 1) / 4 * 10 ends in .5 exactly: the two nearest
        # 17-digit decimals tie and both round-trip
        x = (2.0**52 + 2 * np.array(js) + 1) / 4
        got, taken = written(x)
        assert got == list(map(repr, x.tolist()))
        assert sorted(taken) == sorted(set(got))

    def test_deterministic_sweep(self, tmp_path):
        """1.02e6 values against repr, most of them written by the kernel:
        repr writes the ties, which are common only above 1e12, where the
        last digits are few bits of the mantissa."""
        gen = np.random.default_rng(2024)
        n = 170_000
        sign = gen.choice([-1.0, 1.0], n)
        domain = sign * 10.0 ** gen.uniform(-4, 16, n)
        cases = {
            "log-uniform in the domain": domain,
            "uniform, float32 origin":
                gen.random(n).astype(np.float32).astype(np.float64),
            "i/m rationals": gen.integers(-10**6, 10**6, n)
                / gen.integers(1, 10**6, n),
            "10**k neighbours": 10.0 ** gen.integers(-5, 17, n)
                * (1 + gen.integers(-40, 40, n) * 2.0**-52),
            "short decimals": np.round(gen.uniform(-1e3, 1e3, n),
                                       int(gen.integers(1, 8))),
            "bit patterns":
                gen.integers(-2**63, 2**63 - 1, n).view(np.float64),
        }
        path = tmp_path / "sweep.csv"
        for name, x in cases.items():
            ioutil.write_csv(path, ["x"], [x])
            expected = "x\n" + "\n".join(map(repr, x.tolist())) + "\n"
            assert path.read_bytes() == expected.encode(), name
        _, taken = written(domain)
        assert len(taken) < 0.02 * n
        _, taken = written(cases["uniform, float32 origin"])
        assert len(taken) < 0.005 * n


class TestIntCells:
    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=60))
    def test_int64_as_str(self, values):
        got, _ = written(np.array(values, dtype=np.int64))
        assert got == list(map(str, values))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
    def test_other_int_dtypes(self, dtype):
        info = np.iinfo(dtype)
        v = np.array([info.min, info.max, 0, 1, 9, 10, 99, 100], dtype=dtype)
        assert written(v)[0] == list(map(str, v.tolist()))


def same_bytes(tmp_path, header, columns):
    ioutil.write_csv(tmp_path / "kernel.csv", header, columns)
    oracles.write_csv(tmp_path / "oracle.csv", header, columns)
    return ((tmp_path / "kernel.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


class TestWriteCsv:
    @pytest.mark.parametrize("header, columns", [
        ([], []),
        (["a", "b"], [np.array([]), []]),
        (["x"], [np.array([0.5])]),
        (["a", "b", "c"], [np.array([1.25]), np.array([-7]), ["z"]]),
        (["i", "u"], [np.array([-2**63, 2**63 - 1, -1, 0, 10**16,
                                -10**16 + 1]),
                      np.array([0, 2**64 - 1, 10**19, 7, 8, 9],
                               dtype=np.uint64)]),
        (["f32", "f16"], [np.array([0.1, 1e-8, 3e38, np.nan], np.float32),
                          np.array([0.1, 1e-5, 6e4, -np.inf], np.float16)]),
        (["round", "loss", "note"], [[1, 2, 3], [0.5, None, float("nan")],
                                     [None, "ok", "a,b"]]),
        (["short", "long"], [np.arange(3), np.linspace(0, 1, 7)]),
        (["flag", "name", "pair"], [np.array([True, False]),
                                    np.array(["ab", "c"]),
                                    np.arange(4.0).reshape(2, 2)]),
    ])
    def test_tables_match_the_oracle(self, tmp_path, header, columns):
        assert same_bytes(tmp_path, header, columns)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mixed_tables_match_the_oracle(self, tmp_path_factory, data):
        rows = data.draw(st.integers(0, 12))
        kinds = data.draw(st.lists(st.sampled_from(
            ["bits", "f32", "int", "list"]), max_size=5))
        columns = []
        for kind in kinds:
            if kind == "bits":
                cells = data.draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                           min_size=rows, max_size=rows))
                columns.append(np.array(cells, np.int64).view(np.float64))
            elif kind == "f32":
                columns.append(np.array(data.draw(st.lists(
                    st.floats(width=32), min_size=rows, max_size=rows)),
                    np.float32))
            elif kind == "int":
                columns.append(np.array(data.draw(st.lists(
                    st.integers(-2**63, 2**63 - 1), min_size=rows,
                    max_size=rows)), np.int64))
            else:
                columns.append(data.draw(st.lists(
                    st.none() | st.floats() | st.integers() | st.text(),
                    min_size=rows, max_size=rows)))
        header = [f"c{i}" for i in range(len(columns))]
        assert same_bytes(tmp_path_factory.mktemp("t"), header, columns)


def test_dataset_hash_skips_the_manifest(tmp_path):
    (tmp_path / "data.bin").write_bytes(b"\x00\x01")
    before = ioutil.sha256_dir(tmp_path)
    (tmp_path / "manifest.json").write_text('{"started": "now"}\n')
    assert ioutil.sha256_dir(tmp_path) == before
    (tmp_path / "data.bin").write_bytes(b"\x00\x02")
    assert ioutil.sha256_dir(tmp_path) != before
