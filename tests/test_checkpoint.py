import json

import numpy as np
import pytest

from gchr.harness.cli import main
from gchr.nn import Mlp, load_params, save_params
from gchr.nn.checkpoint import MAGIC


def test_round_trip_is_bit_exact(tmp_path):
    net = Mlp.initialize([4, 16, 3], rng=0)
    path = tmp_path / "net.ckpt"
    save_params(path, net.params())
    loaded = load_params(path)
    assert list(loaded) == list(net.params())
    for name, arr in net.params().items():
        assert loaded[name].dtype == np.float64
        assert np.array_equal(loaded[name], arr)
        # bit-exact, not just value-equal
        assert loaded[name].tobytes() == arr.tobytes()


def test_round_trip_preserves_shapes(tmp_path):
    params = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.array(3.5)}
    path = tmp_path / "p.ckpt"
    save_params(path, params)
    loaded = load_params(path)
    assert loaded["a"].shape == (2, 3)
    assert loaded["b"].shape == ()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError, match="magic"):
        load_params(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_params(path, {"w": np.ones(10)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_params(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_params(path, {"w": np.ones(10)})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        load_params(path)


def test_negative_dimension_rejected(tmp_path):
    # count -1 would read to the end of the file, and `b` would then start
    # inside the header's bytes
    header = {"arrays": [{"name": "a", "shape": [-1]}, {"name": "b", "shape": [3]}]}
    path = tmp_path / "neg.ckpt"
    path.write_bytes(MAGIC + json.dumps(header).encode("ascii") + b"\n" + bytes(16))
    with pytest.raises(ValueError, match=r"bad shape \[-1\] for array 'a'"):
        load_params(path)


@pytest.mark.parametrize("header", [
    {"x": 1},
    [],
    {"arrays": [{"shape": [2]}]},
    {"arrays": [{"name": "actor.w0", "shape": 2}]},
])
def test_eval_on_a_header_of_the_wrong_structure_exits_1(tmp_path, header, capsys):
    path = tmp_path / "odd.ckpt"
    path.write_bytes(MAGIC + json.dumps(header).encode("ascii") + b"\n" + bytes(16))
    with pytest.raises(ValueError, match="header"):
        load_params(path)
    argv = ["eval", "--checkpoint", str(path), "--env", "point_reach", "--episodes", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "run failed" in err and "Traceback" not in err


class _FailsMidWrite:
    """An array entry whose bytes cannot be produced: the save fails after
    the header and the arrays before it are written."""

    shape = (3,)

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def test_save_failing_midway_leaves_the_old_checkpoint_loadable(tmp_path):
    path = tmp_path / "c.ckpt"
    old = {"w": np.arange(4.0), "b": np.array([0.5, -0.5])}
    save_params(path, old)
    old_bytes = path.read_bytes()
    with pytest.raises(OSError, match="no space"):
        save_params(path, {"w": np.ones(4), "b": _FailsMidWrite()})
    assert path.read_bytes() == old_bytes
    assert not (tmp_path / "c.ckpt.tmp").exists()
    loaded = load_params(path)
    for name, arr in old.items():
        assert loaded[name].tobytes() == arr.tobytes()
    # the next good save replaces the checkpoint whole
    save_params(path, {"w": np.ones(4)})
    assert np.array_equal(load_params(path)["w"], np.ones(4))
