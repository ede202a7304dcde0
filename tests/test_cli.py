import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stackseg
from stackseg import cli
from stackseg.data import load_samples, read_pgm
from stackseg.weights_io import MAGIC, VERSION, load_weights, save_weights


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("flow")
    data = root / "data"
    weights = root / "net.sdnw"
    assert run(["synth", "--out", str(data), "--count", "6", "--size", "64",
                "--seed", "3"]) == 0
    assert run(["train", "--data", str(data / "manifest.txt"),
                "--out", str(weights), "--units", "1", "--supervision", "4",
                "--iters", "2", "--batch", "2", "--crop", "32",
                "--log", str(root / "train.log")]) == 0
    return root


def test_synth_writes_loadable_dataset(workspace):
    meta, samples = load_samples(workspace / "data" / "manifest.txt")
    assert meta["num_classes"] == "3"
    assert len(samples) == 6
    assert samples[0].image.shape == (3, 64, 64)


def test_train_log_rows(workspace):
    rows = (workspace / "train.log").read_text().strip().splitlines()
    assert len(rows) == 2  # iterations 0 and last
    first = rows[0].split("\t")
    assert first[0] == "0" and float(first[1]) > 0
    assert first[3].startswith("unit1.r4=")


def test_infer_then_eval(workspace, capsys):
    preds = workspace / "preds"
    manifest = str(workspace / "data" / "manifest.txt")
    assert run(["infer", "--weights", str(workspace / "net.sdnw"),
                "--data", manifest, "--out", str(preds)]) == 0
    files = sorted(p.name for p in preds.iterdir())
    assert len(files) == 6 and files[0] == "synth0000_pred.pgm"
    pred = read_pgm(preds / files[0])
    assert pred.shape == (64, 64) and set(np.unique(pred)) <= {0, 1, 2}
    capsys.readouterr()

    assert run(["eval", "--data", manifest, "--pred", str(preds)]) == 0
    out = capsys.readouterr().out
    assert "mean_iou=" in out and "global_accuracy=" in out
    assert "class0_iou=" in out and "class2_iou=" in out


def test_infer_ms_flip(workspace):
    preds = workspace / "preds_ms"
    assert run(["infer", "--weights", str(workspace / "net.sdnw"),
                "--data", str(workspace / "data" / "manifest.txt"),
                "--out", str(preds), "--ms-flip", "--scales", "0.5,1.0"]) == 0
    assert len(list(preds.iterdir())) == 6


def test_checkpoint_is_self_describing(workspace, tmp_path, capsys):
    """infer must rebuild the right topology from the file alone, even for
    a non-default shape (2 units, heads only at ratio 4)."""
    data = str(workspace / "data" / "manifest.txt")
    weights = tmp_path / "two_unit.sdnw"
    assert run(["train", "--data", data, "--out", str(weights),
                "--units", "2", "--supervision", "4", "--iters", "1",
                "--batch", "1", "--crop", "32"]) == 0
    capsys.readouterr()
    preds = tmp_path / "p"
    assert run(["infer", "--weights", str(weights), "--data", data,
                "--out", str(preds)]) == 0
    assert read_pgm(preds / "synth0000_pred.pgm").shape == (64, 64)


def test_analyze_sweep_and_check_built(capsys):
    assert run(["analyze", "--profile", "mini", "--units", "2",
                "--classes", "3", "--sweep", "3", "--check-built"]) == 0
    out = capsys.readouterr().out
    assert "params_total=214546" in out
    assert "depth=34" in out
    assert "sweep.units3.params_total=343011" in out
    assert "sweep.unit_delta_constant=true" in out
    assert "built_matches_closed_form=true" in out


def test_gradcheck_command(capsys):
    assert run(["gradcheck", "--seeds", "1", "--composite-seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck passed" in out
    assert "conv2d" in out and "composite[0]" in out


def test_domain_errors_exit_1(tmp_path, capsys):
    assert run(["train", "--data", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "w")]) == 1
    assert "error:" in capsys.readouterr().err

    junk = tmp_path / "junk.sdnw"
    junk.write_bytes(b"not a container")
    manifest = tmp_path / "m.txt"
    manifest.write_text("a.ppm\n")
    assert run(["infer", "--weights", str(junk), "--data", str(manifest),
                "--out", str(tmp_path / "p")]) == 1
    assert "bad magic" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "infer", "eval"])
@pytest.mark.parametrize("blob,hint", [
    (b"num_classes = 3\n\xff.ppm\n", ":2: not UTF-8"),
    (b"num_classes = 3\na\x00.ppm\ta.pgm\n", ":2: NUL byte"),
], ids=["not_utf8", "nul_in_path"])
def test_binary_manifest_exits_1(workspace, tmp_path, capsys, command, blob,
                                 hint):
    manifest = tmp_path / "m.txt"
    manifest.write_bytes(blob)
    argv = {"train": ["--out", str(tmp_path / "w.sdnw")],
            "infer": ["--weights", str(workspace / "net.sdnw"),
                      "--out", str(tmp_path / "p")],
            "eval": ["--pred", str(tmp_path / "p")]}[command]
    assert run([command, "--data", str(manifest)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and hint in err


@pytest.mark.parametrize("value", ["abc", "0", "256", "9" * 5000],
                         ids=["abc", "zero", "256", "5000_digits"])
def test_bad_num_classes_exits_1(workspace, tmp_path, capsys, value):
    data = workspace / "data"
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"num_classes = {value}\n"
                        f"{data / 'synth0000.ppm'}\t"
                        f"{data / 'synth0000_labels.pgm'}\n")
    assert run(["train", "--data", str(manifest), "--out",
                str(tmp_path / "w.sdnw"), "--iters", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "num_classes" in err


def test_huge_classes_flag_exits_1(workspace, tmp_path, capsys):
    # used to build 2 TiB of head weights and die with a raw MemoryError
    assert run(["train", "--data", str(workspace / "data" / "manifest.txt"),
                "--out", str(tmp_path / "w.sdnw"), "--classes", "1000000000",
                "--iters", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "num_classes" in err


def _infer_fails_cleanly(tmp_path, capsys, weights):
    manifest = tmp_path / "m.txt"
    manifest.write_text("a.ppm\n")
    assert run(["infer", "--weights", str(weights), "--data", str(manifest),
                "--out", str(tmp_path / "p")]) == 1
    assert "error:" in capsys.readouterr().err


def test_infer_rejects_corrupt_tensor_header(tmp_path, capsys):
    # one tensor whose dims declare 2**96 float32 values
    entry = struct.pack("<I", 1) + b"w" + struct.pack("<4I", 3, *[0xFFFFFFFF] * 3)
    weights = tmp_path / "huge.sdnw"
    weights.write_bytes(MAGIC + struct.pack("<II", VERSION, 1) + entry)
    _infer_fails_cleanly(tmp_path, capsys, weights)


@pytest.mark.parametrize("vec", [
    [1, 3, 1, 5, 1, 1, 0.8],     # profile id outside {0: mini, 1: full}
    [1, 3],                      # wrong length
    1.0,                         # scalar
    [1, 3, 1, 0, 0, 1, 0.8],     # supervision mask with no ratio bit
    [1, 3, 1, 0, 1, 1, np.nan],  # non-finite
], ids=["profile_id", "length_2", "scalar", "empty_mask", "nan"])
def test_infer_rejects_malformed_config(tmp_path, capsys, vec):
    weights = tmp_path / "bad_config.sdnw"
    save_weights(weights, {"meta.config": np.array(vec, dtype=np.float32)})
    _infer_fails_cleanly(tmp_path, capsys, weights)


@pytest.mark.parametrize("classes,units,hint", [
    (1e9, 1, "1000000000 classes"),  # would ask for TiBs of head weights
    (3, 2, "2 units"),               # the tensors hold one unit
], ids=["huge_num_classes", "wrong_num_units"])
def test_infer_checks_config_against_tensors(workspace, tmp_path, capsys,
                                             classes, units, hint):
    state = load_weights(workspace / "net.sdnw")
    state["meta.config"] = np.array([1, classes, units, 0, 1, 1, 0.8],
                                    dtype=np.float32)
    weights = tmp_path / "lying.sdnw"
    save_weights(weights, state)
    manifest = tmp_path / "m.txt"
    manifest.write_text("a.ppm\n")
    tracemalloc.start()
    try:
        assert run(["infer", "--weights", str(weights), "--data",
                    str(manifest), "--out", str(tmp_path / "p")]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error:") and hint in err
    assert peak < 1 << 20


def test_eval_rejects_corrupt_prediction_map(workspace, tmp_path, capsys):
    preds = tmp_path / "p"
    preds.mkdir()
    (preds / "synth0000_pred.pgm").write_bytes(
        b"P5\n100000 100000\n255\n" + bytes(10))
    assert run(["eval", "--data", str(workspace / "data" / "manifest.txt"),
                "--pred", str(preds)]) == 1
    assert "truncated pixel data" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        run(["frobnicate"])
    assert e.value.code == 2


ANALYZE_ARGV = ["analyze", "--profile", "mini", "--units", "1",
                "--classes", "3"]


def test_console_script_installed():
    """The ``stackseg`` console script declared in pyproject.toml works.

    The entry point is run from source in a fresh interpreter, the way an
    installed wrapper calls it, so no install is needed. If a ``stackseg``
    executable is on PATH as well, it must give the same output."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        scripts = tomllib.load(f).get("project", {}).get("scripts", {})
    target = scripts.get("stackseg")
    assert target, "pyproject.toml declares no [project.scripts] stackseg"
    module, _, attr = target.partition(":")
    assert all(part.isidentifier() for part in module.split(".")) \
        and attr.isidentifier(), f"entry point {target!r} is not module:attr"

    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ,
               PYTHONPATH=str(Path(stackseg.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", wrapper, *ANALYZE_ARGV],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "params_total=86081" in proc.stdout

    exe = shutil.which("stackseg")
    if exe:
        installed = subprocess.run([exe, *ANALYZE_ARGV], capture_output=True,
                                   text=True)
        assert installed.returncode == 0, installed.stderr
        assert installed.stdout == proc.stdout
