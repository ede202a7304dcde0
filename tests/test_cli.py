import os
import shutil
import struct
import subprocess
import sys
import tomllib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stackseg
from stackseg import cli, gradcheck
from stackseg.data import load_samples, read_pgm, write_pgm
from stackseg.network import MS_SCALES, StackedNet, mini_config, \
    predict_ms_flip
from stackseg.trainer import TrainConfig
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


@pytest.mark.parametrize("out", ["missing/net.sdnw", "."])
def test_train_checks_the_weights_path_before_training(out, workspace,
                                                        tmp_path, capsys):
    log = tmp_path / "train.log"
    assert run(["train", "--data", str(workspace / "data" / "manifest.txt"),
                "--out", str(tmp_path / out),
                "--units", "1", "--supervision", "4", "--iters", "2",
                "--batch", "2", "--crop", "32", "--log", str(log)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not log.exists() or log.read_text() == ""


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
                "--out", str(preds), "--ms-flip", "0.5,1.0"]) == 0
    assert len(list(preds.iterdir())) == 6


@pytest.mark.parametrize("flags", [(), ("--ms-flip",)],
                         ids=["plain", "ms_flip"])
def test_infer_refuses_non_finite_scores(workspace, tmp_path, capsys, flags):
    """A diverged checkpoint (finite but huge weights) used to infer all-zero
    maps and exit 0, since ``np.argmax`` returns the first NaN's index."""
    data = str(workspace / "data" / "manifest.txt")
    weights = tmp_path / "diverged.sdnw"
    assert run(["train", "--data", data, "--out", str(weights),
                "--units", "1", "--supervision", "4", "--iters", "1",
                "--batch", "1", "--crop", "32", "--lr", "1e38"]) == 0
    capsys.readouterr()
    preds = tmp_path / "p"
    with np.errstate(all="ignore"):
        assert run(["infer", "--weights", str(weights), "--data", data,
                    "--out", str(preds), *flags]) == 1
    assert "class scores are not finite" in capsys.readouterr().err
    assert not preds.exists()


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


def test_train_rejects_log_every_0(workspace, tmp_path, capsys):
    # used to run one iteration, then die on ``it % 0`` without weights
    out = tmp_path / "w.sdnw"
    assert run(["train", "--data", str(workspace / "data" / "manifest.txt"),
                "--out", str(out), "--iters", "1", "--log-every", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "log_every" in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose
def test_train_whose_last_update_diverges_exits_1(workspace, tmp_path,
                                                  capsys):
    # one iteration: its loss is finite, the update it makes is not
    out = tmp_path / "w.sdnw"
    assert run(["train", "--data", str(workspace / "data" / "manifest.txt"),
                "--out", str(out), "--iters", "1", "--batch", "1",
                "--crop", "32", "--lr", "1e38"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "encoder.stem.w" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--noise", "-1"), ("--noise", "nan"), ("--size", "0"), ("--size", "3"),
    ("--count", "0"), ("--count", "-1"),
])
def test_synth_rejects_bad_arguments(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    assert run(["synth", "--out", str(out), "--count", "2", "--size", "16",
                flag, value]) == 1
    assert capsys.readouterr().err.startswith("error: synth:")
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_exits_1(workspace, tmp_path, capsys, command):
    # numpy's SeedSequence used to raise a bare ValueError here
    out = tmp_path / "out"
    argv = {"synth": ["synth", "--out", str(out), "--count", "2",
                      "--size", "16"],
            "train": ["train", "--out", str(out), "--iters", "1",
                      "--data", str(workspace / "data" / "manifest.txt")]}
    assert run(argv[command] + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_analyze_sweep_and_check_built(capsys):
    assert run(["analyze", "--profile", "mini", "--units", "2",
                "--classes", "3", "--sweep", "3"]) == 0
    out = capsys.readouterr().out
    assert "params_total=214546" in out
    assert "depth=34" in out
    assert "sweep.units3.params_total=343011" in out
    assert "sweep.unit_delta_constant=true" in out
    assert "built_matches_closed_form=true" in out


def test_analyze_exits_1_when_the_built_network_differs(monkeypatch, capsys):
    real = cli.count_network_params

    def off_by_one(net):
        counts = real(net)
        return {**counts, "heads": counts["heads"] + 1}

    monkeypatch.setattr(cli, "count_network_params", off_by_one)
    assert run(ANALYZE_ARGV) == 1
    assert "built_matches_closed_form=false" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--units", "0"), ("--classes", "1")])
def test_analyze_rejects_an_invalid_config(flag, value, capsys):
    argv = ["analyze", "--profile", "mini", "--units", "1", "--classes", "3"]
    argv[argv.index(flag) + 1] = value
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "params_total" not in captured.out
    assert captured.err.startswith("error:")


def test_gradcheck_command(monkeypatch, capsys):
    monkeypatch.setattr(gradcheck, "SEEDS", 1)
    monkeypatch.setattr(gradcheck, "COMPOSITE_SEEDS", 1)
    assert run(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [name for name, _, _ in
             gradcheck.primitive_checks(np.random.default_rng(0))]
    assert [line.split(":")[0] for line in lines[:-1]] == \
        names + ["composite[0]"]
    assert all(line.endswith(" ok") for line in lines[:-1])
    assert lines[-1] == "gradcheck passed"


def test_gradcheck_takes_no_options():
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--seeds", "1"])
    assert exc.value.code == 2


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


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd here")
def test_manifest_on_a_pipe_exits_1(workspace, tmp_path, capsys):
    blob = (workspace / "data" / "manifest.txt").read_bytes()
    r, w = os.pipe()
    os.write(w, blob)
    os.close(w)
    path = f"/dev/fd/{r}"
    try:
        assert run(["train", "--data", path,
                    "--out", str(tmp_path / "w.sdnw")]) == 1
    finally:
        os.close(r)
    err = capsys.readouterr().err
    assert f"error: {path}: not a regular file" in err
    assert "Illegal seek" not in err


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


@pytest.mark.parametrize("command", ["train", "eval"])
def test_classes_flag_of_zero_is_refused(workspace, tmp_path, capsys,
                                         command):
    # --classes 0 used to fall back to the manifest's count
    argv = {"train": ["--out", str(tmp_path / "w.sdnw"), "--iters", "1"],
            "eval": ["--pred", str(tmp_path)]}[command]
    assert run([command, "--data", str(workspace / "data" / "manifest.txt"),
                "--classes", "0"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "num_classes" in err
    assert not (tmp_path / "w.sdnw").exists()


@pytest.mark.parametrize("flag,value", [
    ("--crop", "30"), ("--iters", "0"), ("--lr", "nan"), ("--batch", "0"),
    ("--log-every", "0"),
])
def test_rejected_training_settings_touch_no_file(workspace, tmp_path,
                                                  monkeypatch, capsys, flag,
                                                  value):
    # these used to be checked only after the whole dataset was read and
    # the log truncated
    loads = []
    monkeypatch.setattr(cli, "load_samples",
                        lambda *a: loads.append(a) or load_samples(*a))
    log = tmp_path / "run.log"
    log.write_bytes(b"an earlier run's rows\n")
    assert run(["train", "--data", str(workspace / "data" / "manifest.txt"),
                "--out", str(tmp_path / "w.sdnw"), "--log", str(log),
                flag, value]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert log.read_bytes() == b"an earlier run's rows\n"
    assert loads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.log"]


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_repeated_sample_name_exits_1(workspace, tmp_path, capsys, command):
    """a/x.ppm and b/x.ppm would share one x_pred.pgm: infer used to keep
    only the last map and eval to score both images against it."""
    data = workspace / "data"
    lines = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        shutil.copy(data / "synth0000.ppm", tmp_path / sub / "x.ppm")
        shutil.copy(data / "synth0000_labels.pgm", tmp_path / sub / "x.pgm")
        lines.append(f"{sub}/x.ppm\t{sub}/x.pgm\n")
    manifest = tmp_path / "m.txt"
    manifest.write_text("num_classes = 3\n" + "".join(lines))
    preds = tmp_path / "p"
    argv = {"infer": ["--weights", str(workspace / "net.sdnw"),
                      "--out", str(preds)],
            "eval": ["--pred", str(preds)]}[command]
    if command == "eval":
        preds.mkdir()
        write_pgm(preds / "x_pred.pgm", np.zeros((64, 64), np.uint8))
    assert run([command, "--data", str(manifest)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'x'" in err
    assert sorted(p.name for p in preds.glob("*")) == (
        ["x_pred.pgm"] if command == "eval" else [])


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


def _infer(weights, data, out, *flags):
    assert run(["infer", "--weights", str(weights), "--data", str(data),
                "--out", str(out), *flags]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("flags", [(), ("--ms-flip", "0.5,1.0")],
                         ids=["plain", "ms_flip"])
def test_infer_reads_checkpoint_with_legacy_config(workspace, tmp_path,
                                                   flags):
    """Earlier versions also stored a float32 config vector, meta.config;
    such a file still infers, to the same bytes."""
    state = load_weights(workspace / "net.sdnw")
    legacy = tmp_path / "legacy.sdnw"
    save_weights(legacy, {**state, "meta.config": np.array(
        [1, 3, 1, 0, 1, 1, 0.8], dtype=np.float32)})
    data = workspace / "data" / "manifest.txt"
    plain = _infer(workspace / "net.sdnw", data, tmp_path / "plain", *flags)
    assert len(plain) == 6
    assert _infer(legacy, data, tmp_path / "legacy", *flags) == plain


def test_infer_reads_any_saved_state_dict(workspace, tmp_path):
    """A file holding only ``net.state_dict()`` is a usable checkpoint."""
    net = StackedNet(mini_config(3, 2, supervision_ratios=(8, 4)), seed=1)
    weights = tmp_path / "state.sdnw"
    save_weights(weights, net.state_dict())
    data = workspace / "data" / "manifest.txt"
    _infer(weights, data, tmp_path / "p")
    _, samples = load_samples(data)
    for s in samples:
        want = net.predict(s.image[None])[0]
        got = read_pgm(tmp_path / "p" / f"{s.name}_pred.pgm")
        assert np.array_equal(got, want)


def _huge_classes(state):
    # a score head declaring 1e9 outputs, stored with zero payload
    state["unit1.head4.w"] = np.zeros((10**9, 0, 3, 3), dtype=np.float32)


def _many_units(state):
    # the head names of 10 000 units, each head stored with zero payload
    for i in range(2, 10_001):
        state[f"unit{i}.head4.w"] = np.zeros((3, 0, 3, 3), dtype=np.float32)


@pytest.mark.parametrize("craft,hint,max_peak", [
    (_huge_classes, "1000000000-class", 1 << 20),
    (_many_units, "10000-unit", 16 << 20),  # reading 10 000 entries
], ids=["huge_num_classes", "wrong_num_units"])
def test_infer_checks_config_against_tensors(workspace, tmp_path, capsys,
                                             craft, hint, max_peak):
    """A file whose tensor names describe a network larger than the values
    it stores fails before that network is built."""
    state = load_weights(workspace / "net.sdnw")
    craft(state)
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
    assert peak < max_peak


@pytest.mark.parametrize("scales", ["0.5,abc", "nan", "inf", "1e400", "0",
                                    "-1"])
def test_infer_rejects_bad_scales(workspace, tmp_path, capsys, scales):
    assert run(["infer", "--weights", str(workspace / "net.sdnw"),
                "--data", str(workspace / "data" / "manifest.txt"),
                "--out", str(tmp_path / "p"), "--ms-flip", scales]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "scales" in err
    assert not (tmp_path / "p").exists()


def test_parser_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--data", "m", "--out", "w"])
    lib = TrainConfig()
    assert (args.lr, args.batch, args.crop, args.iters, args.log_every) == \
        (lib.base_lr, lib.batch_size, lib.crop, lib.max_iter, lib.log_every)
    infer = ["infer", "--weights", "w", "--data", "m", "--out", "o"]
    assert parser.parse_args(infer).ms_flip is None
    args = parser.parse_args(infer + ["--ms-flip"])
    assert tuple(map(float, args.ms_flip.split(","))) == MS_SCALES
    assert predict_ms_flip.__defaults__[0] is MS_SCALES


def test_eval_rejects_corrupt_prediction_map(workspace, tmp_path, capsys):
    preds = tmp_path / "p"
    preds.mkdir()
    (preds / "synth0000_pred.pgm").write_bytes(
        b"P5\n100000 100000\n255\n" + bytes(10))
    assert run(["eval", "--data", str(workspace / "data" / "manifest.txt"),
                "--pred", str(preds)]) == 1
    assert "truncated while reading pixel data" in capsys.readouterr().err


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
