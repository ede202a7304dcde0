"""Command-line front end.

Subcommands: ``synth`` (write a synthetic dataset), ``train``, ``infer``,
``eval`` (score prediction maps against labels), ``analyze`` (closed-form
architecture accounting), and ``gradcheck`` (finite-difference sweeps).

Checkpoints carry the network configuration as a ``meta.config`` entry,
so ``infer`` rebuilds the right architecture without extra flags. Usage
errors exit 2 (argparse); data/config problems exit 1.
"""
from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .analyzer import architecture_report, count_network_params, format_report
from .data import IGNORE_INDEX, load_samples, pad_to_multiple, read_pgm, \
    save_dataset, synth_dataset, write_pgm
from .errors import ConfigError, DataError, DivergenceError, UsageError
from .gradcheck import composite_check, primitive_sweep
from .metrics import EvalAccumulator
from .network import StackedNet, full_config, mini_config, predict_ms_flip
from .trainer import TrainConfig, train
from .weights_io import load_weights, save_weights

_PROFILES = {"mini": mini_config, "full": full_config}
_RATIO_BITS = {4: 1, 8: 2, 16: 4}
_CONFIG_KEY = "meta.config"


def _parse_ratios(text):
    try:
        ratios = tuple(int(r) for r in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse supervision ratios {text!r}")
    return ratios


def _encode_config(cfg, profile):
    mask = sum(_RATIO_BITS[r] for r in cfg.supervision_ratios)
    profile_id = 0 if profile == "mini" else 1
    return np.array([1, cfg.num_classes, cfg.num_units, profile_id, mask,
                     int(cfg.fuse_scores), cfg.keep_prob], dtype=np.float32)


def _decode_config(vec):
    if vec is None:
        raise DataError("weights file has no embedded network config; "
                        "was it written by the train command?")
    if vec.shape != (7,) or not np.isfinite(vec).all():
        raise DataError(f"malformed {_CONFIG_KEY} of shape {vec.shape}: "
                        "expected 7 finite values")
    if int(vec[0]) != 1:
        raise DataError(f"unknown config encoding version {int(vec[0])}")
    if int(vec[3]) not in (0, 1):
        raise DataError(f"unknown profile id {int(vec[3])} in {_CONFIG_KEY}")
    ratios = tuple(r for r in (16, 8, 4) if int(vec[4]) & _RATIO_BITS[r])
    if not ratios:
        raise DataError(f"supervision mask {int(vec[4])} in {_CONFIG_KEY} "
                        "names no known ratio")
    profile = ("mini", "full")[int(vec[3])]
    cfg = _PROFILES[profile](int(vec[1]), int(vec[2]),
                             supervision_ratios=ratios,
                             fuse_scores=bool(int(vec[5])),
                             keep_prob=float(vec[6]))
    return cfg, profile


def _num_classes(args, meta):
    value = getattr(args, "classes", None) or meta.get("num_classes")
    if value is None:
        raise DataError("number of classes unknown: pass --classes or add "
                        "'num_classes = N' to the manifest")
    # labels live in 8-bit PGMs with IGNORE_INDEX (255) reserved
    try:
        classes = int(value)
    except ValueError:
        classes = None
    if classes is None or not 1 <= classes <= IGNORE_INDEX:
        raise DataError(f"num_classes {value!r} is not an integer in "
                        f"[1, {IGNORE_INDEX}]")
    return classes


def cmd_synth(args):
    samples = synth_dataset(args.count, size=args.size, noise=args.noise,
                            seed=args.seed)
    path = save_dataset(args.out, samples,
                        {"num_classes": 3, "size": args.size,
                         "seed": args.seed, "noise": args.noise})
    print(f"wrote {len(samples)} samples, manifest {path}")
    return 0


def cmd_train(args):
    meta, samples = load_samples(args.data)
    classes = _num_classes(args, meta)
    cfg = _PROFILES[args.profile](
        classes, args.units, supervision_ratios=_parse_ratios(args.supervision))
    net = StackedNet(cfg, seed=args.seed)
    tcfg = TrainConfig(base_lr=args.lr, batch_size=args.batch, crop=args.crop,
                       max_iter=args.iters, seed=args.seed,
                       log_every=args.log_every)
    sink = open(args.log, "w") if args.log else None
    try:
        log_fn = (lambda row: print(row, file=sink, flush=True)) if sink else print
        history = train(net, samples, tcfg, log_fn=log_fn)
    finally:
        if sink:
            sink.close()
    state = net.state_dict()
    state[_CONFIG_KEY] = _encode_config(cfg, args.profile)
    save_weights(args.out, state)
    print(f"final total_loss={history[-1]['total_loss']:.6g} over "
          f"{len(history)} iterations; weights -> {args.out}")
    return 0


def _check_config_against_tensors(cfg, state):
    """Reject a config that the stored tensors contradict, before the
    network it describes is allocated."""
    units = {name.split(".", 1)[0] for name in state if name.startswith("unit")}
    # the length test first: the expected set is only built at a size the
    # file itself bounds
    if len(units) != cfg.num_units or \
            units != {f"unit{i + 1}" for i in range(cfg.num_units)}:
        raise DataError(f"{_CONFIG_KEY} says {cfg.num_units} units but the "
                        f"tensors name {len(units)} unit prefixes")
    widths = {v.shape[0] for name, v in state.items()
              if v.ndim and re.fullmatch(r"unit\d+\.head\d+\.w", name)}
    if widths != {cfg.num_classes}:
        raise DataError(f"{_CONFIG_KEY} says {cfg.num_classes} classes but "
                        f"the score heads have {sorted(widths)[:3]} outputs")


def _load_net(path):
    state = load_weights(path)
    cfg, profile = _decode_config(state.pop(_CONFIG_KEY, None))
    _check_config_against_tensors(cfg, state)
    net = StackedNet(cfg, seed=0)
    net.load_state(state)
    return net, cfg, profile


def cmd_infer(args):
    net, cfg, _ = _load_net(args.weights)
    _, samples = load_samples(args.data)
    os.makedirs(args.out, exist_ok=True)
    for s in samples:
        if args.ms_flip:
            pred = predict_ms_flip(net, s.image,
                                   scales=tuple(float(v) for v in
                                                args.scales.split(",")),
                                   mirror=True)
        else:
            h, w = s.image.shape[1:]
            padded, _ = pad_to_multiple(s.image)
            pred = net.predict(padded[None])[0][:h, :w]
        write_pgm(os.path.join(args.out, f"{s.name}_pred.pgm"), pred)
    print(f"wrote {len(samples)} prediction maps to {args.out}")
    return 0


def cmd_eval(args):
    meta, samples = load_samples(args.data)
    acc = EvalAccumulator(_num_classes(args, meta))
    for s in samples:
        if s.labels is None:
            raise DataError(f"sample {s.name} has no labels")
        pred_path = os.path.join(args.pred, f"{s.name}_pred.pgm")
        if not os.path.exists(pred_path):
            raise DataError(f"missing prediction {pred_path}")
        acc.update(s.labels, read_pgm(pred_path))
    summary = acc.summary()
    print(f"mean_iou={summary['mean_iou']:.4f}")
    print(f"global_accuracy={summary['global_accuracy']:.4f}")
    for i, iou in enumerate(summary["per_class_iou"]):
        print(f"class{i}_iou=" + ("absent" if iou is None else f"{iou:.4f}"))
    return 0


def cmd_analyze(args):
    make = _PROFILES[args.profile]
    report = architecture_report(make(args.classes, args.units))
    print(f"profile={args.profile} classes={args.classes} units={args.units}")
    print(format_report(report))
    status = 0
    if args.sweep > 1:
        totals = [architecture_report(make(args.classes, u)).params_total
                  for u in range(1, args.sweep + 1)]
        deltas = [b - a for a, b in zip(totals, totals[1:])]
        for u, total in enumerate(totals, 1):
            print(f"sweep.units{u}.params_total={total}")
        for u, delta in enumerate(deltas, 2):
            print(f"sweep.delta_units{u - 1}_to_{u}={delta}")
        constant = len(set(deltas)) <= 1
        print(f"sweep.unit_delta_constant={str(constant).lower()}")
        if not constant:
            status = 1
    if args.check_built:
        net = StackedNet(make(args.classes, args.units), seed=0)
        match = count_network_params(net) == report.params_by_section
        print(f"built_matches_closed_form={str(match).lower()}")
        if not match:
            status = 1
    return status


def cmd_gradcheck(args):
    tol, failures = 1e-4, []
    for name, err in primitive_sweep(args.seeds, args.step).items():
        ok = err < tol
        if not ok:
            failures.append(name)
        print(f"{name}: max_rel_err={err:.3g} "
              f"{'ok' if ok else f'FAIL (tol {tol:g})'}")
    for seed in range(args.composite_seeds):
        err = composite_check(seed)
        ok = err < 1e-3
        if not ok:
            failures.append(f"composite[{seed}]")
        print(f"composite[{seed}]: max_rel_err={err:.3g} "
              f"{'ok' if ok else 'FAIL (tol 0.001)'}")
    print(f"gradcheck {'passed' if not failures else 'FAILED'}")
    return 0 if not failures else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stackseg",
        description="stacked encoder-decoder semantic segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic shapes dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.08)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a manifest dataset")
    p.add_argument("--data", required=True, help="manifest path")
    p.add_argument("--out", required=True, help="weights output path")
    p.add_argument("--profile", choices=sorted(_PROFILES), default="mini")
    p.add_argument("--units", type=int, default=2)
    p.add_argument("--classes", type=int, default=0,
                   help="overrides the manifest's num_classes")
    p.add_argument("--supervision", default="16,8,4",
                   help="comma-separated score ratios")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--crop", type=int, default=64)
    p.add_argument("--lr", type=float, default=2.5e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", default="", help="write log rows to this file")
    p.add_argument("--log-every", type=int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="write prediction maps for a manifest")
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ms-flip", action="store_true",
                   help="average over scales and mirrors")
    p.add_argument("--scales", default="0.5,0.8,1.0,1.2,1.4")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against labels")
    p.add_argument("--data", required=True, help="manifest with labels")
    p.add_argument("--pred", required=True, help="directory of *_pred.pgm")
    p.add_argument("--classes", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="closed-form architecture accounting")
    p.add_argument("--profile", choices=sorted(_PROFILES), default="full")
    p.add_argument("--units", type=int, default=1)
    p.add_argument("--classes", type=int, default=21)
    p.add_argument("--sweep", type=int, default=0,
                   help="also report totals for 1..N units and their deltas")
    p.add_argument("--check-built", action="store_true",
                   help="build the network and compare section by section")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient sweeps")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--composite-seeds", type=int, default=5)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, DivergenceError, UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
