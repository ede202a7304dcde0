"""Command-line front end.

Subcommands: ``synth`` (write a synthetic dataset), ``train``, ``infer``,
``eval`` (score prediction maps against labels), ``analyze`` (closed-form
architecture accounting, checked against the built network), and
``gradcheck`` (finite-difference sweeps).

A checkpoint holds only the network's tensors; their names and shapes
say which network it is, so ``infer`` rebuilds it without extra flags.
Usage errors exit 2 (argparse); data/config problems exit 1.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import chain

from . import gradcheck
from .analyzer import architecture_report, count_network_params, format_report
from .data import IGNORE_INDEX, load_samples, read_pgm, save_dataset, \
    synth_dataset, write_pgm
from .errors import ConfigError, DataError, DivergenceError, UsageError
from .metrics import EvalAccumulator
from .network import MS_SCALES, PROFILES, NetworkConfig, StackedNet, \
    predict_ms_flip
from .trainer import TrainConfig, train
from .weights_io import save_weights


def _parse_csv(text, kind, what):
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}")


def _num_classes(args, meta):
    value = meta.get("num_classes") if args.classes is None else args.classes
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


def _load_named_samples(path):
    """load_samples for commands that key files by sample name: infer
    writes ``<name>_pred.pgm`` and eval reads it back, so two images
    with one basename would share a prediction map."""
    meta, samples = load_samples(path)
    seen = set()
    for s in samples:
        if s.name in seen:
            raise DataError(f"{path}: two images share the name {s.name!r}; "
                            "prediction maps are named after it")
        seen.add(s.name)
    return meta, samples


def cmd_synth(args):
    samples = synth_dataset(args.count, size=args.size, noise=args.noise,
                            seed=args.seed)
    path = save_dataset(args.out, samples,
                        {"num_classes": 3, "size": args.size,
                         "seed": args.seed, "noise": args.noise})
    print(f"wrote {len(samples)} samples, manifest {path}")
    return 0


def cmd_train(args):
    # a rejected setting touches no file: the schedule and the weights path
    # are checked before the dataset is read, the network before the log
    # is opened
    tcfg = TrainConfig(base_lr=args.lr, batch_size=args.batch, crop=args.crop,
                       max_iter=args.iters, seed=args.seed,
                       log_every=args.log_every)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    # creating a file takes write and search permission on its directory
    if os.path.isdir(args.out) or not os.access(out_dir, os.W_OK | os.X_OK):
        raise DataError(f"cannot write weights to {args.out}")
    meta, samples = load_samples(args.data)
    classes = _num_classes(args, meta)
    ratios = _parse_csv(args.supervision, int, "supervision ratios")
    net = StackedNet(NetworkConfig(classes, args.units, args.profile, ratios),
                     seed=args.seed)
    log = open(args.log, "w") if args.log else nullcontext(sys.stdout)
    with log as sink:
        history = train(net, samples, tcfg,
                        log_fn=lambda row: print(row, file=sink, flush=True))
    save_weights(args.out, net.state_dict())
    print(f"final total_loss={history[-1]['total_loss']:.6g} over "
          f"{len(history)} iterations; weights -> {args.out}")
    return 0


def cmd_infer(args):
    scales = (_parse_csv(args.ms_flip, float, "scales")
              if args.ms_flip is not None else None)
    net = StackedNet.load(args.weights)
    _, samples = _load_named_samples(args.data)
    for s in samples:
        if scales:
            pred = predict_ms_flip(net, s.image, scales=scales, mirror=True)
        else:
            pred = net.predict(s.image[None])[0]
        os.makedirs(args.out, exist_ok=True)  # once the first map exists
        write_pgm(os.path.join(args.out, f"{s.name}_pred.pgm"), pred)
    print(f"wrote {len(samples)} prediction maps to {args.out}")
    return 0


def cmd_eval(args):
    meta, samples = _load_named_samples(args.data)
    acc = EvalAccumulator(_num_classes(args, meta))
    for s in samples:
        if not s.labeled:
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
    cfg = NetworkConfig(args.classes, args.units, args.profile)
    report = architecture_report(cfg)
    print(f"profile={args.profile} classes={args.classes} units={args.units}")
    print(format_report(report))
    net = StackedNet(cfg, seed=0)  # draws no weights: shapes only
    match = count_network_params(net) == report.params_by_section
    print(f"built_matches_closed_form={str(match).lower()}")
    status = 0 if match else 1
    if args.sweep > 1:
        totals = [architecture_report(NetworkConfig(
                      args.classes, u, args.profile)).params_total
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
    return status


def cmd_gradcheck(args):
    primitives = ((name, err, gradcheck.TOL)
                  for name, err in gradcheck.primitive_sweep().items())
    composites = ((f"composite[{seed}]", gradcheck.composite_check(seed),
                   gradcheck.COMPOSITE_TOL)
                  for seed in range(gradcheck.COMPOSITE_SEEDS))
    passed = True
    for name, err, tol in chain(primitives, composites):
        passed &= err < tol
        print(f"{name}: max_rel_err={err:.3g} "
              f"{'ok' if err < tol else f'FAIL (tol {tol:g})'}")
    print(f"gradcheck {'passed' if passed else 'FAILED'}")
    return 0 if passed else 1


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
    p.add_argument("--profile", choices=sorted(PROFILES), default="mini")
    p.add_argument("--units", type=int, default=2)
    p.add_argument("--classes", type=int,
                   help="overrides the manifest's num_classes")
    p.add_argument("--supervision", default="16,8,4",
                   help="comma-separated score ratios")
    p.add_argument("--iters", type=int, default=TrainConfig.max_iter)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--crop", type=int, default=TrainConfig.crop)
    p.add_argument("--lr", type=float, default=TrainConfig.base_lr)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", default="", help="write log rows to this file")
    p.add_argument("--log-every", type=int, default=TrainConfig.log_every)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="write prediction maps for a manifest")
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ms-flip", nargs="?", metavar="SCALES",
                   const=",".join(map(str, MS_SCALES)),
                   help="average over mirrors and these comma-separated "
                        "scales (default %(const)s)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against labels")
    p.add_argument("--data", required=True, help="manifest with labels")
    p.add_argument("--pred", required=True, help="directory of *_pred.pgm")
    p.add_argument("--classes", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="closed-form architecture accounting")
    p.add_argument("--profile", choices=sorted(PROFILES), default="full")
    p.add_argument("--units", type=int, default=1)
    p.add_argument("--classes", type=int, default=21)
    p.add_argument("--sweep", type=int, default=0,
                   help="also report totals for 1..N units and their deltas")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient sweeps")
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
