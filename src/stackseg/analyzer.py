"""Closed-form architecture accounting.

Everything here recomputes parameter counts, conv depth, and receptive
fields from configuration arithmetic alone, never touching the layer
classes. Tests cross-check these numbers against the built network, so
the two routes keep each other honest.

Conventions: BN affine pairs count as parameters, running statistics do
not; depth counts convs and deconvs on the input-to-prediction path (the
entry conv and the final score head included, lateral skip
projections and auxiliary heads not); the receptive field is reported
for one decoder-entry pixel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .network import DOWN_LAYERS, PROFILES, SKIP_BLOCKS, UP_LAYERS


@dataclass(frozen=True)
class ArchReport:
    params_total: int
    params_by_section: dict
    depth: int
    receptive_field: int
    heads: tuple


def _conv(in_c, out_c, k, bias=False):
    return in_c * out_c * k * k + (out_c if bias else 0)


def _bn(c):
    return 2 * c


def _dense_block(in_c, layers, growth, bottleneck):
    total, c = 0, in_c
    for _ in range(layers):
        width = c
        if bottleneck:
            width = 4 * growth
            total += _bn(c) + _conv(c, width, 1)
        total += _bn(width) + _conv(width, growth, 3)
        c += growth
    return total, c


def _stage(in_c, skip_c, layers, growth, out_c, up):
    """(params, out width, depth) of one stacked-unit stage: a
    width-preserving 4x4 deconv when ``up`` (a max pool otherwise), a
    dense block, and an optional 3x3 to out_c."""
    total, c = _dense_block(in_c + skip_c, layers, growth, bottleneck=False)
    depth = layers
    if up:
        total += _bn(in_c) + in_c * in_c * 16
        depth += 1
    if out_c is not None:
        total += _bn(c) + _conv(c, out_c, 3, bias=True)
        c, depth = out_c, depth + 1
    return total, c, depth


def encoder_accounting(p):
    """(params, out_channels, skip_channels, depth, rf_chain) of a
    Profile's encoder; rf_chain is (kernel, stride, dilation) per spatial
    op."""
    c = p.stem_channels
    params = _conv(3, c, p.stem_kernel) + _bn(c)
    depth = 1
    chain = [(p.stem_kernel, 2, 1), (p.stem_pool, 2, 1)]
    skips = {}
    n_stages = len(p.block_layers)
    for i, layers in enumerate(p.block_layers):
        last = i == n_stages - 1
        dilation = 2 if last else 1
        block, c = _dense_block(c, layers, p.growth, p.bottleneck)
        params += block
        depth += layers * (2 if p.bottleneck else 1)
        chain += [(3, 1, dilation)] * layers
        if i in SKIP_BLOCKS:
            skips[SKIP_BLOCKS[i]] = c
        if not last:
            out = c // 2
            params += _bn(c) + _conv(c, out, 1)
            depth += 1
            if i < 2:
                chain.append((2, 2, 1))
            c = out
    params += _bn(c)
    return params, c, skips, depth, chain


def receptive_field(chain):
    """Grow rf through (kernel, stride, dilation) ops applied in order."""
    rf, jump = 1, 1
    for k, stride, dilation in chain:
        rf += (k - 1) * dilation * jump
        jump *= stride
    return rf


def architecture_report(cfg):
    prof = PROFILES[cfg.profile]
    enc_params, enc_out, enc_skips, enc_depth, chain = \
        encoder_accounting(prof)
    sw, ew, g = prof.skip_width, prof.entry_width, prof.growth
    uw, dw = prof.up_widths, prof.down_widths
    sections = {"encoder": enc_params}
    sections["skips"] = sum(_bn(enc_skips[r]) + _conv(enc_skips[r], sw, 3)
                            for r in (4, 8))
    sections["entry"] = _conv(enc_out, ew, 3, bias=True)
    depth = enc_depth + 1
    chain = chain + [(3, 1, 1)]  # the entry conv sees the 1/16 feature

    heads = []
    head_params = 0
    for i in range(cfg.num_units):
        last = i == cfg.num_units - 1
        stages = [(ew, sw, UP_LAYERS[0], uw[0], True),
                  (uw[0], sw, UP_LAYERS[1], None if last else uw[1], True)]
        if i > 0:
            stages[:0] = [(uw[1], uw[0], DOWN_LAYERS[0], dw[0], False),
                          (dw[0], ew, DOWN_LAYERS[1], dw[1], False)]
        unit = 0
        for in_c, skip_c, layers, out_c, up in stages:
            p, width, d = _stage(in_c, skip_c, layers, g, out_c, up)
            unit += p
            depth += d
        sections[f"unit{i + 1}"] = unit
        widths = {16: ew, 8: uw[0], 4: width}
        for r in cfg.supervision_ratios:
            heads.append((i, r))
            head_params += _conv(widths[r], cfg.num_classes, 3, bias=True)
    sections["heads"] = head_params
    depth += 1  # the final fused score map's head

    return ArchReport(params_total=sum(sections.values()),
                      params_by_section=sections,
                      depth=depth,
                      receptive_field=receptive_field(chain),
                      heads=tuple(heads))


def count_network_params(net):
    """The other route: count what was actually built, per section. Counts
    from shapes, so no weight is drawn."""
    return {name: sum(math.prod(p.shape) for p in group)
            for name, group in net.param_groups().items()}


def format_report(report):
    lines = [f"params_total={report.params_total}"]
    for name, value in report.params_by_section.items():
        lines.append(f"params.{name}={value}")
    lines.append(f"depth={report.depth}")
    lines.append(f"receptive_field={report.receptive_field}")
    lines.append(f"supervision_heads={len(report.heads)}")
    return "\n".join(lines)

