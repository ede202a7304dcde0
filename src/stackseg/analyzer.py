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

from dataclasses import dataclass

from .network import DOWN_LAYERS, UP_LAYERS


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
        if bottleneck:
            total += _bn(c) + _conv(c, 4 * growth, 1)
            total += _bn(4 * growth) + _conv(4 * growth, growth, 3)
        else:
            total += _bn(c) + _conv(c, growth, 3)
        c += growth
    return total, c


def _up_stage(in_c, skip_c, layers, growth, out_c):
    """Deconv + dense block + optional 3x3 to out_c; returns (params, out)."""
    total = _bn(in_c) + in_c * in_c * 16  # width-preserving 4x4 deconv
    block, c = _dense_block(in_c + skip_c, layers, growth, bottleneck=False)
    total += block
    if out_c is not None:
        total += _bn(c) + _conv(c, out_c, 3, bias=True)
        c = out_c
    return total, c


def _down_stage(in_c, skip_c, layers, growth, out_c):
    block, c = _dense_block(in_c + skip_c, layers, growth, bottleneck=False)
    return block + _bn(c) + _conv(c, out_c, 3, bias=True), out_c


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
        if i == 0:
            skips[4] = c
        elif i == 1:
            skips[8] = c
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
    cfg.validate()
    prof = cfg.profile
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
        first, last = i == 0, i == cfg.num_units - 1
        unit = 0
        if not first:
            p, _ = _down_stage(uw[1], uw[0], DOWN_LAYERS[0], g, dw[0])
            unit += p
            p, _ = _down_stage(dw[0], ew, DOWN_LAYERS[1], g, dw[1])
            unit += p
            depth += DOWN_LAYERS[0] + 1 + DOWN_LAYERS[1] + 1
        p, _ = _up_stage(ew, sw, UP_LAYERS[0], g, uw[0])
        unit += p
        p, ratio4_width = _up_stage(uw[0], sw, UP_LAYERS[1], g,
                                    None if last else uw[1])
        unit += p
        depth += (1 + UP_LAYERS[0] + 1) + (1 + UP_LAYERS[1] +
                                           (0 if last else 1))
        sections[f"unit{i + 1}"] = unit
        widths = {16: ew, 8: uw[0], 4: ratio4_width}
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
    """The other route: count what was actually built, per section."""
    return {name: sum(p.value.size for p in group)
            for name, group in net.param_groups().items()}


def format_report(report):
    lines = [f"params_total={report.params_total}"]
    for name, value in report.params_by_section.items():
        lines.append(f"params.{name}={value}")
    lines.append(f"depth={report.depth}")
    lines.append(f"receptive_field={report.receptive_field}")
    lines.append(f"supervision_heads={len(report.heads)}")
    return "\n".join(lines)

