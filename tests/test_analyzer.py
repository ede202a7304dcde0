"""Architecture accounting is checked two ways: closed-form arithmetic
against the actually-built parameter store, plus frozen anchors that were
hand-derived from the layer inventory."""
import math

import numpy as np
import pytest

from stackseg.analyzer import (
    architecture_report,
    count_network_params,
    encoder_accounting,
    format_report,
    receptive_field,
)
from stackseg.layers import ConvLayer, WeightStream
from stackseg.network import (
    PROFILES,
    DenseEncoder,
    StackedNet,
    full_config,
    mini_config,
)
from stackseg.ops import conv2d, deconv2d, maxpool2d
from stackseg.tensor import Param, Tensor

MINI_TOTALS = {1: 86_081, 2: 214_546, 3: 343_011}


@pytest.mark.parametrize("units", [1, 2, 3])
def test_mini_closed_form_matches_built_network(units):
    cfg = mini_config(3, num_units=units)
    report = architecture_report(cfg)
    built = count_network_params(StackedNet(cfg, seed=0))
    assert report.params_by_section == built
    assert report.params_total == sum(built.values()) == MINI_TOTALS[units]


def test_mini_depth_and_receptive_field():
    # depth: 9 encoder convs + entry + (1+2+1) up1 + (1+2) up2 + head = 18,
    # and each extra unit adds 2+1 + 4+1 + 4 + 4 = 16
    for units, depth in [(1, 18), (2, 34), (3, 50)]:
        assert architecture_report(mini_config(3, units)).depth == depth
    # rf at the decoder entry: stem 3/s2, pool 2/s2, stages of 3x3s
    # (dilation 2 in the last), two 2x2 pools, entry 3x3 at 1/16
    assert architecture_report(mini_config(3)).receptive_field == 225


def test_mini_head_inventory():
    report = architecture_report(mini_config(3, num_units=2))
    assert report.heads == ((0, 16), (0, 8), (0, 4), (1, 16), (1, 8), (1, 4))
    text = format_report(report)
    assert f"params_total={report.params_total}" in text
    assert "supervision_heads=6" in text


def test_full_encoder_accounting():
    params, out_c, skips, depth, chain = encoder_accounting(PROFILES["full"])
    assert params == 26_472_000
    assert out_c == 2208
    assert skips == {4: 384, 8: 768}
    assert depth == 160
    # chain: stem conv + stem pool + 78 block convs + 2 transition pools
    assert len(chain) == 82


def test_full_encoder_built_matches_closed_form():
    params, out_c, _, _, _ = encoder_accounting(PROFILES["full"])
    enc = DenseEncoder("enc", PROFILES["full"],
                       WeightStream(np.random.default_rng(0)))
    assert sum(p.value.size for p in enc.params()) == params
    assert enc.out_channels == out_c


def test_full_stack_depth_and_params():
    totals = {}
    for units, depth in [(1, 169), (2, 185), (3, 201)]:
        report = architecture_report(full_config(21, units))
        assert report.depth == depth
        totals[units] = report.params_total
    assert totals == {1: 86_573_599, 2: 162_388_350, 3: 238_203_101}
    assert totals[2] - totals[1] == totals[3] - totals[2]  # units are clones
    assert architecture_report(full_config(21)).receptive_field == 2983


def test_receptive_field_alone():
    assert receptive_field([(3, 1, 1)]) == 3
    assert receptive_field([(3, 2, 1), (3, 1, 1)]) == 7
    assert receptive_field([(3, 1, 2)]) == 5  # dilation widens the taps
    # 1 + 6*1 + 2*2 + 2*4, jumps doubling after each stride-2 op
    assert receptive_field([(7, 2, 1), (3, 2, 1), (3, 1, 1)]) == 19


# ---------------------------------------------------------------------------
# influence footprints (which outputs can one input pixel touch)


def influence_interval(lo, hi, kernel, stride, pad, dilation, out_size):
    """Map an input index interval through a conv/pool to the output
    indices whose windows overlap it. Returns (lo, hi); empty if lo > hi."""
    span = (kernel - 1) * dilation
    new_lo = max(0, math.ceil((lo + pad - span) / stride))
    new_hi = min(out_size - 1, math.floor((hi + pad) / stride))
    return new_lo, new_hi


def spread_interval(lo, hi, kernel, stride, pad, out_size):
    """Same, for a transposed conv: each input pixel writes a k-wide patch."""
    new_lo = max(0, lo * stride - pad)
    new_hi = min(out_size - 1, hi * stride - pad + kernel - 1)
    return new_lo, new_hi


def test_influence_interval_hand_cases():
    # same-size 3x3: one pixel reaches its 3-neighborhood
    assert influence_interval(5, 5, 3, 1, 1, 1, 100) == (4, 6)
    # non-overlapping 2x2 windows: exactly one output
    assert influence_interval(5, 5, 2, 2, 0, 1, 4) == (2, 2)
    # dilation 2 spreads the window
    assert influence_interval(10, 10, 3, 1, 2, 2, 100) == (8, 12)
    # clamped at the borders
    assert influence_interval(0, 0, 3, 1, 0, 1, 50) == (0, 0)
    # 1x1 stride-2 conv never sees odd pixels: empty interval
    lo, hi = influence_interval(1, 1, 1, 2, 0, 1, 10)
    assert lo > hi


def test_spread_interval_hand_case():
    # 4x4 stride-2 pad-1 deconv: pixel i writes rows 2i-1 .. 2i+2
    assert spread_interval(3, 4, 4, 2, 1, 16) == (5, 10)
    assert spread_interval(0, 0, 4, 2, 1, 16) == (0, 2)


def test_footprint_matches_live_network_probe():
    """Push a bump through conv -> maxpool -> deconv with positive weights
    and check the changed region is exactly the predicted interval."""
    w_down = Param(np.ones((1, 1, 3, 3), dtype=np.float32), name="wd")
    w_up = Param(np.ones((1, 1, 4, 4), dtype=np.float32), name="wu")

    def run(x):
        t = conv2d(Tensor(x), w_down.as_tensor(), stride=2, pad=1)
        t = maxpool2d(t, kernel=2)
        return deconv2d(t, w_up.as_tensor(), stride=2, pad=1).data[0, 0]

    base = np.ones((1, 1, 16, 16), dtype=np.float32)
    bumped = base.copy()
    bumped[0, 0, 7, 9] += 1.0
    diff = run(bumped) - run(base)

    rows = influence_interval(7, 7, 3, 2, 1, 1, 8)
    rows = influence_interval(*rows, 2, 2, 0, 1, 4)
    rows = spread_interval(*rows, 4, 2, 1, 8)
    cols = influence_interval(9, 9, 3, 2, 1, 1, 8)
    cols = influence_interval(*cols, 2, 2, 0, 1, 4)
    cols = spread_interval(*cols, 4, 2, 1, 8)
    assert rows == (1, 6) and cols == (3, 6)

    nz_rows = np.flatnonzero(np.abs(diff).sum(axis=1))
    nz_cols = np.flatnonzero(np.abs(diff).sum(axis=0))
    assert (nz_rows.min(), nz_rows.max()) == rows
    assert (nz_cols.min(), nz_cols.max()) == cols
    assert (diff[rows[0]:rows[1] + 1, cols[0]:cols[1] + 1] > 0).all()


def test_sections_are_disjoint_and_cover_everything():
    net = StackedNet(mini_config(3, num_units=2), seed=0)
    grouped = [p.name for group in net.param_groups().values() for p in group]
    assert sorted(grouped) == sorted(p.name for p in net.params())
    assert len(set(grouped)) == len(grouped)


def test_conv_param_count_primitive():
    layer = ConvLayer("c", 4, 6, 3, WeightStream(np.random.default_rng(0)),
                      bias=True)
    assert sum(p.value.size for p in layer.params()) == 4 * 6 * 9 + 6
