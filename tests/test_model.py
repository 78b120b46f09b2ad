"""The model's parameter census: names, shapes and order.

params() order is both the seeded draw order and the checkpoint payload
order, so a change to it breaks every saved checkpoint and every seeded
rerun. These lists pin it.
"""

import pytest

from hreb.config import RunConfig
from hreb.data import Vocab, synth_corpus
from hreb.model import HrebModel

# d_model 64 and h_lstm 32 (the defaults); synth_corpus(0, 8) gives 27
# tokens and 7 tags.
BLOCK = [("norm1_gain", (64,)), ("norm1_bias", (64,)), ("norm2_gain", (64,)),
         ("norm2_bias", (64,)), ("ffn_w1", (64, 128)), ("ffn_b1", (128,)),
         ("ffn_w2", (128, 64)), ("ffn_b2", (64,))]
GATES = [(f"{sub}.rb.{name}", shape) for sub in ("attn", "ffn")
         for name, shape in (("w_alpha", (64, 64)), ("b_alpha", (64,)),
                             ("w_beta", (64, 64)), ("b_beta", (64,)))]
STAGE = [("ema.alpha_raw", (64,)), ("ema.h0", (64,)), ("ema.w_down", (64, 64)),
         ("ema.w_up", (64, 64)), ("w_z", (64, 64)), ("b_z", (64,)),
         ("kappa_q", (64,)), ("mu_q", (64,)), ("kappa_k", (64,)), ("mu_k", (64,)),
         ("w_v", (64, 128)), ("b_v", (128,)), ("b_rel", (33,)), ("w_h", (64, 64)),
         ("u_h", (128, 64)), ("b_h", (64,)), ("w_gamma", (64, 128)),
         ("b_gamma", (128,)), ("w_phi", (64, 64)), ("b_phi", (64,)),
         ("lap_mu", ()), ("lap_sigma_raw", ())] + BLOCK + GATES
TAIL = [("lstm.fwd.w", (64, 128)), ("lstm.fwd.u", (32, 128)), ("lstm.fwd.b", (128,)),
        ("lstm.bwd.w", (64, 128)), ("lstm.bwd.u", (32, 128)), ("lstm.bwd.b", (128,)),
        ("proj.w", (64, 7)), ("proj.b", (7,))]

DEFAULT = ([("embed.table", (27, 64))]
           + [(f"enc.{stage}.{name}", shape) for stage in ("local", "global")
              for name, shape in STAGE]
           + TAIL + [("crf.trans", (9, 9))])
NAIVE_STATIC_TOKEN = ([("embed.table", (27, 64))]
                      + [(f"naive.{name}", shape) for name, shape in
                         [("w_q", (64, 64)), ("w_k", (64, 64)), ("w_v", (64, 64)),
                          ("w_o", (64, 64))] + BLOCK]
                      + TAIL)


@pytest.mark.parametrize("overrides, census", [
    ({}, DEFAULT),
    (dict(attention_mode="naive", reduced_bias="static", loss_head="token"),
     NAIVE_STATIC_TOKEN),
])
def test_parameter_census_is_pinned(overrides, census):
    vocab = Vocab.from_corpus(synth_corpus(0, n_sentences=8))
    model = HrebModel(RunConfig(**overrides), vocab)
    assert len(census) == (86 if not overrides else 21)
    assert [(p.name, p.data.shape) for p in model.params()] == census
    assert model.param_names() == [name for name, _ in census]
