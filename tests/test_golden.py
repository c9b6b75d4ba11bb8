"""Golden outputs: label, decoder and sketch files are pinned byte for byte.

The digests were recorded before the shape codec and the bulk decoder were
introduced; they hold as long as encoding, randomness streams and file
formats stay the same.  Regenerate a digest only for an intended format
change, and say so in the change log.  The sampled-sketch digests and the
retry case's derandomization seed were re-recorded when the sketch encoders
moved to `counter_hash` streams; the other digests did not change.
"""

import hashlib

from pugkit import bipartite, cli
from pugkit.generators import random_forest, random_kdegenerate, random_tp_free
from pugkit.labels import write_label_file
from pugkit.sketch import (
    arboricity_scheme,
    arboricity_sketch,
    compress_equality_scheme,
    derandomize,
    naive_derandomize,
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_outputs() -> dict[str, str]:
    """Every pinned output, as name -> sha256 of the file text (or a count)."""
    out = {}
    arb_g = random_kdegenerate(40, 2, seed=5)
    arb = arboricity_scheme(arb_g)
    tp_g = random_tp_free(9, 12, 2, seed=1)
    tp = bipartite.tp_free_labels(tp_g, p=2, q=4)
    out["labels.arboricity"] = _digest(write_label_file(arb, "kdeg2"))
    out["labels.tp-free"] = _digest(write_label_file(tp, "tp"))
    out["decoder.table"] = _digest(cli.write_decoder_file(arb))
    out["decoder.tree"] = _digest(cli.write_decoder_file(tp))

    def sampled(name, sk, g, seed):
        det = derandomize(sk, g, seed=seed)
        out[f"sketch.{name}"] = _digest(cli.write_sketch_file(list(det.labels), det.width, name))
        out[f"attempts.{name}"] = str(det.attempts)

    g = random_kdegenerate(30, 2, seed=7)
    sampled("bloom", arboricity_sketch(g), g, 11)
    g = random_forest(5, seed=15)  # the first sample fails: two attempts
    sampled("bloom-retry", arboricity_sketch(g), g, 234)
    g = random_forest(14, seed=3)
    sampled("compress-arboricity", compress_equality_scheme(arboricity_scheme(g)), g, 5)
    for name, g in (("forest", random_forest(60, seed=4)),
                    ("kdeg3", random_kdegenerate(50, 3, seed=2))):
        det = naive_derandomize(arboricity_scheme(g))
        out[f"sketch.naive-{name}"] = _digest(
            cli.write_sketch_file(list(det.labels), det.width, name))
    return out


GOLDEN = {
    "labels.arboricity":
        "1d13707ff50aa101275a3b1142dad03a870b816b66ccecefcd4d791c18f5c91f",
    "labels.tp-free":
        "11e4f6fd5e33f7d9a5452b69184306e96283070bb9efa58beb426d3e3b120f71",
    "decoder.table":
        "06b01edbca26c64e440995f6bdf5e10954691efed9ea0c4d9224af2ab3c11871",
    "decoder.tree":
        "3ef82d30de23ca2256cceb52bd6afc7194a7c161fbbf0b2f381ee8bd4d244130",
    "sketch.bloom":
        "b28d7403d43f17895bbcd3b3351624d64bf7f283a309efab981c70263a8b0ff7",
    "attempts.bloom": "1",
    "sketch.bloom-retry":
        "c321399660e6cadf1c06296b40909042eb01e3db118909edad57605a16779746",
    "attempts.bloom-retry": "2",
    "sketch.compress-arboricity":
        "53b09977ed777deac75903bd3d96098b27c6b38560ff1e22f028768022947b7d",
    "attempts.compress-arboricity": "1",
    "sketch.naive-forest":
        "06266e1f79a1ee62c7e5cded3a4382f32fe21b844a7edc9e00a2dbf5c8c684a6",
    "sketch.naive-kdeg3":
        "0ef9162a46b25cf66a522f178f0ee06110f90a5e497b21d238dd9c5246286b4f",
}


def test_outputs_match_golden_digests():
    assert golden_outputs() == GOLDEN
