"""Golden outputs: label, decoder and sketch files are pinned byte for byte.

The digests were recorded before the shape codec and the bulk decoder were
introduced; they hold as long as encoding, randomness streams and file
formats stay the same.  Regenerate a digest only for an intended format
change, and say so in the change log.  The sampled-sketch digests and the
retry case's derandomization seed were re-recorded when the sketch encoders
moved to `counter_hash` streams; the other digests did not change.  The
`decoder.table` digest was re-recorded when decoder tables went from one row
per full Q mask to one row per leaf of the walker's equality decision tree.
The `decoder.tree` digest was re-recorded when tree decoder files stopped
listing shapes, which their walker never reads: a tree file is now its
header line alone.  The `labels.interval` digest (an interval graph whose
twin quotient has degeneracy 29) and the `labels.arboricity-forest700`
digest (a 700-vertex forest) were recorded with the heap peel, before
`peel_order` became a bucket queue, and pin that the two peels give the
same forests.

`python -m tests.test_golden` prints the current outputs as JSON, then the
names of the digests that differ from `GOLDEN`, so that a re-record can be
reviewed by name.
"""

import hashlib
import json

from pugkit import bipartite
from pugkit.generators import random_forest, random_kdegenerate, random_tp_free
from pugkit.geometric import interval_graph_from, interval_scheme, random_intervals
from pugkit.labels import write_decoder_file, write_label_file
from pugkit.sketch import (
    arboricity_scheme,
    arboricity_sketch,
    compress_equality_scheme,
    derandomize,
    naive_derandomize,
    write_sketch_file,
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
    out["decoder.table"] = _digest(write_decoder_file(arb))
    out["decoder.tree"] = _digest(write_decoder_file(tp))
    iv = random_intervals(150, seed=1)
    out["labels.interval"] = _digest(
        write_label_file(interval_scheme(interval_graph_from(iv), iv, k=2), "interval"))
    out["labels.arboricity-forest700"] = _digest(
        write_label_file(arboricity_scheme(random_forest(700, seed=6)), "forest700"))

    def sampled(name, sk, g, seed):
        det = derandomize(sk, g, seed=seed)
        out[f"sketch.{name}"] = _digest(write_sketch_file(list(det.labels), det.width, name))
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
            write_sketch_file(list(det.labels), det.width, name))
    return out


GOLDEN = {
    "labels.arboricity":
        "1d13707ff50aa101275a3b1142dad03a870b816b66ccecefcd4d791c18f5c91f",
    "labels.tp-free":
        "11e4f6fd5e33f7d9a5452b69184306e96283070bb9efa58beb426d3e3b120f71",
    "decoder.table":
        "c9d3a6ffc97c6d660216304e8bc70a401e47cf8f4ef0503b9e53e7780c63e97c",
    "decoder.tree":
        "481880eb9623b11e8e64573505b71b15d0d5b8ca7256f508ab787468b6b69ba0",
    "labels.interval":
        "9aab023ea0a4b50c746d0178d4e53782ed92d40d3fa5e125a09e48d248a1d9e5",
    "labels.arboricity-forest700":
        "ef4dff5ca2458377bb996e873c13e32ae99bb5c892fc12846197621ce9178d3d",
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


def differing(outputs: dict[str, str]) -> list[str]:
    """The names whose output is not the pinned one, or that only one side has."""
    return sorted(name for name in outputs.keys() | GOLDEN.keys()
                  if outputs.get(name) != GOLDEN.get(name))


if __name__ == "__main__":
    outputs = golden_outputs()
    print(json.dumps(outputs, indent=2))
    print("differ from GOLDEN:", ", ".join(differing(outputs)) or "none")
