"""Golden digest of the lane files over a fixed synthetic corpus.

Refactors of the frame path promise byte-identical lane files; this pins
that promise. The digest covers the `format_lanes` text of 40 seeded
scenes spanning lane count, pixel noise and dash occlusion, with a refused
frame recorded by its exception class. A change that moves any printed
digit of any lane changes the digest. Update it only for a change that is
meant to alter lane output, and say so where the change is described.
"""

import hashlib

import lanepost as lp

GOLDEN_SHA256 = "5f36ffc908749b0166a1ee72ed3cfbb0dcc12d057b47158e93234ea2b00cb446"

_NOISE = (0.0, 0.0005, 0.002, 0.01)
_OCCLUSION = (0.0, 0.2, 0.5)


def corpus_text() -> str:
    cfg = lp.default_config()
    chunks = []
    for i in range(40):
        params = lp.SceneParams(
            num_lanes=1 + i % 5,
            noise_rate=_NOISE[i % len(_NOISE)],
            occlusion_rate=_OCCLUSION[i % len(_OCCLUSION)],
        )
        scene = lp.generate_scene(params, 500 + i, cfg)
        try:
            text = lp.format_lanes(lp.run_frame(scene.mask, cfg).lanes)
        except lp.ProcessingError as exc:
            text = f"refused {type(exc).__name__}\n"
        chunks.append(f"# scene {i}\n{text}")
    return "".join(chunks)


def test_lane_files_match_golden_digest():
    digest = hashlib.sha256(corpus_text().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256
