"""Build times per rung of the 2-bridge ladders and the theta (R, W) grid.

    python3 perfbench/rungs.py

Prints Markdown tables that set each measured rung next to the program's
size caps, so that a cap can be sized against what finishes.  A row climbs
until a rung takes longer than ``STOP_AFTER_S``; the next rung would be
several times slower.  One build per rung, on the untouched program.
"""

import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from kakimizu import thetagraph, twobridge  # noqa: E402

from calibrate import ScaledTimes  # noqa: E402
from workloads import route_graph_text  # noqa: E402

STOP_AFTER_S = 2.0
LADDERS = {
    "(-2)^n": lambda n: (-2,) * n,
    "(-4)^n": lambda n: (-4,) * n,
    "(-2,-4,...) of length n": lambda n: tuple(-2 if i % 2 == 0 else -4 for i in range(n)),
}


def timed(build):
    """Raw and scaled build seconds (see ``calibrate.py``) and the complex size."""
    times = ScaledTimes()
    began = time.perf_counter()
    c = build()
    took = time.perf_counter() - began
    times.add(took)
    return took, times.flush()[0], len(c.vertices), len(c.simplices)


def chain_rungs() -> None:
    print(f"2-bridge ladders (cap: DEFAULT_MAX_BANDS = {twobridge.DEFAULT_MAX_BANDS})\n")
    print("| ladder | n | build s (raw) | build s (scaled) | vertices | maximal simplices |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name, bands in LADDERS.items():
        for n in range(3, twobridge.DEFAULT_MAX_BANDS + 1):
            chain = twobridge.BandChain(bands(n))
            took, scaled, nv, ns = timed(lambda: twobridge.build_complex(chain))
            print(f"| {name} | {n} | {took:.3f} | {scaled:.3f} | {nv} | {ns} |", flush=True)
            if took > STOP_AFTER_S:
                break


def theta_rungs() -> None:
    import random
    print(f"\nTheta route graphs (caps: MAX_REGIONS = {thetagraph.MAX_REGIONS}, "
          f"DEFAULT_MAX_VERTICES = {thetagraph.DEFAULT_MAX_VERTICES})\n")
    print("| R | W | build s (raw) | build s (scaled) | vertices C(W+R-1,R-1) "
          "| maximal simplices W^(R-1) |")
    print("| --- | --- | --- | --- | --- | --- |")
    rng = random.Random(0)
    for r in range(2, thetagraph.MAX_REGIONS + 1):
        for w in range(1, 9):
            text = route_graph_text(rng, w, [3] * r, [1] * (3 * r))

            def build():
                g = thetagraph.PlanarMultigraph.from_text(text)
                tg = thetagraph.build_theta(g)
                return thetagraph.build_complex(tg, tg.weights())

            took, scaled, nv, ns = timed(build)
            if (nv, ns) != (comb(w + r - 1, r - 1), w ** (r - 1)):
                raise SystemExit(f"R={r} W={w}: wrong complex, {nv} vertices, {ns} simplices")
            print(f"| {r} | {w} | {took:.3f} | {scaled:.3f} | {nv} | {ns} |", flush=True)
            if took > STOP_AFTER_S:
                break


if __name__ == "__main__":
    chain_rungs()
    theta_rungs()
