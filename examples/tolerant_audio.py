#!/usr/bin/env python3
"""Tolerant audio: pick a play-back delay from the distribution bound.

The paper's Section-1 motivation: *tolerant* applications accept a
small fraction of late packets in exchange for a much lower play-back
delay than the worst-case bound would dictate. That requires a bound on
the delay *distribution* (eq. 16), not just the maximum — and
Leave-in-Time provides one even for sessions with no worst-case bound
at all (here: a Poisson source).

This example:

1. runs a Poisson audio session across the loaded five-hop network,
2. builds the analytical distribution bound — the session's M/D/1
   reference-server delay CCDF shifted right by β + α,
3. reads the play-back delay off the bound for a 0.1 % loss target,
4. verifies the measured late-packet fraction at that play-back delay
   is below the target.

Run:  python examples/tolerant_audio.py
"""

import numpy as np

from repro import (
    LeaveInTime,
    PoissonSource,
    Session,
    build_paper_network,
    kbps,
    route_from_letters,
)
from repro.analysis.histogram import ccdf_at
from repro.bounds import compute_session_bounds, shifted_ccdf_function
from repro.bounds.md1 import md1_delay_ccdf_function

FIVE_HOP = ("n1", "n2", "n3", "n4", "n5")
LOSS_TARGET = 1e-3  # one late packet per thousand


def main() -> None:
    network = build_paper_network(LeaveInTime, seed=13)

    # The Figure-9 audio session: Poisson, 280 kbit/s offered on a
    # 400 kbit/s reservation (utilization 0.7).
    mean_interarrival = 1.5143e-3
    audio = Session("audio", rate=kbps(400), route=FIVE_HOP, l_max=424)
    network.add_session(audio)
    PoissonSource(network, audio, length=424, mean=mean_interarrival)

    # Poisson cross traffic filling each link to capacity.
    for entrance, exit_ in zip("abcde", "fghij"):
        cross = Session(f"cross-{entrance}", rate=kbps(1136),
                        route=route_from_letters(entrance, exit_),
                        l_max=424)
        network.add_session(cross, keep_samples=False)
        PoissonSource(network, cross, length=424, mean=0.3929e-3)

    network.run(120.0)

    # The eq.-16 bound: M/D/1 sojourn CCDF shifted by beta + alpha.
    bounds = compute_session_bounds(network, audio)
    reference_ccdf = md1_delay_ccdf_function(
        1.0 / mean_interarrival, 424 / kbps(400))
    bound = shifted_ccdf_function(reference_ccdf, bounds.shift)

    # Smallest play-back delay whose bounded late probability is below
    # the loss target.
    grid = np.linspace(bounds.shift, bounds.shift + 0.05, 2001)
    playback = next(d for d in grid if bound(d) <= LOSS_TARGET)

    sink = network.sink("audio")
    measured_late = float(ccdf_at(sink.samples, [playback])[0])

    print(f"packets observed        : {sink.received}")
    print(f"shift constant beta+alpha: {bounds.shift * 1e3:.2f} ms")
    print(f"loss target             : {LOSS_TARGET:.1%}")
    print(f"play-back delay (bound) : {playback * 1e3:.2f} ms")
    print(f"measured late fraction  : {measured_late:.5f}")
    print(f"measured max delay      : {sink.max_delay * 1e3:.2f} ms")
    assert measured_late <= LOSS_TARGET
    print("the distribution bound safely sized the play-back delay — "
          "with no worst-case delay bound anywhere in sight.")


if __name__ == "__main__":
    main()
