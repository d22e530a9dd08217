"""Figure 8 bench: delay distributions with and without jitter control.

Paper's numbers at 10 minutes: jitter 59.7 ms (bound 66.25) without
control vs 12.4 ms (bound 13.25) with control, and a higher mean delay
for the controlled session.
"""

from conftest import bench_duration

from repro.experiments import figure08
from repro.experiments.common import read_target


def test_fig08_jitter_control(run_once):
    result = run_once(lambda: figure08.run(
        duration=bench_duration(30.0)))
    print()
    print(result.table())
    control = read_target(result.network, figure08.SESSION_CONTROL)
    no_control = read_target(result.network, figure08.SESSION_NO_CONTROL)
    controlled, uncontrolled = control.jitter_ms, no_control.jitter_ms
    # Bounds.
    assert controlled <= 13.25
    assert uncontrolled <= 66.25
    # The headline reduction (paper: ~4.8x).
    assert controlled < uncontrolled / 3
    # Control trades mean delay for jitter.
    assert control.mean_ms > no_control.mean_ms
