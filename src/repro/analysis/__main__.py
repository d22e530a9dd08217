"""``python -m repro.analysis`` is ``repro-analyze``."""

from repro.analysis.front import main

if __name__ == "__main__":
    raise SystemExit(main())
