"""Record the ``scan-cold`` reference digests into ``spec.json``.

Usage: ``python3 perfbench/record_refs.py``

For every campaign offset the benchmark can draw, each experiment of
the scan family runs cold with the artifact cache disabled, and the
digest of its rows, series and summary is stored under
``scan_references``.  The benchmark compares every cold and warm
result against these.  Re-record only when a change is meant to alter
experiment output, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, require_program, result_digest  # noqa: E402
from scan_child import OFFSETS, SCAN_FAMILY, scan_config  # noqa: E402


def main() -> int:
    require_program()
    from repro.runtime import run_experiment

    references = {}
    for offset in range(OFFSETS):
        config = scan_config(offset)
        references[str(offset)] = {
            experiment_id: result_digest(run_experiment(
                experiment_id, config=config, workers=1, cache=False))
            for experiment_id in SCAN_FAMILY}
        print(f"offset {offset}: fig3 {references[str(offset)]['fig3']}",
              flush=True)
    path = BENCH_DIR / "spec.json"
    spec = json.loads(path.read_text(encoding="utf-8"))
    spec["scan_references"] = references
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
