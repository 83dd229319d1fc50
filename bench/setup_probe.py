"""Set-up of one run in a fresh interpreter, timed phase by phase.

Imports station_ems, loads the config, samples the fleet and builds the
scenario tree, then prints the phase times as one JSON object.

    python3 bench/setup_probe.py CONFIG
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(path: str) -> None:
    from station_ems import config, pipeline
    t_import = time.perf_counter()
    cfg = config.load_config(path)
    t_config = time.perf_counter()
    sessions = pipeline.build_fleet(cfg, cfg.fleet.seed)
    t_fleet = time.perf_counter()
    tree = pipeline.build_scenarios(cfg)
    t_tree = time.perf_counter()
    print(json.dumps({
        "setup_s": t_tree - T0,
        "import_s": t_import - T0,
        "config_s": t_config - t_import,
        "fleet_s": t_fleet - t_config,
        "scenarios_s": t_tree - t_fleet,
        "sessions": len(sessions),
        "scenarios": len(tree),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
