"""Residual ratchet: no check of the suite may get worse than its recorded residual.

residual_ratchet.json holds the residual of every check of run_suite for
seeds 0-2 at samples=256, ode_steps=256 and for seed 0 at default scale,
with the numpy version that computed them.  A residual above its recorded
value fails; an equal or lower one passes.  Rounding may differ under
another numpy, so there the test fails and names both versions rather than
compare.  To regenerate the file (after a numpy change, or to ratchet a
lowered residual down), run from the repository root:

    PYTHONPATH=src python tests/test_residual_ratchet.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from spinbundles.experiments import SuiteConfig, run_suite

RATCHET = Path(__file__).with_name("residual_ratchet.json")
CONFIGS = [dict(seed=seed, samples=256, ode_steps=256) for seed in (0, 1, 2)] + [
    dict(seed=0, samples=SuiteConfig.samples, ode_steps=SuiteConfig.ode_steps)
]


def _residuals(report) -> dict:
    return {c.check_id: c.residual for c in report.checks}


@pytest.mark.parametrize(
    "config", CONFIGS, ids=[f"seed{c['seed']}-{c['samples']}-{c['ode_steps']}" for c in CONFIGS]
)
def test_no_residual_rises_above_its_record(cached_suite, config):
    recorded = json.loads(RATCHET.read_text())
    assert recorded["numpy"] == np.__version__, (
        f"residuals recorded under numpy {recorded['numpy']}, running {np.__version__}: "
        "regenerate with `PYTHONPATH=src python tests/test_residual_ratchet.py`"
    )
    (bounds,) = [run["residuals"] for run in recorded["runs"] if run["config"] == config]
    residuals = _residuals(cached_suite(**config))
    assert residuals.keys() == bounds.keys()
    risen = {k: (r, bounds[k]) for k, r in residuals.items() if not r <= bounds[k]}
    assert not risen, f"residual (now, recorded) above its record: {risen}"


if __name__ == "__main__":
    runs = [
        {"config": config, "residuals": _residuals(run_suite(SuiteConfig(**config)))}
        for config in CONFIGS
    ]
    payload = {"numpy": np.__version__, "runs": runs}
    RATCHET.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {sum(len(r['residuals']) for r in runs)} residuals to {RATCHET}")
