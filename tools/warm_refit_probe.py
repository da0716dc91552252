"""How often a leave-one-out refit from the full fit ends in another minimum.

    PYTHONPATH=src python tools/warm_refit_probe.py

For each size n (100 and 400), contamination (C0 and C1) and model
(``exp_linear`` and ``linear``, no covariate weights), it draws
``generate_sample(n, seed, contamination)`` for seeds 1 to ``SEEDS[n]``
and fits every leave-one-out set that leaves out a complete row twice: by the
search (``fit_mm_stack`` at seed 0, as a full-data fit) and by the refit
from the full data's fit (``refit_mm_stack``, as the CLI's jackknife).  A
set ends in another minimum when its two S-scales differ by more than 1e-9
relative (the same minimum agrees to about 1e-15); such sets are split by
whether the refit's S-scale is lower or higher.  It prints one line per
cell, with the total wall time of each kind of fit.

This is a measuring tool, not a test: it is kept out of the test suite.
"""

from __future__ import annotations

import time

import numpy as np

from robmarg import inference
from robmarg.regression import MODELS, fit_mm, fit_mm_stack, refit_mm_stack
from robmarg.simulation import generate_sample

SCALE_RTOL = 1e-9
SEEDS = {100: 8, 400: 3}


def probe(n: int, contamination: str, model_id: str, seeds: int) -> dict:
    model = MODELS[model_id]
    counts = {"sets": 0, "lower": 0, "higher": 0, "failed": 0}
    times = {"search_s": 0.0, "refit_s": 0.0}
    for seed in range(1, seeds + 1):
        data, _ = generate_sample(n, seed, contamination)
        full = fit_mm(model, data)
        sets = [inference._drop_row(data, i)
                for i in np.flatnonzero(data.delta == 1)]
        start = time.perf_counter()
        searched = fit_mm_stack(model, sets, [0] * len(sets))
        times["search_s"] += time.perf_counter() - start
        start = time.perf_counter()
        warm = refit_mm_stack(full, sets)
        times["refit_s"] += time.perf_counter() - start
        for a, b in zip(warm, searched):
            counts["sets"] += 1
            if isinstance(a, ValueError) or isinstance(b, ValueError):
                counts["failed"] += 1
                continue
            gap = (a.residual_scale - b.residual_scale) / b.residual_scale
            if gap < -SCALE_RTOL:
                counts["lower"] += 1
            elif gap > SCALE_RTOL:
                counts["higher"] += 1
    return {"n": n, "contamination": contamination, "model": model_id,
            "seeds": seeds, **counts,
            **{k: round(v, 3) for k, v in times.items()}}


if __name__ == "__main__":
    for n, seeds in SEEDS.items():
        for contamination in ("C0", "C1"):
            for model_id in ("exp_linear", "linear"):
                print(probe(n, contamination, model_id, seeds), flush=True)
