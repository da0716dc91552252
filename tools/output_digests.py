"""SHA-256 digests of the CLI's outputs, to show that a change keeps them.

    PYTHONPATH=src python tools/output_digests.py

In a temporary directory it runs, through ``robmarg.cli.main``:

* ``robmarg estimate`` on the packaged ozone data and config (jackknife
  on), and the same run with ``"scale_method": "s"``;
* ``robmarg estimate`` in the form of the ``synth_large`` benchmark, at
  n = 400: ``generate_sample(400, 1)`` written as CSV, with ipw, conv
  (``exp_linear``) and aipw (default a_n) under the kernel and the
  logistic propensity, no jackknife;
* ``robmarg simulate`` of two 40-replication n = 100 scenarios: the
  kernel propensity under C0 at seed 7 (``mc_n100``'s scenario), and the
  logistic propensity under C1 with the misspecified linear regression at
  seed 11;
* ``robmarg targets --reps 3 --n 100000``;

then prints one ``name sha256`` line per file written, in name order.
Run it with ``PYTHONPATH`` at one commit's ``src``, again at another's, and
diff the two outputs: equal lines are byte-identical files.

This is a checking tool, not a test: it is kept out of the test suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

from robmarg import cli
from robmarg.simulation import generate_sample

PACKAGE_DATA = os.path.join(os.path.dirname(cli.__file__), "data")
SCENARIOS = [
    {"id": "kernel_c0", "n": 100, "reps": 40, "seed": 7,
     "contamination": "C0", "missing": "MH", "propensity_method": "kernel",
     "regression_spec": "true_nonlinear"},
    {"id": "logistic_c1", "n": 100, "reps": 40, "seed": 11,
     "contamination": "C1", "missing": "MH", "propensity_method": "logistic",
     "regression_spec": "misspecified_linear"},
]
SYNTH_N = 400
SYNTH_SEED = 1
SYNTH_CONFIG = {
    "response": "y",
    "z": ["x1"],
    "covariates": ["x1", "x2"],
    "estimators": ["ipw", "conv", "aipw"],
    "propensities": ["kernel", "logistic"],
    "models": [{"id": "exp_linear", "label": "exp_linear"}],
    "jackknife": False,
    "scale_method": "mad",
    "seed": SYNTH_SEED,
}


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"robmarg {' '.join(argv)} exited with {code}")


def _write_synth_csv(path: str) -> str:
    data, _ = generate_sample(SYNTH_N, SYNTH_SEED)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("y,x1,x2\n")
        for row in zip(data.y, data.x[:, 0], data.x[:, 1]):
            handle.write(",".join(repr(float(v)) if math.isfinite(v) else "NA"
                                  for v in row) + "\n")
    return path


def write_outputs(root: str) -> None:
    with open(os.path.join(PACKAGE_DATA, "ozone_config.json"),
              encoding="utf-8") as handle:
        ozone = json.load(handle)
    data = os.path.join(PACKAGE_DATA, "airquality.csv")
    for name, config in (("ozone", ozone),
                         ("ozone_s", dict(ozone, scale_method="s"))):
        path = _write_json(os.path.join(root, f"{name}.json"), config)
        _run(["estimate", "--data", data, "--config", path,
              "--out", os.path.join(root, name)])
    _run(["estimate", "--data", _write_synth_csv(os.path.join(root, "synth.csv")),
          "--config", _write_json(os.path.join(root, "synth.json"),
                                  SYNTH_CONFIG),
          "--out", os.path.join(root, "synth")])
    path = _write_json(os.path.join(root, "simulate.json"),
                       {"scenarios": SCENARIOS})
    _run(["simulate", "--config", path,
          "--out", os.path.join(root, "simulate")])
    os.mkdir(os.path.join(root, "targets"))
    _run(["targets", "--reps", "3", "--n", "100000",
          "--out", os.path.join(root, "targets", "targets.json")])


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        write_outputs(root)
        for sub in ("ozone", "ozone_s", "synth", "simulate", "targets"):
            for name in sorted(os.listdir(os.path.join(root, sub))):
                with open(os.path.join(root, sub, name), "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
                print(f"{sub}/{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
