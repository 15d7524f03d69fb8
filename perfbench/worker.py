"""One kgcert job in a fresh interpreter.

Reads a JSON job from stdin and prints one JSON line.  Jobs:

* ``{"op": "import", "src": SRC}``: the CPU time of ``import kgcert``, all
  threads (the set-up every ``kgcert`` command pays);
* ``{"op": "certify", "src": SRC, "triple": [r, n, m], "half": h,
  "depth": d, "trace": bool}``: certify the triple on the window [-h, h]^2
  and report the verdict, kg, the SHA-256 of ``to_json_text()``, the time
  of the ``certify`` call and, when traced, the per-layer totals.

The certify time is in reference seconds (see ``speed.py``), with the raw
seconds beside it.  Every job reports the process's peak resident set size.  A
fresh process per certificate matters: ``engine.get_engine`` and
``model._fan_entries`` are caches that outlive a ``certify`` call, and a
``kgcert certify`` user never starts with them warm.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

from speed import measure


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    kgcert = importlib.import_module("kgcert")
    import_s = time.process_time() - t0
    if Path(kgcert.__file__).resolve().parent.parent != src:
        print(f"kgcert was imported from {kgcert.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {"import_s": import_s}
    if job["op"] == "certify":
        out.update(certify(kgcert, job))
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


def certify(kg, job) -> dict:
    t = kg.presentation.validate_triple(*job["triple"])
    h = job["half"]
    window = kg.functors.Window(-h, h, -h, h)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(kg)
        tracer.start_phases()
    try:
        cert, certify_s, raw_certify_s = measure(
            lambda: kg.certifier.certify(t, window, job["depth"])
        )
    finally:
        if tracer is not None:
            tracer.restore()
    out = {
        "certify_s": certify_s,
        "raw_certify_s": raw_certify_s,
        "verdict": cert.verdict,
        "kg": cert.kg,
        "sha256": hashlib.sha256(cert.to_json_text().encode()).hexdigest(),
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot(time_scale=certify_s / raw_certify_s)
    return out


if __name__ == "__main__":
    sys.exit(main())
