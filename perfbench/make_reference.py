#!/usr/bin/env python3
"""Regenerates perfbench/reference/ from the current sources.

    python3 perfbench/make_reference.py

Runs each workload's canary: one fuse of the canary scene, the two canary
training steps and one eval pass, with the same settings as run.py. Only run
it when a change is meant to alter outputs, and say so where the change is
recorded; the checks in run.py compare against these files.
"""
import os
import shutil
import sys

from run import OUT, SRC, THREAD_ENV


def main():
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import checks
    from workloads import EvalTiny, FuseFull, TrainFull

    work = OUT / "work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        fuse, train, ev = (cls(work / cls.__name__, 0, {})
                           for cls in (FuseFull, TrainFull, EvalTiny))
        records = []
        for wl in (fuse, train, ev):
            (work / type(wl).__name__).mkdir()
            wl.setup()
            records += [wl.run_op(op) for op in
                        range(train.n_canary_steps if wl is train else 1)]
        errors = [r["error"] for r in records if r["error"]]
        if errors:
            sys.exit("canary failed: " + "; ".join(errors))
        checks.save_reference(
            fuse.expected["canary"],
            [{"loss": r["loss"], "grad_norms": r["grad_norms"]}
             for r in records[1:1 + train.n_canary_steps]],
            ev.expected["canary"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {checks.REFERENCE_DIR}")


if __name__ == "__main__":
    main()
