"""``jetsym`` with a clock around each ``jetsym.cli.run_task`` call.

Everything else is what ``python -m jetsym.cli`` does; no other wrapper
is installed.  Usage::

    python perfbench/taskclock.py OUT.json [jetsym arguments ...]

OUT.json receives ``[[task id, seconds], ...]`` in execution order.
"""

import json
import sys
import time

import jetsym.cli as cli


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    samples = []
    run_task = cli.run_task
    clock = time.perf_counter

    def timed(problem, task, *, seed):
        start = clock()
        record = run_task(problem, task, seed=seed)
        samples.append([task.task_id, clock() - start])
        return record

    cli.run_task = timed
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(samples, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
