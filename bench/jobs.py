"""One benchmark job: spec text through the calls the command line makes.

Kept apart from run.py so a fresh interpreter can run the cold job
without importing the rest of the benchmark.  `cli` is the `tripart.cli`
module; its bindings are looked up at call time, so traced wrappers
installed there are used.
"""


def run_job(cli, workload: str, text: str):
    """Outputs of one job as a tuple of strings."""
    spec = cli.parse_spec(text)
    report = cli.run(spec)
    if workload == "sweep":
        return (cli.sweep_csv(report),)
    if workload == "triangles":
        return cli.report_json(report), cli.emit_svg(report)
    return (cli.report_json(report),)
