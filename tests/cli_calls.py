"""Run a sequence of ``knotrank`` commands through ``cli.main`` in one process.

    PYTHONPATH=src python tests/cli_calls.py '[["witness", "--prime", "13"], ["--help"]]'

prints ``[[code, stdout, stderr, built], ...]`` as JSON, one entry per
command, where ``built`` lists the call's ``cli.build_parser`` calls in
order, each as ``[command, added]``: the argument it was given (``None``
for the full parser) and the subcommands it added through
``_SubParsersAction.add_parser``.  Run with a single command in a fresh
interpreter, it gives the output a longer sequence in one process must
reproduce for that command.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from knotrank import cli


def run_calls(calls):
    built: list[list] = []
    build_parser = cli.build_parser
    add_parser = argparse._SubParsersAction.add_parser

    def recording_build_parser(command=None):
        built.append([command, []])
        return build_parser(command)

    def recording_add_parser(self, name, **kwargs):
        built[-1][1].append(name)
        return add_parser(self, name, **kwargs)

    results = []
    with mock.patch.object(cli, "build_parser", recording_build_parser), mock.patch.object(
        argparse._SubParsersAction, "add_parser", recording_add_parser
    ):
        for argv in calls:
            built.clear()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            results.append([code, out.getvalue(), err.getvalue(), list(built)])
    return results


if __name__ == "__main__":
    print(json.dumps(run_calls(json.loads(sys.argv[1]))))
