"""Terminal front end: every operation, with text or JSON envelope output.

Exit codes: 0 success, 1 domain failure, 2 usage or input error,
3 search exhaustion.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from itertools import chain

from . import pretzel, seifert
from .laurent import LaurentPoly, NotUnitAtOne
from .pretzel import PretzelKnot, WitnessKnot
from .seifert import SeifertMatrix

# characters and numtheory are imported by the code that runs them, so
# alexander, fibered and rank never load them.  Annotations are never
# evaluated, so the names in them (characters, and collections.abc's
# Iterable, Iterator and Sequence) need no import here.

SCHEMA_VERSION = "1"


def _write(pieces: Iterable[str]) -> None:
    """Write ``pieces`` to standard output, then flush once: its one writer.

    The pieces are taken one at a time, so a generator of rows is never
    held whole.  A standard output closed at start-up is ``None``, where
    ``print`` writes nothing; here it fails as a write to a closed
    descriptor does.
    """
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    sys.stdout.writelines(pieces)
    sys.stdout.flush()


def _emit(args, result: dict, text: str) -> None:
    """Write ``result`` in the JSON envelope of ``args.command``, or else ``text``.

    ``text`` is the whole text output, ending in a newline.
    """
    if args.json:
        import json  # here, not with the module: text output never needs it

        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "result": result,
        }
        _write([json.dumps(envelope, sort_keys=True, indent=2) + "\n"])
    else:
        _write([text])


# The certificate envelope, laid out as json.dumps(..., sort_keys=True,
# indent=2) lays it out: each template sits at the depth where the
# envelope nests it (see _certificate_json).
_CERTIFICATE_HEAD = """{
  "command": "certificate",
  "result": {
    "matrix": """
_CERTIFICATE_TAIL = """,
    "primes": %s,
    "verified": %s,
    "witnesses": %s
  },
  "schema_version": "%s"
}
"""
_WITNESS_JSON = """{
        "factorization": %s,
        "max_prime": %d,
        "rank": %d,
        "witness": {
          "genus": %d,
          "index": %d,
          "pretzel": [
            %d,
            %d,
            %d
          ],
          "stab": %d,
          "top_rank": %d
        }
      }"""
_PAIR_JSON = """[
            %d,
            %d
          ]"""


def _json_list(joined: str, pad: str) -> str:
    """A JSON list nested at ``pad``, from its items joined at ``pad`` plus two spaces."""
    return f"[{pad}  {joined}{pad}]" if joined else "[]"


def _certificate_json(cert: characters.IndependenceCertificate, verified: bool) -> Iterator[str]:
    """The ``certificate --json`` envelope of ``cert``, in pieces, ending in a newline.

    Its reference is what ``_emit`` writes: ``json.dumps(envelope,
    sort_keys=True, indent=2)`` and a newline, for the envelope that
    ``cert.to_json()`` plus ``verified`` make.  The joined pieces match
    that byte for byte, and every value is read from the attribute or
    function that ``to_json`` reads; only the layout is written here,
    once, in the templates above.  Each matrix row is one piece, from
    the row writer of ``to_csv``, so no Python step is taken per zero,
    the matrix is never held whole, no dictionary of the envelope is
    built, and ``json`` is never imported: every entry is an int, which
    ``json.dumps`` writes as ``str`` does.
    """
    from . import characters

    yield _CERTIFICATE_HEAD
    lead = "[\n      "
    for text in characters._joined_rows(cert.evaluation, ",\n        "):
        yield f"{lead}[\n        {text}\n      ]"
        lead = ",\n      "
    yield "\n    ]"
    witnesses = []
    for cw in cert.witnesses:
        w = cw.witness
        pairs = ",\n          ".join(map(_PAIR_JSON.__mod__, cw.factorization))
        witnesses.append(
            _WITNESS_JSON
            % (
                _json_list(pairs, "\n        "),
                cw.max_prime,
                cw.rank,
                w.genus,
                w.index,
                *w.strands,
                w.stab_count,
                pretzel.hfk_top_rank(w),
            )
        )
    yield _CERTIFICATE_TAIL % (
        _json_list(",\n      ".join(map(str, cert.selected_primes)), "\n    "),
        "true" if verified else "false",
        _json_list(",\n      ".join(witnesses), "\n    "),
        SCHEMA_VERSION,
    )


def _parse_pretzel(text: str) -> PretzelKnot:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(
            f"--pretzel needs three comma-separated strand values, got {text!r}"
        )
    try:
        strands = [int(v) for v in parts]
    except ValueError:
        raise ValueError(f"strand values must be integers, got {text!r}") from None
    return PretzelKnot.from_strands(*strands)


def _load_seifert(path: str) -> SeifertMatrix:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to parse") from None
    return SeifertMatrix.from_json(data)


def _resolve_polynomial(args) -> tuple[LaurentPoly, int]:
    """Normalized Alexander polynomial plus the genus of the carrying surface."""
    if args.pretzel is not None:
        knot = _parse_pretzel(args.pretzel)
        return pretzel.alexander_closed_form(knot), 1
    V = _load_seifert(args.seifert)
    return seifert.alexander_from_seifert(V), V.genus


def cmd_alexander(args) -> int:
    poly, _ = _resolve_polynomial(args)
    result = {"alexander": poly.to_json(), "pretty": str(poly)}
    _emit(args, result, result["pretty"] + "\n")
    return 0


def cmd_fibered(args) -> int:
    poly, genus = _resolve_polynomial(args)
    fibered, failing = seifert.fiberedness(poly, genus)
    result = {
        "fibered": fibered,
        "genus": genus,
        "degree_span": poly.degree_span(),
        "at_zero": poly.eval_at(0),
        "failing": failing,
        "alexander": poly.to_json(),
    }
    text = "true\n" if fibered else "false (" + "; ".join(failing) + ")\n"
    _emit(args, result, text)
    return 0


def cmd_witness(args) -> int:
    from . import characters

    p = args.prime
    cw = characters.witness_for_prime(p)
    n = cw.witness.index
    m = (2 * n - 1) % p  # the pinned square root of -1 that gave n
    strands = cw.witness.strands
    result = {
        "prime": p,
        "m": m,
        "n": n,
        "pretzel": list(strands),
        "rank": cw.rank,
        "factorization": [[q, e] for q, e in cw.factorization],
        "rank_mod_p": cw.rank % p,
    }
    factors = " * ".join(f"{q}^{e}" if e > 1 else str(q) for q, e in cw.factorization)
    text = (
        f"prime: {p}\n"
        f"m: {m} (m^2 = -1 mod {p})\n"
        f"witness index: {n}\n"
        f"pretzel: P({strands[0]}, {strands[1]}, {strands[2]})\n"
        f"rank: {cw.rank}\n"
        f"factorization: {factors}\n"
        f"rank mod {p}: {cw.rank % p}\n"
    )
    _emit(args, result, text)
    return 0


def cmd_certificate(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.search_limit < 1:
        raise ValueError(f"--search-limit must be >= 1, got {args.search_limit}")
    from . import characters

    try:
        cert = characters.build_certificate(args.count, args.search_limit)
    except characters.SearchExhausted as exc:
        return _report(str(exc), 3)
    check = characters.verify_certificate(cert)
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.writelines(characters._csv_lines(cert))
        except OSError as exc:
            raise ValueError(f"cannot write {args.csv}: {exc}") from None
    if args.json:
        _write(_certificate_json(cert, bool(check)))
    else:
        verdict = f"verified: {'true' if check else 'false'}\n"
        _write(chain(characters._csv_lines(cert), [verdict]))
    if not check:
        return _report(check.reason, 1)
    return 0


def cmd_rank(args) -> int:
    if args.index < 1:
        raise ValueError(f"--index must be >= 1, got {args.index}")
    if args.stab < 0:
        raise ValueError(f"--stab must be >= 0, got {args.stab}")
    # --stab K prints the genus-(K + 1) power, and the coefficients of
    # (1 - t + t^2)^g are, up to sign, those of (1 + t + t^2)^g: 2g + 1 of
    # them, summing to 3^g in absolute value.  So the largest is at least
    # 3^g / (2g + 1), and once that bound has more digits than Python
    # converts to text (one digit to spare for the rounding of the
    # logarithms), printing the polynomial must fail.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    g = args.stab + 1
    if limit and g > (limit + 1 + math.log10(2 * g + 1)) / math.log10(3):
        raise ValueError(
            f"--stab {args.stab} is too large: the Alexander polynomial would have "
            f"coefficients of more than {limit} digits, the limit for integer "
            "string conversion (PYTHONINTMAXSTRDIGITS raises it)"
        )
    # The rank 2N^2 - 2N + 1 is the largest number printed from --index N.
    # It has more digits than the limit exactly when it is at least
    # 10^limit, a power computed only for a rank within a bit of its size.
    w = WitnessKnot(args.index, args.stab)
    rank = pretzel.hfk_top_rank(w)
    if limit and rank.bit_length() > limit * math.log2(10) - 1 and rank >= 10**limit:
        raise ValueError(
            f"--index is too large: the witness rank 2N^2 - 2N + 1 would have more "
            f"than {limit} digits, the limit for integer string conversion "
            "(PYTHONINTMAXSTRDIGITS raises it)"
        )
    poly = pretzel.alexander_of_witness(w)
    result = {
        "index": args.index,
        "stab": args.stab,
        "rank": rank,
        "genus": w.genus,
        "alexander": poly.to_json(),
        "pretty": str(poly),
    }
    text = f"rank: {result['rank']}\ngenus: {w.genus}\nalexander: {result['pretty']}\n"
    if args.stab == 0:
        split = pretzel.hfk_bigraded(w)
        result["bigraded"] = [[g, r] for g, r in split]
        text += "bigraded: " + "  ".join(f"grading {g}: rank {r}" for g, r in split) + "\n"
    _emit(args, result, text)
    return 0


# -- selftest ------------------------------------------------------------


def _witness_block_sum(n: int, k: int) -> list[list[int]]:
    """A Seifert matrix of witness n with k trefoil summands, genus k + 1.

    A connected sum's Seifert matrix is the block sum of the summands'
    matrices, and its Alexander polynomial is their product.
    """
    trefoil = seifert.pretzel_seifert_matrix(0, 0, 0).entries
    blocks = [seifert.pretzel_seifert_matrix(-n, n, n * n).entries] + [trefoil] * k
    return [
        [0] * (2 * b) + list(row) + [0] * (2 * (k - b))
        for b, block in enumerate(blocks)
        for row in block
    ]


def _check_box_oracle(copies: int) -> None:
    # The box [-6, 6]^3, then the bases (-n, n, n^2) of witnesses 1-50,
    # where c = 1 lets alexander_of_witness skip the closed form.
    span = range(-6, 7)
    bases = [(-n, n, n * n) for n in range(1, 51)]
    for l, m, n in [(l, m, n) for l in span for m in span for n in span] + bases:
        via_matrix = seifert.alexander_from_seifert(seifert.pretzel_seifert_matrix(l, m, n))
        via_formula = pretzel.alexander_closed_form(PretzelKnot(l, m, n))
        if via_matrix != via_formula:
            raise AssertionError(f"routes disagree at (l, m, n) = ({l}, {m}, {n})")
    # Witnesses of genus 1-6.
    for n in range(1, 51):
        for k in range(6):
            rows = _witness_block_sum(n, k)
            via_matrix = seifert.alexander_from_seifert(SeifertMatrix.from_rows(rows))
            if via_matrix != pretzel.alexander_of_witness(WitnessKnot(n, k)):
                raise AssertionError(f"routes disagree at witness index {n}, stab {k}")
    # Congruent copies U V U^T of the witnesses of genus 2-10, with U a
    # seeded product of elementary matrices I + c * E_ij (det U = 1).  The
    # Alexander polynomial is a congruence invariant, and U fills in the
    # block-diagonal V - V^T, so the elimination meets dense columns.
    import random

    rng = random.Random(1)
    for k in range(1, 10):
        for n in range(1, copies + 1):
            rows = _witness_block_sum(n, k)
            size = len(rows)
            for _ in range(3 * size):
                i, j = rng.sample(range(size), 2)
                c = rng.choice((-1, 1))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
                for row in rows:
                    row[i] += c * row[j]
            via_matrix = seifert.alexander_from_seifert(SeifertMatrix.from_rows(rows))
            if via_matrix != pretzel.alexander_of_witness(WitnessKnot(n, k)):
                raise AssertionError(
                    f"routes disagree at witness index {n}, stab {k}, after a congruence"
                )


def _check_witnesses(limit: int) -> None:
    from . import characters, numtheory

    for p in numtheory.primes_one_mod_four(limit):
        cw = characters.witness_for_prime(p)
        if cw.rank % p != 0:
            raise AssertionError(f"prime {p}: witness rank {cw.rank} is not divisible")


def _check_certificate(rows: int) -> None:
    from . import characters

    cert = characters.build_certificate(rows, 10_000)
    check = characters.verify_certificate(cert)
    if not check:
        raise AssertionError(check.reason)


def _selftest_checks(fast: bool):
    copies = 1 if fast else 6
    prime_limit = 1_000 if fast else 10_000
    rows = 10 if fast else 25
    return [
        ("pretzel box oracle", lambda: _check_box_oracle(copies)),
        ("witness verification", lambda: _check_witnesses(prime_limit)),
        ("certificate", lambda: _check_certificate(rows)),
    ]


def cmd_selftest(args) -> int:
    results: list[dict] = []
    failed = False
    for name, check in _selftest_checks(args.fast):
        try:
            check()
        except Exception as exc:  # a selftest reports any failure and stops
            results.append({"name": name, "ok": False, "detail": str(exc)})
            failed = True
            break
        results.append({"name": name, "ok": True})
    text = "".join(
        f"ok: {r['name']}\n" if r["ok"] else f"FAIL: {r['name']} ({r['detail']})\n"
        for r in results
    )
    _emit(args, {"checks": results, "ok": not failed}, text)
    return 1 if failed else 0


# -- parser ----------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """A parser that prints its help through ``_write``, all else through ``_warn``.

    ``argparse`` drops the error of every message it prints, so ``--help``
    into a full or closed standard output would print nothing and still
    exit 0; through ``_write`` the failure reaches ``_run``.  Its other
    messages, a usage error's lines, belong on standard error, where
    ``argparse`` itself sends the usage line to standard output when
    standard error is closed, and Python 3.10 raises on a failed write.
    """

    def print_help(self, file=None):
        _write([self.format_help()])

    def _print_message(self, message, file=None):
        _warn(message)


def _add_knot_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--pretzel", metavar="A,B,C", help="odd strand values of the pretzel knot P(A,B,C)"
    )
    group.add_argument("--seifert", metavar="PATH", help="path to a Seifert matrix JSON file")


def _add_witness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prime", type=int, required=True, metavar="P")


def _add_certificate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--count", type=int, default=10, metavar="N")
    p.add_argument("--search-limit", type=int, default=10_000, metavar="L")
    p.add_argument("--csv", metavar="PATH", help="also write the evaluation matrix as CSV")


def _add_rank_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", type=int, required=True, metavar="N")
    p.add_argument("--stab", type=int, default=0, metavar="K")


def _add_selftest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fast", action="store_true", help="reduced ranges, finishes in seconds")


# name: (help line, handler, adds the options before --json), in help order
_COMMANDS = {
    "alexander": ("normalized Alexander polynomial", cmd_alexander, _add_knot_source),
    "fibered": ("homological fiberedness test", cmd_fibered, _add_knot_source),
    "witness": ("witness knot for a prime p = 1 (mod 4)", cmd_witness, _add_witness_args),
    "certificate": (
        "build and verify an independence certificate",
        cmd_certificate,
        _add_certificate_args,
    ),
    "rank": ("rank data of a (possibly stabilized) witness", cmd_rank, _add_rank_args),
    "selftest": ("run the built-in consistency checks", cmd_selftest, _add_selftest_args),
}


def _add_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``p`` the options of command ``name``, then ``--json`` and its defaults."""
    _, func, add_options = _COMMANDS[name]
    add_options(p)
    p.add_argument("--json", action="store_true", help="emit a JSON envelope")
    p.set_defaults(func=func, command=name)
    return p


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``knotrank`` parser; with a ``command`` name, that command's own.

    argparse builds a whole parser per subcommand, which is most of the
    cost of a short command.  The parser of ``command`` stands alone: it
    is the parser the full one nests under that name, with the ``prog``
    argparse gives it, ``knotrank NAME``, so its help and its every error
    are the full parser's, byte for byte.  The one message it cannot
    print is the full parser's ``unrecognized arguments``, whose usage
    line lists every command; ``_parse`` asks the full parser for that.
    For any other ``command`` (``None``, an unknown name) the full
    parser, with every command, is built.
    """
    if command in _COMMANDS:
        return _add_command(_ArgumentParser(prog=f"knotrank {command}"), command)
    parser = _ArgumentParser(
        prog="knotrank",
        description="Exact Alexander polynomials of pretzel knots, homological "
        "fiberedness tests, witness ranks, and independence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser does, with the named command's parser alone.

    Only words left over after the command's parse, or an argv whose
    first word is not a command, need the full parser.
    """
    if argv and argv[0] in _COMMANDS:
        args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _absorb_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes "-1,3,3" for a flag; glue such values onto --pretzel,
    # or onto an abbreviation of it, which in these commands is unambiguous
    if argv[:1] not in (["alexander"], ["fibered"]):
        return argv
    out: list[str] = []
    for word in argv:
        opt = out[-1] if out else ""
        if len(opt) > 2 and "--pretzel".startswith(opt) and word[:1] == "-" and word[1:2].isdigit():
            out[-1] = f"--pretzel={word}"
        else:
            out.append(word)
    return out


def _warn(text: str) -> None:
    """Write ``text`` to standard error; when that is closed or full, the text is lost."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):  # AttributeError: no standard error at all
        pass


def _report(message: str, code: int) -> int:
    """Write one ``error:`` line to standard error and return ``code``."""
    _warn(f"error: {message}\n")
    return code


def _run(argv: list[str]) -> int:
    try:
        try:
            args = _parse(_absorb_negative_values(argv))
        except SystemExit as exc:  # argparse printed the help or a usage error
            return exc.code if isinstance(exc.code, int) else 2
        return args.func(args)
    except OSError as exc:
        # commands turn every other OSError into a ValueError, so this
        # one is _write's, to a closed or full standard output
        return _report(f"cannot write to standard output: {exc}", 2)
    except NotUnitAtOne as exc:
        return _report(str(exc), 1)
    except ValueError as exc:
        return _report(str(exc), 2)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    Standard output is written only through ``_write``, whose failure
    ``_run`` turns into exit 2, and standard error only through
    ``_warn``, which drops a failed write.  Without ``argv`` (``python -m
    knotrank``, the console script) the interpreter exits next, and a
    standard stream whose flush fails now would fail again in its last
    flush and turn the exit code into 120, so its descriptor is pointed
    at devnull.  A caller that passes ``argv`` keeps its descriptors.
    """
    code = _run(list(sys.argv[1:] if argv is None else argv))
    if argv is None:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed at start-up
            try:
                stream.flush()
            except OSError:
                with open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
