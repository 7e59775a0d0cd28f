"""Shared pytest configuration and helpers.

After a run that included the acceptance suite, prints one verdict line per
acceptance criterion so the gate can be read off the terminal directly.
`within` enforces a test's time bound while the call runs.
"""

import re
import signal
import warnings

# hypothesis imports this module while it reports a failing example, and on
# import it raises a DeprecationWarning (from mypy_extensions) that
# `filterwarnings = error` turns into an INTERNALERROR ending the session;
# imported once here, it is cached before any test runs
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

CRITERIA = {
    1: "single-referendum coercion resistance holds at the start state",
    2: "knowledge-based double-referendum property holds on both variants",
    3: "uncertainty formula separates the two double-referendum variants",
    4: "coercer pattern counts: 4 on the opaque variant, 2 on the leaky one",
    5: "ThreeBallot coercer information sets match the expected 20-row table",
    6: "ThreeBallot: epistemic resistance holds, maximum-doubt invariant fails",
    7: "both translation directions agree with direct checking on 1000 random models",
    8: "translated uncertainty formulas blow up exponentially in length",
    9: "the family formula separates each model from its punctured variants",
    10: "formula-size game minima match enumerated minimal formulas",
    11: "randomized invariant suites report zero violations",
    12: "strategy enumeration agrees with the brute-force oracle",
}


class TimeLimitExceeded(BaseException):
    """A call outran its time bound. Not an `Exception`, so handlers in the
    code under test, such as `cli.main`'s, cannot swallow it."""


def within(seconds: float, fn, *args, **kwargs):
    """`fn(*args, **kwargs)`, interrupted by `TimeLimitExceeded` once it has
    run `seconds` of wall time, so a runaway call fails instead of hanging.

    The exception is raised again from here, without the interrupted frames:
    a frame stopped between two lines has no line number, which pytest
    cannot print. The message names the function that was running."""

    def expire(signum, frame):
        code = frame.f_code
        raise TimeLimitExceeded(
            f"{getattr(fn, '__name__', fn)} ran past {seconds} s,"
            f" interrupted in {code.co_name} ({code.co_filename})"
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args, **kwargs)
    except TimeLimitExceeded as exc:
        raise TimeLimitExceeded(*exc.args) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter):
    verdicts = {}
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            found = _PATTERN.search(report.nodeid)
            if found and getattr(report, "when", "call") == "call":
                verdicts[int(found.group(1))] = verdict
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(verdicts):
        description = CRITERIA.get(number, "")
        terminalreporter.write_line(f"criterion {number}: {verdicts[number]} - {description}")
