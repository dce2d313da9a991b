"""Failure accounting: which runs the reference rejects.

The references are not the code under test:

* Table 2 proxies are benign programs, so a sanitized run that reports
  anything has failed; and sanitizing must not change what the program
  does, so its ``native_cycles`` must equal those of the Native run of
  the same program (the uninstrumented reference).
* Juliet cases carry their ground truth (``buggy`` / ``latent``).  A good
  case reported by any tool fails.  A bad case whose bug triggers
  (not latent) and that GiantSan, ASan or ASan-- misses fails; LFP's
  misses are the paper's expected result and do not count.
"""

from __future__ import annotations

from typing import Optional

#: Tools that must report every non-latent Juliet bug.
MUST_DETECT = ("GiantSan", "ASan", "ASan--")


def table2_failure(
    reports: int, native_cycles: float, reference_cycles: float
) -> Optional[str]:
    """Why one sanitized Table 2 run failed, or None if it passed."""
    if reports:
        return "reports on a benign proxy"
    if native_cycles != reference_cycles:
        return "native_cycles differ from the Native run"
    return None


def juliet_failure(
    tool: str, buggy: bool, latent: bool, reported: bool
) -> Optional[str]:
    """Why one (Juliet case, tool) verdict failed, or None."""
    if not buggy and reported:
        return "good case reported"
    if buggy and not latent and not reported and tool in MUST_DETECT:
        return "bug missed"
    return None


def self_test() -> list:
    """Feed the checkers known-bad and known-good results; returns the
    list of rules that misfired (empty when accounting is sound)."""
    expectations = [
        # (description, verdict, should fail)
        ("reported good case",
         juliet_failure("LFP", buggy=False, latent=False, reported=True),
         True),
        ("missed non-latent bad case",
         juliet_failure("GiantSan", buggy=True, latent=False,
                        reported=False),
         True),
        ("table2 native_cycles mismatch",
         table2_failure(0, 1000.0, 1001.0), True),
        ("table2 reports on a benign proxy",
         table2_failure(3, 1000.0, 1000.0), True),
        ("LFP miss (expected by the paper)",
         juliet_failure("LFP", buggy=True, latent=False, reported=False),
         False),
        ("latent bad case missed",
         juliet_failure("ASan", buggy=True, latent=True, reported=False),
         False),
        ("detected bad case",
         juliet_failure("ASan--", buggy=True, latent=False, reported=True),
         False),
        ("clean table2 run", table2_failure(0, 1000.0, 1000.0), False),
    ]
    return [
        description
        for description, verdict, should_fail in expectations
        if (verdict is not None) != should_fail
    ]
