"""tools/fingerprint.py's digest and line formats and usage; starts no episode."""

import fingerprint
from fingerprint import digest, digest_text, line, main


def test_digests_keep_their_format():
    # the prefixes recorded for past changes are only comparable while
    # these stay the same
    assert digest([0.5, -0.0, 5e-324, 1.0]) == "8f2935d0055432d6"
    assert digest_text(["w", "0x1.0p-1"]) == "c650b9ca13786cd9"


def test_lines_keep_their_format():
    assert (line("train_short", 3, "losses", "c8d37d76d1cca280")
            == "train_short  seed 3  losses c8d37d76d1cca280")
    assert (line("infer_mixed", 5, "probs", "e958aeba1759066d", 1)
            == "infer_mixed  seed 5  probs  e958aeba1759066d  threads 1")


def test_the_recorded_lines_come_first_then_the_benchmarks_without_lexicons(
        monkeypatch, capsys):
    def canned(root, threads):
        used = 1 if threads is None else threads
        return used, [("train_short", 3, "lexicon", "a" * 16),
                      ("train_short", 3, "losses", f"{used}" * 16),
                      ("infer_mixed", 5, "probs", f"{used + 2}" * 16)]

    monkeypatch.setattr(fingerprint, "in_fresh_process", canned)
    assert main(["fingerprint.py", "."]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"train_short  seed 3  lexicon {'a' * 16}",
        f"train_short  seed 3  losses {'2' * 16}",
        f"infer_mixed  seed 5  probs  {'4' * 16}",
        f"train_short  seed 3  losses {'1' * 16}  threads 1",
        f"infer_mixed  seed 5  probs  {'3' * 16}  threads 1",
    ]


def test_a_missing_checkout_prints_the_usage(capsys):
    assert main(["fingerprint.py"]) == 2
    assert capsys.readouterr().err == "usage: python3 tools/fingerprint.py <repo root>\n"
