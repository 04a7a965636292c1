"""tools/fingerprint.py's digest format and usage; starts no episode."""

from fingerprint import digest, digest_text, main


def test_digests_keep_their_format():
    # the prefixes recorded for past changes are only comparable while
    # these stay the same
    assert digest([0.5, -0.0, 5e-324, 1.0]) == "8f2935d0055432d6"
    assert digest_text(["w", "0x1.0p-1"]) == "c650b9ca13786cd9"


def test_a_missing_checkout_prints_the_usage(capsys):
    assert main(["fingerprint.py"]) == 2
    assert capsys.readouterr().err == "usage: python3 tools/fingerprint.py <repo root>\n"
