"""Byte-for-byte pins of the CLI's stdout for fixed flags.

Each file under ``tests/golden/`` is the exact stdout of one command.
A change that alters any of them changes a published report, so a
mismatch here is a behaviour change, not a formatting detail.  When a
change of output is intended, regenerate the file from the repository
root with the command's argv, for example::

    PYTHONPATH=src python -m twistlab.cli corollary --genus 2 --cap 4 \\
        > tests/golden/corollary_g2_cap4.json

and review the diff before committing it.
"""

from pathlib import Path

import pytest

from twistlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "scan_g2_cap3_s20_seed7.json": [
        "scan", "--genus", "2", "--cap", "3", "--samples", "20", "--seed", "7",
    ],
    "scan_g2_cap3_s20_seed7.csv": [
        "scan", "--genus", "2", "--cap", "3", "--samples", "20", "--seed", "7",
        "--format", "csv",
    ],
    "scan_g2_cap1_s25_seed3.json": [
        "scan", "--genus", "2", "--cap", "1", "--samples", "25", "--seed", "3",
    ],
    "scan_g2_cap3_s40_seed5.json": [
        "scan", "--genus", "2", "--cap", "3", "--samples", "40", "--seed", "5",
    ],
    "scan_g3_cap2_s25_seed3.json": [
        "scan", "--genus", "3", "--cap", "2", "--samples", "25", "--seed", "3",
    ],
    "scan_g3_cap3_s10_seed1.json": [
        "scan", "--genus", "3", "--cap", "3", "--samples", "10", "--seed", "1",
    ],
    "scan_g2_cap6_s20_seed3.json": [
        "scan", "--genus", "2", "--cap", "6", "--samples", "20", "--seed", "3",
    ],
    "scan_g3_cap5_s20_seed6.json": [
        "scan", "--genus", "3", "--cap", "5", "--samples", "20", "--seed", "6",
    ],
    "corollary_g2_cap4.json": ["corollary", "--genus", "2", "--cap", "4"],
    "corollary_g2_cap5.json": ["corollary", "--genus", "2", "--cap", "5"],
    "corollary_g2_cap6.json": ["corollary", "--genus", "2", "--cap", "6"],
    "corollary_g2_cap7.json": ["corollary", "--genus", "2", "--cap", "7"],
    "corollary_g2_cap9.json": ["corollary", "--genus", "2", "--cap", "9"],
    "corollary_g3_cap5.json": ["corollary", "--genus", "3", "--cap", "5"],
    "foxcheck_g2_s25_t6_seed1_b3.json": [
        "foxcheck", "--genus", "2", "--samples", "25", "--torelli-pairs", "6",
        "--seed", "1", "--suzuki-budget", "3",
    ],
    "foxcheck_g2_s25_t6_seed1_b29.json": [
        "foxcheck", "--genus", "2", "--samples", "25", "--torelli-pairs", "6",
        "--seed", "1", "--suzuki-budget", "29",
    ],
    # genus 1 has no separating curve: no Torelli pool, no matrix
    "foxcheck_g1_s25_t6_seed1.json": [
        "foxcheck", "--genus", "1", "--samples", "25", "--torelli-pairs", "6",
        "--seed", "1",
    ],
    "foxcheck_g1_s25_t6_seed1.csv": [
        "foxcheck", "--genus", "1", "--samples", "25", "--torelli-pairs", "6",
        "--seed", "1", "--format", "csv",
    ],
    "foxcheck_g3_s25_t6_seed1_b10.json": [
        "foxcheck", "--genus", "3", "--samples", "25", "--torelli-pairs", "6",
        "--seed", "1", "--suzuki-budget", "10",
    ],
    "pair_g2_sep1_conj_cap5.json": [
        "pair", "--genus", "2", "--c1", "Sep1", "--c2", "Sep1 @ [C3]",
        "--cap", "5",
    ],
    # a crossing separating pair of ijf 7: the second twist's images are
    # long against those of its factors, so its action is composed
    "pair_g2_sep1_sep1conj_cap7.json": [
        "pair", "--genus", "2", "--c1", "Sep1", "--c2", "Sep1 @ [C3 Sep1 C3^-1]",
        "--cap", "7",
    ],
    "pair_g2_c3_heavy_sep1_cap3.json": [
        "pair", "--genus", "2", "--c1", "C3 @ [C3^2 Sep1^-2 Sep1^-2 Sep1^-2]",
        "--c2", "Sep1", "--cap", "3",
    ],
    # a commuting pair with long twist images: commutation compares
    # every generator image
    "pair_g3_c7_heavy_commuting_cap3.json": [
        "pair", "--genus", "3", "--c1", "C7 @ [C1^-2 C5^-1 C4 Sep2^-2]",
        "--c2", "Sep2 @ [C5 C7^2 Sep2^2 C5^2]", "--cap", "3",
    ],
    # algebraic -1: the braid label is read from fg
    "pair_g3_c4_braid_cap3.json": [
        "pair", "--genus", "3", "--c1", "C4 @ [C3^-2]",
        "--c2", "C2 @ [Sep1^2 C3^-1 C2 C4^2]", "--cap", "3",
    ],
    # cap 1 of a crossing pair with long twist images: the depth is read
    # from the twists' homology matrices, and fg, gf are not composed
    "pair_g2_c3_sep1_cap1.json": [
        "pair", "--genus", "2", "--c1", "C3 @ [C3^-3 Sep1^-3]",
        "--c2", "Sep1 @ [C3^-3 C5^-4 Sep1^4]", "--cap", "1",
    ],
    "validate_g2.json": ["validate", "--genus", "2"],
    "validate_g3.json": ["validate", "--genus", "3"],
    # the smallest genus with three separating twists
    "validate_g4.json": ["validate", "--genus", "4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(name, capsys):
    rc = main(CASES[name])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
