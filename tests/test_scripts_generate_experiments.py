"""``scripts/generate_experiments.py``: the merge into EXPERIMENTS.md, no experiment run."""

from pathlib import Path

import pytest

from tests.conftest import load_script

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def merge_sections():
    return load_script("generate_experiments").merge_sections


EXISTING = (
    "# Title\n\nold preamble\n\n"
    "## Fig. A\n\nold a\n\n"
    "## Hand-written one\n\nkept  as is,\ttabs and all\n\n"
    "## Fig. B\n\nold b\n\n"
    "## Hand-written two\n\nlast words\n"
)
GENERATED = ["# Title\n\nnew preamble\n\n", "## Fig. A\n\nnew a\n\n", "## Fig. B\n\nnew b\n\n"]


def test_known_sections_are_replaced_in_place_and_unknown_ones_survive(merge_sections):
    assert merge_sections(EXISTING, GENERATED) == (
        "# Title\n\nnew preamble\n\n"
        "## Fig. A\n\nnew a\n\n"
        "## Hand-written one\n\nkept  as is,\ttabs and all\n\n"
        "## Fig. B\n\nnew b\n\n"
        "## Hand-written two\n\nlast words\n"
    )


def test_regenerating_the_same_sections_changes_nothing(merge_sections):
    once = merge_sections(EXISTING, GENERATED)
    assert merge_sections(once, GENERATED) == once


def test_a_new_section_follows_the_generated_one_before_it(merge_sections):
    generated = [GENERATED[0], GENERATED[1], "## Fig. A2\n\nnew a2\n\n", GENERATED[2]]
    merged = merge_sections(EXISTING, generated)
    headings = [line for line in merged.splitlines() if line.startswith("#")]
    assert headings == [
        "# Title", "## Fig. A", "## Fig. A2", "## Hand-written one", "## Fig. B",
        "## Hand-written two",
    ]


def test_an_empty_document_gets_every_section_in_generation_order(merge_sections):
    assert merge_sections("", GENERATED) == "".join(GENERATED).rstrip("\n") + "\n"


def test_the_committed_document_keeps_its_hand_written_sections(merge_sections):
    """The bug this guards: a rewrite from the generated list alone dropped
    every section after "Baseline matrix"."""
    existing = (ROOT / "EXPERIMENTS.md").read_text()
    merged = merge_sections(existing, ["## Table 1 — state management and recovery overview\n\nx\n\n"])
    before = [line for line in existing.splitlines() if line.startswith("## ")]
    assert [line for line in merged.splitlines() if line.startswith("## ")] == before
    tail = existing[existing.index("## Extension — recovery critical-path profile"):]
    assert merged.endswith(tail)
