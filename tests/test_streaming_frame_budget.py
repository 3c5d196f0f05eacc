"""A budget on the Python frames one injected sentence costs.

Nothing on the tuple path is slow; its cost is call overhead, so the number
of frames entered is the quantity a change to it moves. ``sys.setprofile``
counts them over 100 injected word-count sentences (8 words each, 4 count
tasks, seed 1) after 100 warm-up ones: a word tuple enters only the store's
``get`` and ``put``, counted inline by ``CountingBolt.run_route``; a
sentence enters eleven frames of its own, among them the split bolt's one
``execute`` and ``emit_all``, one ``choose`` and one route runner per
emission list (the sentence, then its words); and the 22 words first seen
in the measured hundred pay for their hash and their two size estimates.
The count repeats exactly, and a captured sink costs no frame more; Python
3.12 inlines the hash's list comprehension, so it reads 1.76 lower there.
Before the four fast paths of DESIGN.md's "Streaming tuple path" it read
106.52 and 122.52, before emission lists 70.04 and 78.04, and before the
counting runner 56.04 and 64.04.
"""

import os
import sys
from collections import Counter

import pytest

import repro
from repro.streaming.cluster import LocalCluster
from repro.workloads.wordcount import SentenceGenerator, build_wordcount_topology

WARM_UP = MEASURED = 100
PROGRAM = os.path.dirname(repro.__file__) + os.sep
#: Frames a sentence; this interpreter reads 34.04 in both (3.12: 32.28).
BUDGET = {False: 36.0, True: 36.0}


def frames_per_sentence(capture_outputs):
    cluster = LocalCluster(
        build_wordcount_topology(num_sentences=0, seed=1, count_parallelism=4),
        capture_outputs=capture_outputs,
    )
    sentences = list(SentenceGenerator(WARM_UP + MEASURED, seed=1))
    for sentence in sentences[:WARM_UP]:
        cluster.inject("sentences", (sentence,), 0.0)
    entered = Counter()

    def hook(frame, event, arg):
        # Only the program's frames: inside a long test session the collector
        # runs other libraries' weakref callbacks in the middle of anything.
        if event == "call" and frame.f_code.co_filename.startswith(PROGRAM):
            entered[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for sentence in sentences[WARM_UP:]:
            cluster.inject("sentences", (sentence,), 0.0)
    finally:
        sys.setprofile(previous)
    assert cluster.executed_counts["count"] == 8 * (WARM_UP + MEASURED)
    return sum(entered.values()) / MEASURED, entered


@pytest.mark.parametrize("capture_outputs", [False, True], ids=["uncaptured", "captured"])
def test_a_sentence_stays_inside_its_frame_budget(capture_outputs):
    frames, entered = frames_per_sentence(capture_outputs)
    assert frames <= BUDGET[capture_outputs], sorted(entered.items(), key=lambda kv: -kv[1])
    assert frames_per_sentence(capture_outputs)[0] == frames  # a count, not a timing
    # The entry points the layer trace wraps on the class are still entered per call:
    # get and put once a word, choose twice a sentence, execute once (the split bolt).
    words = 8 * MEASURED
    assert entered["get"] == entered["put"] == words
    assert entered["choose"] == 2 * MEASURED
    assert entered["execute"] == entered["inject"] == MEASURED
