import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import json_slots
from hico import io, niah
from hico.errors import CapacityError, DomainError

LIB = niah.synth_library(100, seed=0)


def needle_for(i=0):
    return LIB[i]


# ---------------------------------------------------------------------------
# generation


@pytest.mark.parametrize(
    "length,depth,position",
    [(10, 0.0, 0), (10, 1.0, 9), (10000, 0.5, 5000), (1, 0.7, 0)],
)
def test_single_hop_positions(length, depth, position):
    inst = niah.gen_single_hop(length, depth, needle_for())
    assert inst.correct_path.hops[0].position == position
    assert inst.distractors == ()
    assert inst.ground_truth == (needle_for().id, needle_for().answer)


def test_single_hop_rejects_bad_depth():
    with pytest.raises(DomainError):
        niah.gen_single_hop(10, 1.5, needle_for())
    with pytest.raises(DomainError):
        niah.gen_single_hop(0, 0.5, needle_for())


def test_multi_hop_structure():
    inst = niah.gen_multi_hop(500, 3, 2, LIB, seed=42)
    assert len(inst.correct_path.hops) == 3
    assert len(inst.distractors) == 2
    assert inst.correct_path.hops[-1].clue is None
    assert inst.correct_path.hops[-1].item_id == inst.ground_truth[0]
    items = [h.item_id for h in inst.all_hops()]
    assert len(set(items)) == 9
    positions = [h.position for h in inst.all_hops()]
    assert len(set(positions)) == 9


def test_multi_hop_single_hop_degenerate_case():
    inst = niah.gen_multi_hop(50, 1, 0, LIB, seed=3)
    assert len(inst.correct_path.hops) == 1
    assert inst.correct_path.hops[0].clue is None
    assert inst.distractors == ()
    assert inst.ground_truth[0] == inst.correct_path.hops[0].item_id


def test_multi_hop_deterministic_serialization():
    a = niah.gen_multi_hop(1000, 3, 1, LIB, seed=7)
    b = niah.gen_multi_hop(1000, 3, 1, LIB, seed=7)
    assert niah.dump_instance(a) == niah.dump_instance(b)
    c = niah.gen_multi_hop(1000, 3, 1, LIB, seed=8)
    assert niah.dump_instance(a) != niah.dump_instance(c)


def test_multi_hop_ordered_positions():
    inst = niah.gen_multi_hop(300, 4, 2, LIB, seed=5, ordered=True)
    for path in (inst.correct_path, *inst.distractors):
        pos = [h.position for h in path.hops]
        assert pos == sorted(pos)


def test_multi_hop_capacity_errors():
    with pytest.raises(CapacityError):
        niah.gen_multi_hop(1000, 3, 2, LIB[:5], seed=0)
    with pytest.raises(CapacityError):
        niah.gen_multi_hop(5, 3, 2, LIB, seed=0)


def test_instance_json_round_trip():
    inst = niah.gen_multi_hop(200, 3, 1, LIB, seed=11)
    again = niah.instance_from_dict(niah.instance_to_dict(inst))
    assert again == inst


BAD_DOCUMENTS = {
    "foreign-object": (lambda raw: {"id": "x"}, "lacks key"),
    "list": (lambda raw: [1, 2], "must be a JSON object"),
    "no-ground-truth": (lambda raw: raw.pop("ground_truth") and raw, "lacks key 'ground_truth'"),
    "string-seed": (lambda raw: raw.update(seed="3") or raw, "'seed' must be an integer"),
    "bool-length": (
        lambda raw: raw.update(haystack_len=True) or raw, "'haystack_len' must be an integer"
    ),
    "hop-no-position": (
        lambda raw: raw["correct_path"]["hops"][0].pop("position") and raw, "hop 0 lacks"
    ),
    "int-clue": (
        lambda raw: raw["correct_path"]["hops"][-1].update(clue=5) or raw, "string or null"
    ),
    "int-is-correct": (
        lambda raw: raw["distractors"][0].update(is_correct=0) or raw, "true or false"
    ),
    "short-ground-truth": (lambda raw: raw.update(ground_truth=["a"]) or raw, "'ground_truth'"),
    "object-distractors": (
        lambda raw: raw.update(distractors={}) or raw, "'distractors' must be a list"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_instance_from_dict_rejects_bad_documents(case):
    mutate, message = BAD_DOCUMENTS[case]
    raw = niah.instance_to_dict(niah.gen_multi_hop(200, 3, 1, LIB, seed=11))
    with pytest.raises(DomainError, match=message):
        niah.instance_from_dict(mutate(raw))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 30), data=st.data())
def test_instance_from_dict_fuzz_raises_only_domain_error(seed, data):
    raw = niah.instance_to_dict(niah.gen_multi_hop(80, 2, 1, LIB, seed=seed))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = json_slots(raw)
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(JSON_VALUES)
    try:
        niah.instance_from_dict(raw)
    except DomainError:
        pass


def test_load_responses_rejects_bad_lines(tmp_path):
    path = tmp_path / "r.jsonl"
    for line, message in (
        ('{"instance_id": 1}', "'instance_id' must be a string"),
        ('{"instance_id": "a", "needle_id": "b"}', "lacks key 'answer'"),
        ("[1]", "must be a JSON object"),
    ):
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DomainError, match=message):
            niah.load_responses(path)


# ---------------------------------------------------------------------------
# validation and oracle


def test_generated_instances_validate_and_solve():
    for seed in range(60):
        rng = random.Random(seed)
        inst = niah.gen_multi_hop(
            rng.randrange(20, 2000),
            rng.randrange(1, 5),
            rng.randrange(0, 4),
            LIB,
            seed=seed,
        )
        report = niah.validate_instance(inst, LIB)
        assert report.ok, report.failures
        assert niah.oracle_solve(inst, LIB) == inst.ground_truth


def test_validate_flags_duplicate_positions():
    inst = niah.gen_multi_hop(100, 2, 1, LIB, seed=1)
    hops = inst.distractors[0].hops
    clash = dataclasses.replace(
        hops[0], position=inst.correct_path.hops[0].position
    )
    bad = dataclasses.replace(
        inst,
        distractors=(
            dataclasses.replace(inst.distractors[0], hops=(clash,) + hops[1:]),
        ),
    )
    report = niah.validate_instance(bad, LIB)
    assert niah.CHECK_POSITIONS in report.codes


def test_validate_flags_decoy_replaced_by_needle():
    inst = niah.gen_multi_hop(100, 2, 1, LIB, seed=2)
    hops = inst.distractors[0].hops
    fake_terminal = dataclasses.replace(hops[-1], item_id=inst.ground_truth[0])
    bad = dataclasses.replace(
        inst,
        distractors=(
            dataclasses.replace(
                inst.distractors[0], hops=hops[:-1] + (fake_terminal,)
            ),
        ),
    )
    report = niah.validate_instance(bad, LIB)
    assert niah.CHECK_DECOY in report.codes


def test_validate_flags_broken_chain():
    inst = niah.gen_multi_hop(100, 3, 0, LIB, seed=3)
    hops = inst.correct_path.hops
    broken = dataclasses.replace(
        hops[0],
        clue=niah.render_template(niah.CLUE_TEMPLATE, "next_caption", "no such thing"),
    )
    bad = dataclasses.replace(
        inst,
        correct_path=dataclasses.replace(
            inst.correct_path, hops=(broken,) + hops[1:]
        ),
    )
    report = niah.validate_instance(bad, LIB)
    assert niah.CHECK_CHAIN in report.codes


def test_validate_flags_out_of_range_position():
    inst = niah.gen_single_hop(10, 0.5, needle_for())
    bad_hop = dataclasses.replace(inst.correct_path.hops[0], position=99)
    bad = dataclasses.replace(
        inst,
        correct_path=dataclasses.replace(inst.correct_path, hops=(bad_hop,)),
    )
    report = niah.validate_instance(bad, LIB)
    assert niah.CHECK_POSITIONS in report.codes


def break_correct_flag(inst):
    path = dataclasses.replace(inst.correct_path, is_correct=False)
    return dataclasses.replace(inst, correct_path=path)


def break_distractor_flag(inst):
    path = dataclasses.replace(inst.distractors[0], is_correct=True)
    return dataclasses.replace(inst, distractors=(path,))


def break_start_hint(inst):
    hint = niah.render_template(niah.START_TEMPLATE, "caption", "no such thing")
    return dataclasses.replace(inst, start_hint=hint)


def break_needle(inst):
    # The chain still ends at its last hop, which is no longer the needle.
    first = inst.correct_path.hops[0].item_id
    return dataclasses.replace(inst, ground_truth=(first, inst.ground_truth[1]))


def break_hop_order(inst):
    # The clues still lead h0 -> h1 -> h2; the path now lists h0, h2, h1.
    h0, h1, h2 = inst.correct_path.hops
    path = dataclasses.replace(inst.correct_path, hops=(h0, h2, h1))
    return dataclasses.replace(inst, correct_path=path)


def break_distractor_clue(inst):
    needle = next(item for item in LIB if item.id == inst.ground_truth[0])
    clue = niah.render_template(niah.CLUE_TEMPLATE, "next_caption", needle.caption)
    start, *rest = inst.distractors[0].hops
    hops = (dataclasses.replace(start, clue=clue), *rest)
    path = dataclasses.replace(inst.distractors[0], hops=hops)
    return dataclasses.replace(inst, distractors=(path,))


@pytest.mark.parametrize(
    "breaker, code, message",
    [
        (break_correct_flag, niah.CHECK_STRUCTURE, "correct_path flagged incorrect"),
        (break_distractor_flag, niah.CHECK_STRUCTURE, "distractor flagged correct"),
        (break_start_hint, niah.CHECK_CHAIN, "start hint names unknown caption"),
        (break_needle, niah.CHECK_CHAIN, "not the needle"),
        (break_hop_order, niah.CHECK_CHAIN, "does not follow the correct path's hops"),
        (break_distractor_clue, niah.CHECK_DISTRACTOR, "traversal reaches the needle"),
    ],
    ids=[
        "correct-flag", "distractor-flag", "start-hint", "ends-off-needle", "hop-order",
        "distractor-reach",
    ],
)
def test_validate_flags_each_failure(breaker, code, message):
    inst = niah.gen_multi_hop(100, 3, 1, LIB, seed=5)
    assert niah.validate_instance(inst, LIB).ok
    report = niah.validate_instance(breaker(inst), LIB)
    assert code in report.codes
    assert any(c == code and message in text for c, text in report.failures), report.failures


def test_oracle_never_visits_distractor_hops():
    inst = niah.gen_multi_hop(400, 3, 3, LIB, seed=9)
    distractor_items = {
        h.item_id for path in inst.distractors for h in path.hops
    }
    _, captions = niah._caption_map(inst, LIB)
    start = captions[
        niah.extract_from_template(niah.START_TEMPLATE, "caption", inst.start_hint)
    ]
    visited = niah._traverse(start, inst, captions, niah.CLUE_TEMPLATE)
    assert not distractor_items.intersection(visited)
    assert visited == [h.item_id for h in inst.correct_path.hops]


def test_custom_templates_round_trip():
    texts = niah.Texts(clue_template="Next stop: <<{next_caption}>>",
                       start_template="Begin at <<{caption}>>")
    inst = niah.gen_multi_hop(100, 3, 1, LIB, seed=4, texts=texts)
    report = niah.validate_instance(inst, LIB, texts=texts)
    assert report.ok
    assert niah.oracle_solve(inst, LIB, texts=texts) == inst.ground_truth


# ---------------------------------------------------------------------------
# scoring


def oracle_responses(instances):
    return [
        niah.Response(i.instance_id, *niah.oracle_solve(i, LIB)) for i in instances
    ]


def test_score_all_correct():
    instances = [niah.gen_multi_hop(100, 3, 1, LIB, seed=s) for s in range(10)]
    result = niah.score(instances, oracle_responses(instances))
    assert result.cap == 1.0
    assert result.qa == 1.0


def test_score_correct_needle_wrong_answer():
    instances = [niah.gen_single_hop(10, 0.5, needle_for(), seed=0)]
    responses = [
        niah.Response(instances[0].instance_id, instances[0].ground_truth[0], "wrong")
    ]
    result = niah.score(instances, responses)
    assert result.cap == 1.0
    assert result.qa == 0.0


def test_score_wrong_needle_right_answer_counts_nothing():
    instances = [niah.gen_single_hop(10, 0.5, needle_for(), seed=0)]
    responses = [
        niah.Response(
            instances[0].instance_id, "item-9999", instances[0].ground_truth[1]
        )
    ]
    result = niah.score(instances, responses)
    assert result.cap == 0.0
    assert result.qa == 0.0


def test_score_normalizes_answers():
    inst = niah.gen_single_hop(10, 0.5, needle_for(), seed=0)
    messy = "  " + inst.ground_truth[1].upper() + "!?  "
    result = niah.score(
        [inst], [niah.Response(inst.instance_id, inst.ground_truth[0], messy)]
    )
    assert result.qa == 1.0


def test_score_requires_matching_responses():
    inst = niah.gen_single_hop(10, 0.5, needle_for(), seed=0)
    with pytest.raises(DomainError):
        niah.score([inst], [])
    with pytest.raises(DomainError):
        niah.score([inst], [niah.Response("nope", "a", "b")])


def test_qa_never_exceeds_cap():
    rng = random.Random(0)
    instances = [niah.gen_multi_hop(100, 2, 1, LIB, seed=s) for s in range(50)]
    responses = [
        niah.Response(
            i.instance_id,
            rng.choice(LIB).id,
            rng.choice(LIB).answer,
        )
        for i in instances
    ]
    result = niah.score(instances, responses)
    assert result.qa <= result.cap


def test_normalize_answer():
    assert niah.normalize_answer("  The RED Kite! ") == "the red kite"
    assert niah.normalize_answer("a,b;c") == "abc"


# ---------------------------------------------------------------------------
# heatmap


def test_heatmap_grid_shape_and_positions():
    cells = niah.heatmap_grid([100], [0.0, 0.5, 1.0], LIB, seed=0)
    assert len(cells) == 3
    positions = {c.instance.correct_path.hops[0].position for c in cells}
    assert positions == {0, 50, 99}
    nine = niah.heatmap_grid([10, 20, 30], [0.1, 0.5, 0.9], LIB, seed=0)
    assert len(nine) == 9
    assert len({c.instance.instance_id for c in nine}) == 9


def test_heatmap_oracle_scores_all_ones():
    cells = niah.heatmap_grid([50, 60], [0.0, 1.0], LIB, seed=1)
    responses = oracle_responses([c.instance for c in cells])
    rows = niah.heatmap_scores(cells, responses)
    assert [acc for _, _, acc in rows] == [1.0] * 4


def test_heatmap_missing_response_rejected():
    cells = niah.heatmap_grid([50], [0.5], LIB, seed=1)
    with pytest.raises(DomainError):
        niah.heatmap_scores(cells, [])


# ---------------------------------------------------------------------------
# library

def test_synth_library_distinct():
    ids = [i.id for i in LIB]
    captions = [i.caption for i in LIB]
    assert len(set(ids)) == len(LIB)
    assert len(set(captions)) == len(LIB)


def test_library_round_trip(tmp_path):
    path = tmp_path / "lib.json"
    io.write_output(path, [niah.dump_library(LIB[:7]).encode()])
    again = niah.load_library(path)
    assert again == LIB[:7]


def test_library_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "lib.json"
    items = [LIB[0], LIB[0]]
    io.write_output(path, [niah.dump_library(items).encode()])
    with pytest.raises(DomainError):
        niah.load_library(path)


@pytest.mark.parametrize(
    "raw, message",
    [
        ([{"id": "a"}], "item 0 lacks key 'caption'"),
        ([1, 2], "item 0 must be a JSON object, got int"),
        ([{"id": 1, "caption": "c", "question": "q", "answer": "a"}],
         "item 0 key 'id' must be a string, got int"),
        ([LIB[0].__dict__, {"id": "a", "caption": "", "question": "q", "answer": "a"}],
         "item 1 key 'caption' must be non-empty"),
    ],
    ids=["missing-field", "not-an-object", "non-string-field", "empty-field"],
)
def test_library_rejects_malformed_items(tmp_path, raw, message):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(DomainError, match=f"^{re.escape(f'{path} {message}')}$"):
        niah.load_library(path)


@pytest.mark.parametrize(
    "raw, message",
    [
        ({}, "item library must be a non-empty JSON array"),
        ([], "item library must be a non-empty JSON array"),
        ([LIB[0].__dict__, LIB[0].__dict__], "item library contains duplicate ids"),
    ],
    ids=["object", "empty", "duplicate-ids"],
)
def test_library_file_errors_name_the_file(tmp_path, raw, message):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(DomainError, match=f"^{re.escape(f'{path}: {message}')}$"):
        niah.load_library(path)
