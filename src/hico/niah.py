"""Needle-in-a-video-haystack instance generation, validation, and scoring.

A haystack is an abstract sequence of frame slots. A reasoning path is a
chain of hops: each hop occupies one slot, carries one library item, and its
clue text names the next hop's item by caption. The correct path ends at the
needle; distractor paths are built the same way from disjoint items and end
at decoys. A responder must follow the clue chain from the start hint to the
needle (scored as CAP) and answer the needle's question (scored as QA; QA
also requires the needle to be found, so QA <= CAP always).

Library items, instances, and responses all have JSON representations with
fixed key order, so serialization is byte-deterministic per seed; the dump_*
functions give their text, and io.write_output writes it.
One `Texts` value holds the templates and question that instances are
written with, and that validation and the oracle read them back through.
"""
from __future__ import annotations

import json
import math
import os
import random
import string
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .errors import CapacityError, DomainError, FileFormatError

CLUE_TEMPLATE = "The clue in this image points to the item titled '{next_caption}'."
START_TEMPLATE = "The reasoning path starts at the item titled '{caption}'."
Q1_TEXT = "Following the textual clues from the starting image, which item is the needle?"


class Texts(NamedTuple):
    """Each hop's clue, naming the next hop's caption; the start hint, naming
    the first caption; and the needle question."""

    clue_template: str = CLUE_TEMPLATE
    start_template: str = START_TEMPLATE
    q1_text: str = Q1_TEXT


# Most bytes of a text input; far below errors.BYTES_CAP (1 GiB), so a stream
# without end, such as /dev/zero, is refused before it fills memory.
TEXT_CAP = 64 << 20

CHECK_POSITIONS = "positions"
CHECK_CHAIN = "chain"
CHECK_DECOY = "decoy"
CHECK_DISTRACTOR = "distractor-reach"
CHECK_STRUCTURE = "structure"


@dataclass(frozen=True)
class NeedleItem:
    id: str
    caption: str
    question: str
    answer: str

    def __post_init__(self) -> None:
        if not (self.id and self.caption and self.question and self.answer):
            raise DomainError("needle item fields must be non-empty")


@dataclass(frozen=True)
class Hop:
    """One slot of a reasoning path; clue is None on the terminal hop."""

    item_id: str
    position: int
    clue: str | None


# Each JSON record's (key, JSON type) pairs, in field and file order; its
# writer and its reader both read the list.
_ITEM_KEYS = (("id", str), ("caption", str), ("question", str), ("answer", str))
_HOP_KEYS = (("item_id", str), ("position", int), ("clue", (str, type(None))))


@dataclass(frozen=True)
class ReasoningPath:
    hops: tuple[Hop, ...]
    is_correct: bool

    def __post_init__(self) -> None:
        if not self.hops:
            raise DomainError("a reasoning path needs at least one hop")


@dataclass(frozen=True)
class NiahInstance:
    seed: int
    haystack_len: int
    correct_path: ReasoningPath
    distractors: tuple[ReasoningPath, ...]
    start_hint: str
    q1: str
    q2: str
    ground_truth: tuple[str, str]

    @property
    def instance_id(self) -> str:
        h = len(self.correct_path.hops)
        if h == 1 and not self.distractors:
            pos = self.correct_path.hops[0].position
            return f"sh-L{self.haystack_len}-p{pos}-s{self.seed}"
        return f"mh-L{self.haystack_len}-h{h}-x{len(self.distractors)}-s{self.seed}"

    def all_hops(self) -> list[Hop]:
        hops = list(self.correct_path.hops)
        for path in self.distractors:
            hops.extend(path.hops)
        return hops


@dataclass(frozen=True)
class Response:
    instance_id: str
    needle_id: str
    answer: str


_RESPONSE_KEYS = (("instance_id", str), ("needle_id", str), ("answer", str))


@dataclass(frozen=True)
class Score:
    cap: float
    qa: float


@dataclass
class ValidationReport:
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def codes(self) -> list[str]:
        return [code for code, _ in self.failures]


# ---------------------------------------------------------------------------
# library


def load_library(path: str | os.PathLike) -> list[NeedleItem]:
    raw = _parse_json(read_text(path), path)
    if not (isinstance(raw, list) and raw):
        raise DomainError(f"{path}: item library must be a non-empty JSON array")
    items = []
    for i, e in enumerate(raw):
        where = f"{path} item {i}"
        fields = [_field(e, key, kind, where) for key, kind in _ITEM_KEYS]
        if "" in fields:
            raise DomainError(f"{where} key {_ITEM_KEYS[fields.index('')][0]!r} must be non-empty")
        items.append(NeedleItem(*fields))
    ids = [i.id for i in items]
    if len(set(ids)) != len(ids):
        raise DomainError(f"{path}: item library contains duplicate ids")
    return items


def dump_library(items: list[NeedleItem]) -> str:
    return json.dumps([_record(item, _ITEM_KEYS) for item in items], indent=2) + "\n"


_COLORS = (
    "red", "blue", "green", "yellow", "purple", "orange", "teal", "silver",
    "crimson", "amber", "violet", "indigo", "olive", "maroon", "coral", "navy",
)
_OBJECTS = (
    "kite", "lantern", "bicycle", "umbrella", "suitcase", "telescope",
    "accordion", "canoe", "ladder", "teapot", "compass", "typewriter",
    "wheelbarrow", "hammock", "banjo", "kettle",
)
_PLACES = (
    "harbor", "orchard", "rooftop", "meadow", "lighthouse", "station",
    "fountain", "workshop", "gallery", "cliff", "market", "greenhouse",
    "pier", "courtyard", "windmill", "observatory",
)


def synth_library(size: int, seed: int = 0) -> list[NeedleItem]:
    """Deterministic caption/QA library with pairwise-distinct captions."""
    limit = len(_COLORS) * len(_OBJECTS) * len(_PLACES)
    if not (1 <= size <= limit):
        raise CapacityError(f"library size must be in [1, {limit}]")
    rng = random.Random(seed)
    triples = rng.sample(range(limit), size)
    items = []
    for i, t in enumerate(triples):
        color = _COLORS[t % len(_COLORS)]
        obj = _OBJECTS[(t // len(_COLORS)) % len(_OBJECTS)]
        place = _PLACES[t // (len(_COLORS) * len(_OBJECTS))]
        items.append(
            NeedleItem(
                id=f"item-{i:04d}",
                caption=f"a {color} {obj} near the {place}",
                question=f"What color is the {obj} near the {place}?",
                answer=color,
            )
        )
    return items


# ---------------------------------------------------------------------------
# templates


def render_template(template: str, placeholder: str, value: str) -> str:
    return template.replace("{" + placeholder + "}", value)


def extract_from_template(template: str, placeholder: str, rendered: str) -> str:
    """Invert render_template, recovering the placeholder value."""
    marker = "{" + placeholder + "}"
    if template.count(marker) != 1:
        raise DomainError(f"template must contain {marker} exactly once")
    prefix, suffix = template.split(marker)
    if not rendered.startswith(prefix) or not rendered.endswith(suffix):
        raise DomainError(f"text does not match template: {rendered!r}")
    end = len(rendered) - len(suffix)
    if end < len(prefix):
        raise DomainError(f"text does not match template: {rendered!r}")
    return rendered[len(prefix) : end]


# ---------------------------------------------------------------------------
# generation


def _instance(
    seed: int,
    haystack_len: int,
    paths: list[tuple[list[NeedleItem], list[int]]],
    texts: Texts,
) -> NiahInstance:
    """The instance whose reasoning paths hold these (items, positions), the
    first path the correct one; each hop's clue names the next hop's caption."""
    built = []
    for n, (items, positions) in enumerate(paths):
        hops = [
            Hop(item.id, pos, render_template(texts.clue_template, "next_caption", nxt.caption))
            for item, nxt, pos in zip(items, items[1:], positions)
        ]
        hops.append(Hop(items[-1].id, positions[-1], None))
        built.append(ReasoningPath(hops=tuple(hops), is_correct=n == 0))
    start, needle = paths[0][0][0], paths[0][0][-1]
    return NiahInstance(
        seed=seed,
        haystack_len=haystack_len,
        correct_path=built[0],
        distractors=tuple(built[1:]),
        start_hint=render_template(texts.start_template, "caption", start.caption),
        q1=texts.q1_text,
        q2=needle.question,
        ground_truth=(needle.id, needle.answer),
    )


def _check_haystack_len(haystack_len: int) -> None:
    if haystack_len < 1:
        raise DomainError("haystack_len must be >= 1")
    # Positions are drawn from a range and computed in floats: a length fits a C ssize_t.
    if haystack_len > sys.maxsize:
        raise DomainError(f"haystack_len must be <= {sys.maxsize}")


def gen_single_hop(
    haystack_len: int,
    depth: float,
    needle: NeedleItem,
    seed: int = 0,
    *,
    texts: Texts = Texts(),
) -> NiahInstance:
    """One needle at relative depth in [0, 1], no clue chain, no distractors."""
    _check_haystack_len(haystack_len)
    if not (0.0 <= depth <= 1.0):
        raise DomainError("depth must be in [0, 1]")
    position = math.floor(depth * (haystack_len - 1) + 0.5)
    return _instance(seed, haystack_len, [([needle], [position])], texts)


def gen_single_hops(
    cells: Iterable[tuple[int, float]], library: list[NeedleItem], seed: int = 0,
    texts: Texts = Texts(),
) -> Iterator[NiahInstance]:
    """A single-hop instance per (length, depth) cell, made when asked for: one
    Random(seed) draws every needle, and cell i's instance is seeded seed + i."""
    if not library:
        raise DomainError("library must be non-empty")
    rng = random.Random(seed)
    for i, (length, depth) in enumerate(cells):
        needle = library[rng.randrange(len(library))]
        yield gen_single_hop(length, depth, needle, seed + i, texts=texts)


class LibraryTooSmall(CapacityError):
    """A library holds fewer items with unique captions than an instance needs."""


def _unique_caption_pool(library: list[NeedleItem]) -> list[NeedleItem]:
    counts: dict[str, int] = {}
    for item in library:
        counts[item.caption] = counts.get(item.caption, 0) + 1
    return [item for item in library if counts[item.caption] == 1]


def gen_multi_hop(
    haystack_len: int,
    hops: int,
    distractor_count: int,
    library: list[NeedleItem],
    seed: int = 0,
    *,
    ordered: bool = False,
    texts: Texts = Texts(),
) -> NiahInstance:
    """Seeded multi-hop instance with `distractor_count` decoy paths.

    Items (from the library's unique-caption pool) and positions are sampled
    without replacement, so every hop slot is globally distinct and no two
    paths share an item. With ordered=True each path's hop positions ascend.
    """
    _check_haystack_len(haystack_len)
    if hops < 1:
        raise DomainError("hops must be >= 1")
    if distractor_count < 0:
        raise DomainError("distractor_count must be >= 0")
    needed = hops * (1 + distractor_count)
    pool = _unique_caption_pool(library)
    if len(pool) < needed:
        raise LibraryTooSmall(
            f"library has {len(pool)} usable items, instance needs {needed}"
        )
    if haystack_len < needed:
        raise CapacityError(
            f"haystack of {haystack_len} cannot host {needed} hop positions"
        )
    rng = random.Random(seed)
    items = rng.sample(pool, needed)
    positions = rng.sample(range(haystack_len), needed)
    paths = []
    for lo in range(0, needed, hops):
        ps = positions[lo : lo + hops]
        paths.append((items[lo : lo + hops], sorted(ps) if ordered else ps))
    return _instance(seed, haystack_len, paths, texts)


# ---------------------------------------------------------------------------
# traversal, validation, oracle


def _caption_map(
    instance: NiahInstance, library: list[NeedleItem]
) -> tuple[dict[str, NeedleItem], dict[str, str]]:
    """Map instance item ids to items and instance captions to item ids."""
    by_id = {item.id: item for item in library}
    captions: dict[str, str] = {}
    for hop in instance.all_hops():
        item = by_id.get(hop.item_id)
        if item is None:
            raise DomainError(f"instance references unknown item {hop.item_id!r}")
        if item.caption in captions and captions[item.caption] != item.id:
            raise DomainError(f"ambiguous caption {item.caption!r} in instance")
        captions[item.caption] = item.id
    return by_id, captions


def _traverse(
    start_item_id: str,
    instance: NiahInstance,
    captions: dict[str, str],
    clue_template: str,
) -> list[str]:
    """Follow clues hop to hop; returns visited item ids, terminal last."""
    hops_by_item = {hop.item_id: hop for hop in instance.all_hops()}
    visited: list[str] = []
    current = start_item_id
    while True:
        if current in visited:
            raise DomainError(f"clue chain cycles at item {current!r}")
        visited.append(current)
        hop = hops_by_item.get(current)
        if hop is None:
            raise DomainError(f"no hop carries item {current!r}")
        if hop.clue is None:
            return visited
        caption = extract_from_template(clue_template, "next_caption", hop.clue)
        nxt = captions.get(caption)
        if nxt is None:
            raise DomainError(f"clue names unknown caption {caption!r}")
        current = nxt


def validate_instance(
    instance: NiahInstance,
    library: list[NeedleItem],
    *,
    texts: Texts = Texts(),
) -> ValidationReport:
    """Check an instance is solvable and its distractors are safe.

    (positions)        every hop position unique and inside the haystack
    (chain)            the correct clue chain runs start hint -> ground truth
    (decoy)            no distractor terminal is the needle
    (distractor-reach) traversal from any distractor start misses the needle
    (structure)        ids resolvable, captions unambiguous, paths well formed
    """
    report = ValidationReport()
    needle_id = instance.ground_truth[0]

    all_hops = instance.all_hops()
    positions = [h.position for h in all_hops]
    if len(set(positions)) != len(positions):
        report.failures.append((CHECK_POSITIONS, "duplicate hop positions"))
    bad = [p for p in positions if not (0 <= p < instance.haystack_len)]
    if bad:
        report.failures.append((CHECK_POSITIONS, f"positions out of range: {bad}"))

    if not instance.correct_path.is_correct:
        report.failures.append((CHECK_STRUCTURE, "correct_path flagged incorrect"))
    for path in instance.distractors:
        if path.is_correct:
            report.failures.append((CHECK_STRUCTURE, "distractor flagged correct"))

    try:
        _, captions = _caption_map(instance, library)
        start_caption = extract_from_template(texts.start_template, "caption", instance.start_hint)
        start_id = captions.get(start_caption)
        if start_id is None:
            report.failures.append(
                (CHECK_CHAIN, f"start hint names unknown caption {start_caption!r}")
            )
        else:
            visited = _traverse(start_id, instance, captions, texts.clue_template)
            if visited[-1] != needle_id:
                report.failures.append(
                    (CHECK_CHAIN, f"correct chain ends at {visited[-1]!r}, not the needle")
                )
            chain_items = [h.item_id for h in instance.correct_path.hops]
            if visited != chain_items:
                report.failures.append(
                    (CHECK_CHAIN, "clue chain does not follow the correct path's hops")
                )
    except DomainError as exc:
        report.failures.append((CHECK_CHAIN, str(exc)))
        captions = None

    for i, path in enumerate(instance.distractors):
        if path.hops[-1].item_id == needle_id:
            report.failures.append(
                (CHECK_DECOY, f"distractor {i} terminates at the needle")
            )
        if captions is None:
            continue
        try:
            visited = _traverse(path.hops[0].item_id, instance, captions, texts.clue_template)
        except DomainError as exc:
            report.failures.append((CHECK_DISTRACTOR, f"distractor {i}: {exc}"))
            continue
        if needle_id in visited:
            report.failures.append(
                (CHECK_DISTRACTOR, f"distractor {i} traversal reaches the needle")
            )
    return report


def oracle_solve(
    instance: NiahInstance,
    library: list[NeedleItem],
    *,
    texts: Texts = Texts(),
) -> tuple[str, str]:
    """Perfect-perception reference solver: follow the clues, answer from the library."""
    by_id, captions = _caption_map(instance, library)
    start_caption = extract_from_template(texts.start_template, "caption", instance.start_hint)
    start_id = captions.get(start_caption)
    if start_id is None:
        raise DomainError(f"start hint names unknown caption {start_caption!r}")
    visited = _traverse(start_id, instance, captions, texts.clue_template)
    terminal = visited[-1]
    return terminal, by_id[terminal].answer


# ---------------------------------------------------------------------------
# scoring

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Case-fold, trim, strip punctuation, collapse whitespace."""
    return " ".join(text.casefold().translate(_PUNCT_TABLE).split())


def score(instances: list[NiahInstance], responses: list[Response]) -> Score:
    """CAP = fraction with the right needle; QA additionally needs the answer."""
    if not instances:
        raise DomainError("need at least one instance to score")
    by_id = {inst.instance_id: inst for inst in instances}
    if len(by_id) != len(instances):
        raise DomainError("instances contain duplicate ids")
    seen = [r.instance_id for r in responses]
    if sorted(seen) != sorted(by_id):
        raise DomainError("responses must cover each instance exactly once")
    cap_hits = 0
    qa_hits = 0
    for resp in responses:
        needle_id, answer = by_id[resp.instance_id].ground_truth
        if resp.needle_id == needle_id:
            cap_hits += 1
            if normalize_answer(resp.answer) == normalize_answer(answer):
                qa_hits += 1
    n = len(instances)
    return Score(cap=cap_hits / n, qa=qa_hits / n)


# ---------------------------------------------------------------------------
# heatmap grid


@dataclass(frozen=True)
class HeatmapCell:
    length: int
    depth: float
    instance: NiahInstance


def heatmap_grid(
    lengths: list[int],
    depths: list[float],
    library: list[NeedleItem],
    seed: int = 0,
    *,
    texts: Texts = Texts(),
) -> list[HeatmapCell]:
    """One single-hop instance per (length, depth) cell, row-major order."""
    if not lengths or not depths:
        raise DomainError("lengths and depths must be non-empty")
    cells = [(length, depth) for length in lengths for depth in depths]
    instances = gen_single_hops(cells, library, seed, texts)
    return [HeatmapCell(*cell, instance) for cell, instance in zip(cells, instances)]


def heatmap_scores(
    cells: list[HeatmapCell], responses: list[Response]
) -> list[tuple[int, float, float]]:
    """Join responses onto grid cells, yielding (length, depth, accuracy) rows."""
    by_id: dict[str, list[Response]] = {}
    for r in responses:
        by_id.setdefault(r.instance_id, []).append(r)
    rows = []
    for cell in cells:
        got = by_id.get(cell.instance.instance_id)
        if not got:
            raise DomainError(f"no response for instance {cell.instance.instance_id}")
        hits = sum(1 for r in got if r.needle_id == cell.instance.ground_truth[0])
        rows.append((cell.length, cell.depth, hits / len(got)))
    return rows


# ---------------------------------------------------------------------------
# serialization


def _record(obj: object, keys: tuple) -> dict:
    """The JSON object of `obj`'s fields named in `keys`, in their order."""
    return {key: getattr(obj, key) for key, _ in keys}


def instance_to_dict(instance: NiahInstance) -> dict:
    def path_dict(path: ReasoningPath) -> dict:
        return {
            "hops": [_record(h, _HOP_KEYS) for h in path.hops],
            "is_correct": path.is_correct,
        }

    return {
        "seed": instance.seed,
        "haystack_len": instance.haystack_len,
        "correct_path": path_dict(instance.correct_path),
        "distractors": [path_dict(p) for p in instance.distractors],
        "start_hint": instance.start_hint,
        "q1": instance.q1,
        "q2": instance.q2,
        "ground_truth": list(instance.ground_truth),
    }


def read_text(path: str | os.PathLike) -> str:
    """The UTF-8 text of a library, instance, responses, grid or config file, with
    universal newlines. Reads at most TEXT_CAP + 1 bytes; a longer input is refused."""
    data, cap = bytearray(), TEXT_CAP
    with open(path, "rb") as f:
        while len(data) <= cap and (part := f.read(min(1 << 20, cap + 1 - len(data)))):
            data += part
    if len(data) > cap:
        raise DomainError(f"{path}: file is over the {cap}-byte cap")
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _parse_json(text: str, where: str | os.PathLike):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise FileFormatError(f"{where}: {exc}") from None


_JSON_NAMES = {
    int: "an integer", str: "a string", bool: "true or false", list: "a list",
    dict: "an object", type(None): "null",
}


def _field(d: object, key: str, kind: type | tuple[type, ...], where: str):
    """d[key] when d is a JSON object holding a `kind` there; DomainError otherwise."""
    if not isinstance(d, dict):
        raise DomainError(f"{where} must be a JSON object, got {type(d).__name__}")
    if key not in d:
        raise DomainError(f"{where} lacks key {key!r}")
    value = d[key]
    # JSON true/false must not pass for an integer.
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        expected = " or ".join(_JSON_NAMES[k] for k in kinds)
        raise DomainError(f"{where} key {key!r} must be {expected}, got {type(value).__name__}")
    return value


def instance_from_dict(raw: dict, where: str = "instance") -> NiahInstance:
    """Inverse of instance_to_dict; DomainError on a missing key or a wrong type,
    its message starting with `where`."""

    def path_from(d: object, at_path: str) -> ReasoningPath:
        raw_hops = _field(d, "hops", list, at_path)
        if not raw_hops:
            raise DomainError(f"{at_path} key 'hops' must be non-empty")
        hops = []
        for i, h in enumerate(raw_hops):
            at = f"{at_path} hop {i}"
            hops.append(Hop(*[_field(h, key, kind, at) for key, kind in _HOP_KEYS]))
        return ReasoningPath(hops=tuple(hops), is_correct=_field(d, "is_correct", bool, at_path))

    gt = _field(raw, "ground_truth", list, where)
    if len(gt) != 2 or not all(isinstance(x, str) for x in gt):
        raise DomainError(f"{where} key 'ground_truth' must be [needle id, answer] strings")
    distractors = _field(raw, "distractors", list, where)
    return NiahInstance(
        seed=_field(raw, "seed", int, where),
        haystack_len=_field(raw, "haystack_len", int, where),
        correct_path=path_from(_field(raw, "correct_path", dict, where), f"{where} correct path"),
        distractors=tuple(
            path_from(p, f"{where} distractor {i}") for i, p in enumerate(distractors)
        ),
        start_hint=_field(raw, "start_hint", str, where),
        q1=_field(raw, "q1", str, where),
        q2=_field(raw, "q2", str, where),
        ground_truth=(gt[0], gt[1]),
    )


def dump_instance(instance: NiahInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def load_instance(path: str | os.PathLike) -> NiahInstance:
    return instance_from_dict(_parse_json(read_text(path), path), str(path))


def load_responses(path: str | os.PathLike) -> list[Response]:
    responses = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        raw = _parse_json(line, where)
        responses.append(Response(*[_field(raw, key, kind, where) for key, kind in _RESPONSE_KEYS]))
    return responses


def dump_responses(responses: list[Response]) -> str:
    return "".join(json.dumps(_record(r, _RESPONSE_KEYS)) + "\n" for r in responses)
