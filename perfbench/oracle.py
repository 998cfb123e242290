"""The benchmark's own fusion arithmetic, independent of the library.

Everything here re-derives products from the fusion rule by trying every
cut, so a broken library cannot vouch for itself: sweep certificates are
replayed with `certificate_word`, and the replay workload's documents are
built and corrupted with `synth_documents`, whose expected verdicts come
from construction and are checked against `product` as they are made.
"""

from __future__ import annotations

import random

_SWAP = {ord("0"): "1", ord("1"): "0"}


def dual(w: str) -> str:
    """Reverse the word and swap 0 and 1."""
    return w[::-1].translate(_SWAP)


def product(x: str, y: str) -> dict[str, int]:
    """r_x r_y by brute force: one term x[:-k] + y[k:] for every cut k whose
    length-k suffix of x is dual to the length-k prefix of y."""
    dx = dual(x)
    out: dict[str, int] = {}
    for k in range(min(len(x), len(y)) + 1):
        if dx[:k] == y[:k]:
            t = x[: len(x) - k] + y[k:]
            out[t] = out.get(t, 0) + 1
    return out


def conjugate(y: str, x: str) -> dict[str, int]:
    """The element r_y r_x r_dual(y), expanded term by term."""
    out: dict[str, int] = {}
    dy = dual(y)
    for t, m in product(y, x).items():
        for u, n in product(t, dy).items():
            out[u] = out.get(u, 0) + m * n
    return out


def _word(text: str) -> str:
    return "" if text == "e" else text


def _text(w: str) -> str:
    return w if w else "e"


def certificate_word(node: dict, gens: set[str]) -> str | None:
    """Replay a certificate document (the library's JSON node format)
    against `product` only, with an explicit stack so depth is unbounded.
    Returns the derived word, or None if any node fails."""
    words: dict[int, str] = {}
    stack = [(node, False)]
    while stack:
        n, expanded = stack.pop()
        kind = n.get("kind") if isinstance(n, dict) else None
        if not expanded and kind in ("prod", "ad"):
            stack.append((n, True))
            if kind == "prod":
                stack += [(n["right"], False), (n["left"], False)]
            else:
                stack.append((n["inner"], False))
            continue
        if kind == "unit":
            w = ""
        elif kind == "gen":
            w = _word(n["word"])
            if w not in gens:
                return None
        elif kind == "prod":
            w = _word(n["term"])
            if w not in product(words[id(n["left"])], words[id(n["right"])]):
                return None
        elif kind == "ad":
            w = _word(n["result"])
            inner = words[id(n["inner"])]
            if conjugate(_word(n["conjugator"]), inner) != {w: 1}:
                return None
        else:
            return None
        words[id(n)] = w
    return words[id(node)]


# --------------------------------------------------------------------------
# synthetic certificate documents

ROOT_LEN = (16, 40)  # length of the derived word at the root
NODES = (50, 200)  # node budget per document
GLUE_LEN = 4  # longest word cancelled by one product node
P_AD = 0.5  # chance of an ad node wherever the word has the shape y x y*


def _random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _ad_splits(w: str) -> list[tuple[str, str]]:
    """Every (y, x) with w = y + x + dual(y) and r_y r_x r_dual(y) = r_w."""
    out = []
    for j in range(1, (len(w) - 1) // 2 + 1):
        y = w[:j]
        x = w[j : len(w) - j]
        if w.endswith(dual(y)) and conjugate(y, x) == {w: 1}:
            out.append((y, x))
    return out


class _Builder:
    """Derives one word top down: a product node splits w = a + b and
    derives a + g and dual(g) + b, so w is the cut-|g| term; an ad node
    peels w = y + x + dual(y).  Leaves become the document's generators."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.gens: set[str] = set()
        self.nodes: list[dict] = []

    def derive(self, w: str, budget: int) -> dict:
        rng = self.rng
        if not w:
            node: dict = {"kind": "unit"}
        elif budget <= 2:
            self.gens.add(w)
            node = {"kind": "gen", "word": w}
        else:
            splits = _ad_splits(w) if rng.random() < P_AD else []
            if splits:
                y, x = rng.choice(splits)
                node = {
                    "kind": "ad",
                    "conjugator": _text(y),
                    "inner": self.derive(x, budget - 1),
                    "result": _text(w),
                }
            else:
                node = self._product(w, budget)
        self.nodes.append(node)
        return node

    def _product(self, w: str, budget: int) -> dict:
        rng = self.rng
        i = rng.randint(0, len(w))
        a, b = w[:i], w[i:]
        g = _random_word(rng, rng.randint(0, GLUE_LEN))
        if a and rng.random() < 0.5:
            # Close the left factor into the shape y x y*, so that ad nodes
            # occur below the root too.
            g += dual(a[: rng.randint(1, min(3, len(a)))])
        x, y = a + g, dual(g) + b
        if w not in product(x, y):
            raise AssertionError(f"synthesis: {w} not in {x} * {y}")
        left = rng.randint(1, budget - 2)
        return {
            "kind": "prod",
            "left": self.derive(x, left),
            "right": self.derive(y, budget - 1 - left),
            "term": _text(w),
        }


def _corrupt(rng: random.Random, nodes: list[dict], gens: set[str]) -> None:
    """Change one node so that it alone fails: its children stay valid.

    One inserted symbol flips the parity of the word's length, and every
    term of r_x r_y has the parity of |x| + |y|, so a corrupted product or
    ad result can never be right; a leaf grows until it is no generator."""
    node = rng.choice([n for n in nodes if n["kind"] != "unit"])
    key = {"gen": "word", "prod": "term", "ad": "result"}[node["kind"]]
    w = _word(node[key])
    i = rng.randrange(len(w) + 1)
    bad = w[:i] + rng.choice("01") + w[i:]
    while node["kind"] == "gen" and bad in gens:
        bad += rng.choice("01")
    if node["kind"] == "prod" and bad in product(
        _derived(node["left"]), _derived(node["right"])
    ):
        raise AssertionError(f"synthesis: corrupted term {bad} is valid")
    node[key] = _text(bad)


def _derived(node: dict) -> str:
    kind = node["kind"]
    if kind == "unit":
        return ""
    return _word(node[{"gen": "word", "prod": "term", "ad": "result"}[kind]])


def synth_documents(seed: int, count: int, corrupt_every: int):
    """`count` certificate documents in the `verify-cert` file format and
    the verdict each must get: every `corrupt_every`-th one is corrupted in
    one node.  The same seed gives the same documents."""
    rng = random.Random(seed)
    docs, expected = [], []
    for i in range(count):
        b = _Builder(rng)
        root = _random_word(rng, rng.randint(*ROOT_LEN))
        cert = b.derive(root, rng.randint(*NODES))
        valid = i % corrupt_every != corrupt_every - 1
        if not valid:
            _corrupt(rng, b.nodes, b.gens)
        docs.append(
            {"generators": sorted(_text(g) for g in b.gens), "certificate": cert}
        )
        expected.append(valid)
    return docs, expected


# --------------------------------------------------------------------------
# the reference pass


def reference_pass() -> int:
    """A fixed saturation written with `product`: the closure of
    {01, 0011, 1100} up to length 10, with every product memoised.

    It does the kind of work the library does (string cuts, a large memo
    dict, a member set) and shares no code with it.  run.py times it next
    to every measured pass to gauge the machine's speed at that moment.
    Changing it changes every normalised time, so it stays as it is."""
    members = ["", "01", "0011", "1100"]
    seen = set(members)
    memo: dict[tuple[str, str], tuple[str, ...]] = {}
    i = 0
    while i < len(members):
        m = members[i]
        for o in members[: i + 1]:
            for x, y in ((m, o), (o, m)):
                terms = memo.get((x, y))
                if terms is None:
                    terms = memo[(x, y)] = tuple(product(x, y))
                for t in terms:
                    if len(t) <= 10 and t not in seen:
                        seen.add(t)
                        members.append(t)
        i += 1
    return len(members)
