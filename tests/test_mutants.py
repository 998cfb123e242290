"""The mutation gate: each mutant is one library function with one small
edit, installed by monkeypatch, paired with the narrowest oracle check that
must reject it.  Every case asserts that the check passes on the real code
and fails under the mutant.

A mutant is compiled from its function's source with each edit applied
exactly once, and bound to its module's live globals, so a check that
monkeypatches a module global sees the mutant's calls too.  A change that
moves the edited text away fails here loudly, rather than leaving a mutant
that is the real code.  Add the hand mutations of each later
change here.
"""

import hashlib
import inspect
import io
import sys
import textwrap
import types
from contextlib import redirect_stdout
from functools import partial

import pytest

from freefusion import cli, closure, fusion, normality, words
from freefusion.cli import run
from freefusion.normality import Ambient

import test_cli
import test_closure
import test_fusion
import test_normality
import test_values
import test_words
from helpers import bench_oracle
from test_normality import small_cfg


def _edited(func, *edits):
    """func compiled from its source with each (old, new) edit applied, in
    a copy of its module's namespace, then bound to the module's live
    globals with the compiled defaults and closure."""
    src = textwrap.dedent(inspect.getsource(func))
    for old, new in edits:
        assert src.count(old) == 1, f"{func.__name__} has no single {old!r}"
        src = src.replace(old, new)
    module = sys.modules[func.__module__]
    namespace = dict(vars(module))
    exec(compile(src, func.__code__.co_filename, "exec"), namespace)
    compiled = namespace[func.__name__]
    mutant = types.FunctionType(compiled.__code__, vars(module), compiled.__name__,
                                compiled.__defaults__, compiled.__closure__)
    mutant.__kwdefaults__ = compiled.__kwdefaults__
    return mutant


def _install(monkeypatch, real, mutant):
    """Bind mutant wherever real is bound: in the library's modules, in
    the test modules that import it by name, and on its class if it is a
    method.  tests/helpers.py keeps the real functions, as its oracles must."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "freefusion" or name.startswith("test_"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, mutant)
    owner, _, method = real.__qualname__.rpartition(".")
    if owner:
        monkeypatch.setattr(getattr(sys.modules[real.__module__], owner), method, mutant)


def _routes():
    # test_route_replays_from_the_seed_and_its_dual on fixed examples: both
    # routes, and a route absent at each of its bounds.
    for kind, seed, work_len, ad_len in [
        ("au", "0", 2, 0), ("au", "1", 1, 0), ("au", "10", 6, 2),
        ("au", "10", 6, 0), ("au", "10", 5, 2), ("pu", "111000", 6, 2),
        ("pu", "0011", 4, 0),
    ]:
        test_normality._assert_route(seed, Ambient.parse(kind), work_len, ad_len)


def _sweeps():
    # test_route_matches_search_check at two small grid points: every seed
    # descends in the circle check, and in au at ad_len 0 the seed 10 never
    # derives 01, so it runs to its fixpoint.
    oracle = bench_oracle()
    for ambient, ad_len in [(None, 2), (Ambient("au"), 0)]:
        cfg = small_cfg(work_len=6, report_len=2, ad_len=ad_len, seed_len=2)
        assert test_normality._assert_route_matches_search(ambient, cfg, oracle)


def _forks():
    # test_warm_closure_matches_cold at the bench's 000111, and the test that
    # two forks leave their root untouched and equal the rebuild.
    with pytest.MonkeyPatch.context() as mp:
        test_normality.test_warm_closure_matches_cold(
            mp, Ambient("pu"), "000111", 10, 8)
    test_normality.test_two_forks_leave_their_root_untouched()


def _closure_pins():
    # test_closure_json_bytes_pinned, every case.
    for argv, prefix in test_cli.CLOSURE_PINS:
        out = io.StringIO()
        with redirect_stdout(out):
            assert run([*argv, "--json"]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:12] == prefix


def _flip_root():
    # test_root_flip_step_reaches_the_flip_free_fixpoint in pu at work_len 10,
    # at the fixpoint and at the targets.
    for stop in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            test_normality.test_root_flip_step_reaches_the_flip_free_fixpoint(
                mp, "pu", 10, stop)


def _graft_cases():
    # test_only_a_search_from_the_root_grafts_10, every case.
    for case in test_normality._GRAFT_CASES:
        test_normality.test_only_a_search_from_the_root_grafts_10(*case)


def _odd_pu_seed_len():
    # test_an_odd_pu_seed_len_one_past_work_len_is_accepted; a refused sweep fails it.
    try:
        test_normality.test_an_odd_pu_seed_len_one_past_work_len_is_accepted()
    except ValueError as exc:
        raise AssertionError(exc) from exc


def _memo():
    with pytest.MonkeyPatch.context() as mp:
        test_normality.test_memo_shares_one_run_per_dual_pair(mp)


def _memo_flip():
    with pytest.MonkeyPatch.context() as mp:
        test_normality.test_memo_files_a_flip_pair_only_after_a_search_in_au_or_pu(mp)


def _record_sharing():
    with pytest.MonkeyPatch.context() as mp:
        test_normality.test_a_record_is_shared_only_with_its_closure(mp)


MUTANTS = [
    pytest.param(
        normality._route,
        [("g[:1] + involute(g)[len(g) - 1:]", "g[:0] + involute(g)[len(g):]")],
        _routes, id="route-at-cut-|g|"),
    pytest.param(
        normality._route,
        [("x = ROOT + top + ROOT", "x = top + top + top"),
         ('("ad", ROOT, top)', '("ad", top, top)')],
        _sweeps, id="route-conjugator-10"),
    pytest.param(
        normality._route,
        [(' and ROOT in by_last["1"]', "")],
        _sweeps, id="route-ad-len-check-dropped"),
    pytest.param(
        closure.Saturator.fork,
        [("{n: {**group} for n, group in by_len.items()}", "by_len")],
        _forks, id="fork-shares-inner-index-dicts"),
    pytest.param(
        closure.Saturator.fork,
        [("sat._closed = len(self.order)", "sat._closed = len(self.order) - 1")],
        _forks, id="fork-resumes-one-word-early"),
    pytest.param(
        closure.Saturator.fork,
        [("sat._closed = len(self.order)", "sat._closed = len(self.order) + 1")],
        _forks, id="fork-resumes-one-word-late"),
    pytest.param(
        normality.ad_closure,
        [("\n                and (stop_targets is None"
          " or stop_targets.issuperset(map(flip, stop_targets)))", "")],
        _memo_flip, id="flip-filed-for-targets-not-flip-closed"),
    pytest.param(
        normality.ad_closure,
        [("if (view.closed_form\n", "if (True\n")],
        _memo_flip, id="flip-filed-in-a-generated-ambient"),
    pytest.param(
        closure.Saturator.lay,
        [("    self.provenance.update(steps)\n", "")],
        test_normality.test_two_forks_leave_their_root_untouched,
        id="lay-without-the-overlay"),
    pytest.param(
        normality.AmbientView.__init__,
        [("CLOSED_FORMS.get(ambient.kind)", 'CLOSED_FORMS.get(ambient.kind, CLOSED_FORMS["au"])')],
        test_normality.test_ambient_views, id="generated-ambient-taken-as-closed-form"),
    pytest.param(
        normality.ad_closure,
        [("_pairs[gens] = stop_targets, result", "_pairs[frozenset(seeds)] = stop_targets, result")],
        _memo, id="memo-filed-under-the-seeds"),
    pytest.param(
        normality.ad_closure,
        [(") != gens):", ")):")],
        _memo_flip, id="flip-filed-over-its-own-generators"),
    pytest.param(
        normality._check,
        [("if own is not made_own:", "if made_own is None:")],
        _record_sharing, id="record-shared-without-its-closure"),
    pytest.param(
        normality._check,
        [('"fail" in statuses', "False")],
        test_normality.test_check_simplicity_full_au_fails_on_unbalanced_targets,
        id="verdict-ignores-failed-seeds"),
    pytest.param(
        normality._check,
        [('records.append({"seed": format_word(seed), **fields})',
          'fields["seed"] = format_word(seed)\n        records.append(fields)')],
        test_normality.test_each_seed_has_a_record_of_its_own,
        id="dual-pair-shares-one-record-dict"),
    pytest.param(
        closure.Saturator._partners,
        [("orbit = (i - 1,) if involute(prev) == prev else (i - 2, i - 1)", "orbit = ()")],
        _flip_root, id="flip-step-member-tests-no-pair-in-its-orbit"),
    pytest.param(
        closure.Saturator._partners,
        [("right = self._side(d)", "right = set()")],
        test_closure.test_one_index_engine_matches_two_index,
        id="partners-without-the-dual-order-query"),
    pytest.param(
        closure.Saturator.add,
        [("(prov[0], *map(flip, prov[1:]))", "prov")],
        _flip_root, id="flip-step-keeps-the-unflipped-step"),
    pytest.param(
        normality.ad_closure,
        [("sat.start_flip(FLIP_GRAFT)", "sat.start_flip(dict(reversed(FLIP_GRAFT.items())))")],
        _flip_root, id="graft-100110-before-10"),
    pytest.param(
        normality.ad_closure,
        [('\n            and (targets is None or not {*targets} <= {"", ROOT, "10"})', "")],
        _graft_cases, id="graft-taken-for-targets-within-it"),
    pytest.param(
        closure.ClosedForm.longest,
        [("else n - n % 2", "else n")],
        _odd_pu_seed_len, id="pu-longest-simple-odd"),
    pytest.param(
        closure._replay,
        [("                if ambient is not None and not ambient.contains(y):\n"
          '                    return None, f"root: {format_word(y)} is not a {ambient.name} simple"\n',
          "")],
        test_closure.test_verify_checks_generators_and_conjugators_against_the_ambient,
        id="replay-skips-the-conjugator-ambient-check"),
    pytest.param(
        closure.ClosureResult.to_json,
        [("len(w) <= self.config.report_len", "len(w) < self.config.report_len")],
        _closure_pins, id="report-cut-strict"),
    pytest.param(
        closure.verify_certificate_detailed,
        [("    return why is None, why\n", "    return True, None\n")],
        test_closure.test_verify_rejects_tampering, id="verifier-always-valid"),
    pytest.param(
        closure._replay,
        [('            lw, why = _replay(cert["left"], gens, replayed, ambient)\n',
          "            replayed is None or replayed.add(id(cert))\n"
          '            lw, why = _replay(cert["left"], gens, replayed, ambient)\n')],
        test_normality.test_shared_node_over_a_bad_step_fails_every_sample_through_it,
        id="replay-marks-a-product-before-its-check"),
    pytest.param(
        closure._replay,
        [('            x, why = _replay(cert["inner"], gens, replayed, ambient)\n',
          "            replayed is None or replayed.add(id(cert))\n"
          '            x, why = _replay(cert["inner"], gens, replayed, ambient)\n')],
        test_normality.test_shared_node_over_a_bad_step_fails_every_sample_through_it,
        id="replay-marks-an-ad-step-before-its-check"),
    pytest.param(
        closure._replay,
        [(f'"" if (t := cert["{key}"]) == "e" else t', f'cert["{key}"]')
         for key in ("term", "word", "conjugator", "result")],
        test_closure.test_verify_reads_e_as_the_unit, id="replay-reads-e-as-a-word"),
    pytest.param(
        words.all_words,
        [('"" not in texts and ', "")],
        partial(test_closure.test_certificate_from_json_raises_the_first_error_in_parse_order,
                *test_closure.FIRST_ERRORS[0]),
        id="parse-without-the-empty-word-test"),
    pytest.param(
        words.all_words,
        [('"".join(texts).translate(_DELETE_01) == "e" * texts.count("e")', "True")],
        partial(test_closure.test_certificate_from_json_raises_the_first_error_in_parse_order,
                *test_closure.FIRST_ERRORS[1]),
        id="parse-without-the-letter-test"),
    pytest.param(
        words.parse_word,
        [('text and not text.strip("01")', 'not text.strip("01e")')],
        test_words.test_parse_word, id="parse-word-takes-e-and-empty-as-words"),
    pytest.param(
        words.check_words,
        [("    if isinstance(ws, str):\n        raise ValueError(", "    if False:\n        raise ValueError(")],
        test_words.test_check_words_refuses_a_bare_str, id="check-words-reads-a-bare-str"),
    pytest.param(
        normality.ad_closure,
        [("    seeds = check_words(seeds)  # read once: seeds may be a one-shot iterator\n", ""),
         ("sorted(seeds, key=shortlex_key)", "sorted(check_words(seeds), key=shortlex_key)")],
        partial(test_normality.test_ad_closure_reads_one_shot_seeds_once, "pu"),
        id="ad-closure-rereads-consumed-seeds"),
    pytest.param(
        closure.Saturator.__init__, [("set(check_words(targets))", "set(targets)")],
        test_closure.test_saturator_refuses_a_bare_str_of_targets,
        id="saturator-reads-a-bare-str-of-targets"),
    pytest.param(
        normality.witness_entries, [("for w in check_words(words):", "for w in words:")],
        test_normality.test_witness_entries_refuses_a_bare_str,
        id="witness-entries-reads-a-bare-str"),
    pytest.param(
        closure.certified_absence, [("    generators = check_words(generators)\n", "")],
        test_closure.test_certified_absence_refuses_a_bare_str_of_generators,
        id="certified-absence-reads-a-bare-str"),
    pytest.param(
        closure.ClosedForm.__contains__, [('not w.strip("01") and ', "")],
        test_closure.test_a_closed_form_holds_only_words,
        id="closed-form-holds-a-non-word"),
    pytest.param(
        closure.ClosedForm.__contains__, [("isinstance(w, str) and ", "")],
        test_closure.test_a_closed_form_holds_only_words, id="closed-form-reads-a-non-string"),
    pytest.param(
        closure.verify_certificate_detailed,
        [("min(map(str, foreign), key=shortlex_key)", "min(foreign, key=shortlex_key)")],
        test_closure.test_a_closed_form_holds_only_words,
        id="verifier-orders-foreign-generators-as-words"),
    pytest.param(
        normality.Ambient.__init__,
        [("frozenset(gens if isinstance(gens, set | frozenset) else ws)", "frozenset(ws)")],
        test_values.test_ambient_keeps_the_order_of_a_set_of_gens,
        id="ambient-rebuilds-a-set-from-its-words"),
    pytest.param(
        closure.witness, [("    check_words([w])\n", "")],
        test_closure.test_witness_refuses_what_is_not_a_word, id="witness-reads-non-words"),
    pytest.param(
        closure._shown,
        [("    if not isinstance(w, str):\n        raise TypeError\n", "")],
        partial(test_closure.test_verify_calls_a_word_that_is_not_a_string_malformed,
                None),
        id="replay-shows-a-word-that-is-not-a-string"),
    pytest.param(
        closure._replay,
        [('                return w, None\n            return None, (f"root: {format_word(y)} * ',
          '                return y, None\n            return None, (f"root: {format_word(y)} * ')],
        test_closure.test_verify_ad_step, id="replay-reads-an-ad-child-from-its-conjugator"),
    pytest.param(
        cli._parse_args,
        [("name = argv[0] if argv else None",
          "name = next((a for a in argv if a in _COMMANDS), None)"),
         ("parse_args(argv[1:],", "parse_args(argv[argv.index(name) + 1:],")],
        partial(test_cli.test_lazy_parser_matches_eager_on_edge_invocations,
                ["--json", "dual", "01"]),
        id="parser-fast-path-for-a-later-subcommand"),
    pytest.param(
        closure.verify_certificate_detailed,
        [("    if isinstance(gens, str):\n        raise ValueError(",
          "    if False:\n        raise ValueError(")],
        test_closure.test_verify_refuses_a_bare_str_of_generators,
        id="verifier-reads-a-bare-str"),
    pytest.param(
        cli._encode,
        [("tuple((k, id(v)) for k, v in fields)", 'id(r["certificates"])')],
        partial(test_cli.test_encode_matches_the_oracle_on_hand_built_documents,
                "only-certificates-shared"),
        id="record-memo-keyed-on-certificates-alone"),
    pytest.param(
        cli._encode,
        [("bodies[key] = _json(dict(fields))[1:]", "bodies[key] = _json(r)[1:]"),
         ("""texts.append(f'{{"seed":{_json(seed)},{bodies[key]}')""",
          'texts.append("{" + bodies[key])')],
        partial(test_cli.test_encode_matches_the_oracle_on_hand_built_documents,
                "every-value-shared"),
        id="record-body-keeps-the-first-seed"),
    pytest.param(
        fusion.has_term,
        [("x.endswith(y[k - 1::-1].translate(FLIP)) and ", "")],
        test_fusion.test_has_term_matches_brute_force_exhaustively,
        id="has-term-without-endswith"),
    pytest.param(
        fusion.mul_simple,
        [("    return out\n", "    return dict(reversed(out.items()))\n")],
        test_fusion.test_mul_simple_matches_old_terms_exhaustively,
        id="mul-simple-reverse-cut-order"),
]


@pytest.mark.parametrize("real, edits, check", MUTANTS)
def test_mutant_fails_its_oracle(monkeypatch, real, edits, check):
    check()
    _install(monkeypatch, real, _edited(real, *edits))
    with pytest.raises(AssertionError):
        check()


def test_a_mutant_calls_monkeypatched_module_globals(monkeypatch):
    # A check that counts a library call by patching its module global,
    # after the mutant is installed, sees the mutant's calls too.
    mutant = _edited(normality.find_invertibles, ('"all", max_len', '"all", max_len - 1'))
    calls = []
    mul_simple = normality.mul_simple
    monkeypatch.setattr(normality, "mul_simple",
                        lambda x, y: calls.append((x, y)) or mul_simple(x, y))
    assert mutant(2) == [""]
    assert calls == [("", ""), ("0", "1"), ("1", "0")]
