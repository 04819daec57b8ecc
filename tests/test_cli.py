"""Command surface: exit codes, pinned output rows, ledger handling, the
resolution harness, and the coverage cross-check."""

import contextlib
import gc
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from loopchains import boxquot, cli, cobarloop
from loopchains.cli import (STAGE_ONE, STAGE_TWO, SUITES, ResolutionError,
                            Workspace, _coverage_problems, _sweep_stage,
                            main, resolve_conventions)
from loopchains.cobarloop import (Alphabet, BoundaryUndefinedError,
                                  LoopAlgebra, TruncationError, _Boundaries,
                                  adams_T, letter_boundary, verify_T_chain_map)
from loopchains.conventions import (CHOICES, DEFAULT, Conventions, LedgerError,
                                   parse_ledger, serialize_ledger)
from loopchains.freeloop import _g_words, verify_G_chain_map
from loopchains.hochschild import hochschild_b

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fx(*argv):
    return run_cli("--fixtures", str(FIXTURES), *argv)


def copy_fixtures(tmp_path):
    dst = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, dst)
    return dst


# -- exit codes --------------------------------------------------------------------

def test_verify_all_passes_at_seed_7():
    code, out, _ = fx("verify", "all", "--seed", "7")
    assert code == 0
    for name in ("ledger", "signs", "cobar", "t_chain_map", "hochschild",
                 "freeloop", "s1", "boxquot"):
        assert f"{name}: pass" in out
    assert "coverage: pass (43 operations)" in out


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli("entropy")
    assert code == 2


def test_unknown_flag_exits_2():
    code, _, _ = fx("verify", "all", "--entropy", "9")
    assert code == 2


def test_missing_target_exits_2():
    code, _, _ = fx("verify")
    assert code == 2


def test_verify_cobar_target_includes_the_comparison_map():
    code, out, _ = fx("verify", "cobar")
    assert code == 0
    assert "cobar: pass" in out
    assert "t_chain_map: pass" in out


def test_verify_signs_only():
    code, out, _ = fx("verify", "signs")
    assert code == 0
    assert out.startswith("signs: pass")
    assert "cobar" not in out


# -- fixture subcommands -----------------------------------------------------------

def test_homology_rows_for_the_projective_plane():
    code, out, _ = fx("homology", str(FIXTURES / "rp2.json"))
    assert code == 0
    assert out == "0\t1\t-\n1\t0\t2\n2\t0\t-\n"


def test_homology_json_format():
    code, out, _ = fx("homology", str(FIXTURES / "torus_7.json"),
                      "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "0": {"rank": 1, "torsion": []},
        "1": {"rank": 2, "torsion": []},
        "2": {"rank": 1, "torsion": []},
    }


def test_homology_out_flag_writes_the_file(tmp_path):
    target = tmp_path / "rows.tsv"
    code, out, _ = fx("homology", str(FIXTURES / "s1_3.json"),
                      "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "0\t1\t-\n1\t1\t-\n"


def test_homology_missing_fixture_exits_1():
    code, _, err = fx("homology", str(FIXTURES / "absent.json"))
    assert code == 1
    assert "error:" in err


def test_hh_circle_rank_four_at_weight_three():
    code, out, _ = fx("hh", str(FIXTURES / "s1_3.json"),
                      "--degree", "0", "--max-weight", "3")
    assert code == 0
    assert out == ("degree\t0\nmax_weight\t3\nrank\t4\ntorsion\t-\n"
                   "stabilized\tno\n")


def test_hh_json_format():
    code, out, _ = fx("hh", str(FIXTURES / "s1_3.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 4
    assert payload["torsion"] == []


def test_cobar_word_counts_on_the_sphere():
    code, out, _ = fx("cobar", str(FIXTURES / "boundary_delta3.json"),
                      "--max-weight", "4")
    assert code == 0
    assert out == ("words\t273\ndegree\t-2\t16\ndegree\t-1\t136\n"
                   "degree\t0\t121\nd2\tok\n")


def test_t_map_torus_summary():
    code, out, _ = fx("t-map", str(FIXTURES / "torus_7.json"))
    assert code == 0
    assert out == ("cells\t29\nnonzero residuals\t0\ncorner terms\t42\n"
                   "corners balanced\tyes\nstatus\tok\n")


@pytest.mark.parametrize("command, cap", [("cobar", "-1"), ("hh", "-2"),
                                          ("t-map", "-1")])
def test_negative_weight_cap_is_refused_at_parse_time(command, cap):
    code, out, err = fx(command, str(FIXTURES / "rp2.json"), "--max-weight", cap)
    assert code == 2 and out == ""
    assert f"argument --max-weight: weight cap must be at least 0, got {cap}" in err


# -- resolution --------------------------------------------------------------------

def test_resolution_is_unique_and_matches_the_committed_ledger():
    conv, log = resolve_conventions(FIXTURES)
    assert conv == DEFAULT
    assert log == ("stage one: 1 of 128 assignments certified",
                   "stage two: 1 of 64 assignments certified")
    stored = (FIXTURES / "conventions.ledger").read_text()
    assert stored == serialize_ledger(conv)
    assert parse_ledger(stored) == conv


def test_resolve_command_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.ledger"
    second = tmp_path / "b.ledger"
    code, out, _ = fx("resolve", "--out", str(first))
    assert code == 0
    assert "stage one: 1 of 128" in out
    code, _, _ = fx("resolve", "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text() == (FIXTURES / "conventions.ledger").read_text()


FLIP_REASONS = {
    "mu2_order": "tetrahedron face census",
    "leibniz_prefix": "two-letter product rule census",
    "hochschild_arity": "unit wrap image",
    "tau_degeneracy": "comparison map fails on the 2-sphere model",
    "pi2_bsplit_sign": "comparison map fails on the solid simplex",
    "t_word_sign": "comparison map fails on the 2-sphere model",
    "t_pair2_sign": "comparison map fails on the 2-sphere model",
    "wedge_sign_left": "chain condition fails over the 2-sphere algebra",
    "wedge_sign_right": "chain condition fails over the 2-sphere algebra",
    "wedge_sign_cat": "chain condition fails over the circle algebra",
    "wedge_sign_swap": "chain condition fails over the circle algebra",
    "g_parity_s": "chain condition fails over the 2-sphere algebra",
    "iota_twist": "two-slot image spot",
}


def certify(conv):
    """The first failing certifying check of either stage, or None."""
    ws = Workspace(FIXTURES)
    return (cli._certify_stage_one(ws, conv)
            or cli._certify_stage_two(ws, conv))


def test_every_single_entry_flip_fails_certification():
    assert set(FLIP_REASONS) == set(CHOICES)
    for name in CHOICES:
        reason = certify(DEFAULT.flip(name))
        assert reason == FLIP_REASONS[name], name


def test_certifiers_give_the_reasons_of_the_full_verifiers(monkeypatch):
    # The oracle certifies T and G with the full verifiers, which check
    # every cell and every word; the certifiers stop at the first nonzero
    # residual.  Every assignment resolution builds must get the same
    # reason from both.
    ws = Workspace(FIXTURES)
    built = {}
    for name in ("_certify_stage_one", "_certify_stage_two"):
        def record(ws, conv, certify=getattr(cli, name),
                   seen=built.setdefault(name, [])):
            reason = certify(ws, conv)
            seen.append((conv, reason))
            return reason

        monkeypatch.setattr(cli, name, record)
    resolve_conventions(ws)
    monkeypatch.undo()
    assert [len(seen) for seen in built.values()] == [128, 64]

    # a fresh Workspace, so no verdict the sweep kept is read back
    ws = Workspace(FIXTURES)
    monkeypatch.setattr(cli, "_t_refuted", lambda ws, name, conv: not (
        verify_T_chain_map(ws.collapsed(name), conv).ok))
    monkeypatch.setattr(cli, "_g_refuted", lambda ws, name, conv: not (
        verify_G_chain_map(ws.algebra(name, conv), conv).ok))
    for name, seen in built.items():
        for conv, reason in seen:
            assert getattr(cli, name)(ws, conv) == reason, conv
    reasons = {reason for seen in built.values() for _, reason in seen}
    assert {None, "comparison map fails on the 2-sphere model",
            "comparison map fails on the solid simplex",
            "chain condition fails over the circle algebra",
            "chain condition fails over the 2-sphere algebra"} <= reasons


T_FIXTURES = ("boundary_delta3", "ball3", "s1_3", "torus_7")


def test_the_comparison_map_reads_no_stage_two_entry():
    # the premise of keying a kept T verdict by the stage-one entries alone
    ws = Workspace(FIXTURES)
    for name in T_FIXTURES:
        cc = ws.collapsed(name)
        want = verify_T_chain_map(cc, DEFAULT)
        assert want.ok and want.cells
        for entry in STAGE_TWO:
            assert verify_T_chain_map(cc, DEFAULT.flip(entry)) == want, (
                name, entry)


def test_the_sweeps_shared_work_reads_no_entry_outside_its_key():
    # the premise of keying a boundary table by the four entries a
    # letter's terms and parity read, and a kept b(w) by the stage-one
    # entries: flipping any other entry changes neither
    key = cobarloop._boundary_key
    outside = [e for e in CHOICES if key(DEFAULT.flip(e)) == key(DEFAULT)]
    assert set(CHOICES) - set(outside) == {
        "tau_degeneracy", "mu2_order", "pi2_bsplit_sign", "leibniz_prefix"}
    ws = Workspace(FIXTURES)
    for name in cli.COMPLEX_FIXTURES + ("ball3",):
        cc, alphabet = ws.collapsed(name), ws.alphabet(name)
        letters = set(alphabet.letters)
        for cell in cc.cells():
            for ccword in adams_T(cc, cell):
                letters.update(l for w in ccword for l in w
                               if type(l) is not int and l[0] == "pi2")
        assert len(letters) > len(alphabet.letters), name
        letters = sorted(letters)
        coded = [alphabet.encode((l,))[0] for l in letters]
        want = _Boundaries(alphabet, DEFAULT)
        for entry in outside:
            conv = DEFAULT.flip(entry)
            table = _Boundaries(alphabet, conv)
            for letter, x in zip(letters, coded):
                assert letter_boundary(cc, letter, conv) == \
                    letter_boundary(cc, letter, DEFAULT), (name, entry, letter)
                assert table.entry(x) == want.entry(x), (name, entry, letter)
    for name in ("s1_3", "boundary_delta3"):
        alg = LoopAlgebra(ws.collapsed(name), DEFAULT)
        words = list(_g_words(alg))
        assert words
        want = [hochschild_b(alg, w) for w in words]
        for entry in STAGE_TWO:
            flipped = LoopAlgebra(alg.cc, DEFAULT.flip(entry))
            assert [hochschild_b(flipped, w) for w in words] == want, (
                name, entry)


def test_the_sweep_keeps_the_survivors_full_t_verdicts():
    ws = Workspace(FIXTURES)
    resolve_conventions(ws)
    for name in ("boundary_delta3", "ball3"):
        kept = ws._cache[cli._t_key(name, DEFAULT)]
        assert kept == verify_T_chain_map(ws.collapsed(name), DEFAULT)
        # any stage-two entries read the same verdict
        assert ws.t_verification(name, DEFAULT.flip("iota_twist")) is kept


def test_report_decides_the_survivors_t_once(monkeypatch):
    # T on the 2-sphere and the solid simplex runs once under the active
    # stage-one entries: the sweep's survivor, which the T suite reads
    # back.  Each report has a fresh Workspace and decides them again.
    # Both are given the fixture's alphabet.
    residual_loops, verified = [], []
    real_loop, real_verify = cli.t_residuals, cli.verify_T_chain_map

    def loop(alphabet, conv, **kwargs):
        if all(getattr(conv, e) == getattr(DEFAULT, e) for e in STAGE_ONE):
            residual_loops.append(alphabet.cc.source.name)
        return real_loop(alphabet, conv, **kwargs)

    def verify(alphabet, conv, **kwargs):
        verified.append(alphabet.cc.source.name)
        return real_verify(alphabet, conv, **kwargs)

    monkeypatch.setattr(cli, "t_residuals", loop)
    monkeypatch.setattr(cli, "verify_T_chain_map", verify)
    once = (["boundary of the 3-simplex", "solid 3-simplex"],
            ["boundary of the 3-simplex", "circle on three vertices",
             "seven vertex torus"])
    for fmt in ("tsv", "json"):
        code, out, _ = fx("report", "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"report-seed7.{fmt}").read_text()
        assert (sorted(residual_loops), sorted(verified)) == once
        for seen in (residual_loops, verified):
            seen.clear()


def test_resolution_enumerates_no_words_and_takes_no_d2(monkeypatch):
    # the sweep checks a few pinned spots, T and G; d^2 on the loop words
    # and b^2 on seeded words are the cobar and hochschild suites' checks
    calls = []
    for name in ("loop_words", "random_dga", "dga_differential"):
        def counting(*args, real=getattr(cli, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cli, name, counting)
    assert resolve_conventions(FIXTURES) == (DEFAULT, (
        "stage one: 1 of 128 assignments certified",
        "stage two: 1 of 64 assignments certified"))
    assert calls == []


def _first_reasons(ws, axes, fixed, certify):
    """How many assignments of the axes, over the fixed entries, each
    first failing reason (None for a survivor) ends."""
    reasons = Counter()
    for values in itertools.product(*(CHOICES[a][0] for a in axes)):
        conv = Conventions(**{**fixed, **dict(zip(axes, values))})
        reasons[certify(ws, conv)] += 1
    return reasons


def test_first_failing_reasons_of_both_stages():
    # the first failing check of every assignment, as the sweep meets
    # them: stage one under the placeholder stage-two entries, stage two
    # with stage one pinned to its survivor.  Every check the sweep runs
    # ends at least one assignment
    ws = Workspace(FIXTURES)
    placeholder = {name: CHOICES[name][0][0] for name in STAGE_TWO}
    assert _first_reasons(ws, STAGE_ONE, placeholder,
                          cli._certify_stage_one) == {
        "tetrahedron face census": 64,
        "two-letter product rule census": 32,
        "unit wrap image": 16,
        "comparison map fails on the 2-sphere model": 14,
        "comparison map fails on the solid simplex": 1,
        None: 1,
    }
    pinned = {name: getattr(DEFAULT, name) for name in STAGE_ONE}
    assert _first_reasons(ws, STAGE_TWO, pinned, cli._certify_stage_two) == {
        "two-slot image spot": 32,
        "chain condition fails over the circle algebra": 16,
        "chain condition fails over the 2-sphere algebra": 15,
        None: 1,
    }


def test_stage_two_reads_each_basis_once_per_workspace(monkeypatch):
    # the basis does not depend on the conventions, so the per-assignment
    # algebras of a fixture share their alphabet's: stage two enumerates
    # each fixture's once
    calls = []
    real = Alphabet.basis

    def counting(self, max_weight):
        if max_weight not in self._bases:
            calls.append((self.cc.source.name, max_weight))
        return real(self, max_weight)

    monkeypatch.setattr(Alphabet, "basis", counting)
    conv, _ = resolve_conventions(FIXTURES)
    assert conv == DEFAULT
    assert sorted(calls) == [("boundary of the 3-simplex", 3),
                             ("circle on three vertices", 3)]
    ws = Workspace(FIXTURES)
    other = replace(DEFAULT, iota_twist="in_boundary")
    first, second = ws.algebra("s1_3", DEFAULT), ws.algebra("s1_3", other)
    assert second.conv == other and first.basis(3) == second.basis(3)
    assert first.alphabet.word_degrees is second.alphabet.word_degrees
    assert first.alphabet.word_weights is second.alphabet.word_weights


@pytest.mark.parametrize("name", ("s1_3", "boundary_delta3", "torus_7", "rp2",
                                  "boundary_delta4", "ball3"))
def test_the_alphabet_holds_a_fixture_s_loop_state(name):
    # asked first for the collapsed complex, the workspace makes its one
    # memo, the alphabet, and passes it to every algebra; the bare
    # complex gets an alphabet of its own
    ws = Workspace(FIXTURES)
    assert ws.collapsed(name) is ws.alphabet(name).cc
    for conv in (DEFAULT, DEFAULT.flip("mu2_order")):
        assert ws.algebra(name, conv).alphabet is ws.alphabet(name)
    assert LoopAlgebra(ws.collapsed(name)).alphabet is not ws.alphabet(name)


@contextlib.contextmanager
def _no_cyclic_collector():
    """gc off for the block, after a full collection; on exit it is back
    on, with its debug flags and garbage list as they were."""
    gc.collect()
    was_on, flags, kept = gc.isenabled(), gc.get_debug(), gc.garbage[:]
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = kept
        if was_on:
            gc.enable()


def test_a_finished_report_leaves_nothing_to_the_cyclic_collector():
    # a tsv and a json report in one interpreter: every loopchains object
    # they made is freed by reference count, so the collector, which
    # would otherwise free them later, finds none
    with _no_cyclic_collector():
        gc.set_debug(gc.DEBUG_SAVEALL)
        del gc.garbage[:]
        for fmt in ("tsv", "json"):
            code, _, _ = fx("report", "--format", fmt)
            assert code == 0
        gc.collect()
        left = Counter(type(o).__qualname__ for o in gc.garbage
                       if type(o).__module__.startswith("loopchains"))
    assert not left, left


def test_a_dropped_workspace_frees_its_alphabets():
    # with the collector off, the last reference to a workspace that ran
    # the sweep takes its alphabets with it
    with _no_cyclic_collector():
        ws = Workspace(FIXTURES)
        resolve_conventions(ws)
        refs = {key[1]: weakref.ref(value)
                for key, value in ws._cache.items() if key[0] == "alphabet"}
        assert sorted(refs) == ["ball3", "boundary_delta3", "s1_3"]
        del ws
        assert {name: ref() for name, ref in refs.items()} == \
            dict.fromkeys(refs)


def test_the_sweep_does_its_shared_work_once(monkeypatch):
    # one alphabet per complex, one boundary table per (complex, entries
    # it reads) and one b(w) per (fixture, stage-one entries, word), the
    # tables and b(w) dropped when the sweep ends
    alphabets, tables, boundaries = Counter(), Counter(), Counter()
    init = cobarloop._Boundaries.__init__
    init_alphabet = Alphabet.__init__

    def counting_alphabet(self, cc):
        alphabets[cc.source.name] += 1
        init_alphabet(self, cc)

    def counting_init(self, alphabet, conv):
        tables[alphabet.cc.source.name, cobarloop._boundary_key(conv)] += 1
        init(self, alphabet, conv)

    real_b = cli.hochschild_b

    def counting_b(alg, word, *args, **kwargs):
        if isinstance(alg, LoopAlgebra):
            boundaries[alg.cc.source.name, cli._stage_one(alg.conv),
                       word] += 1
        return real_b(alg, word, *args, **kwargs)

    monkeypatch.setattr(Alphabet, "__init__", counting_alphabet)
    monkeypatch.setattr(cobarloop._Boundaries, "__init__", counting_init)
    monkeypatch.setattr(cli, "hochschild_b", counting_b)
    ws = Workspace(FIXTURES)
    assert resolve_conventions(ws)[0] == DEFAULT
    assert alphabets == {"boundary of the 3-simplex": 1, "solid 3-simplex": 1,
                         "circle on three vertices": 1}
    assert set(tables.values()) == {1}
    assert {name for name, _ in tables} == {
        "boundary of the 3-simplex", "solid 3-simplex",
        "circle on three vertices"}
    assert set(boundaries.values()) == {1}
    assert {name for name, _, _ in boundaries} == {
        "boundary of the 3-simplex", "circle on three vertices"}
    alphabets = {key[1]: value for key, value in ws._cache.items()
                 if key[0] == "alphabet"}
    assert set(alphabets) == {"boundary_delta3", "ball3", "s1_3"}
    assert all(not a._tables for a in alphabets.values())
    assert not [key for key in ws._cache if key[0] == "b"]


def test_sweep_rejects_domain_errors_and_lets_other_errors_through():
    fixed = {name: getattr(DEFAULT, name) for name in STAGE_ONE}
    wanted = {name: getattr(DEFAULT, name) for name in STAGE_TWO}

    def domain_errors(ws, conv):
        if conv == DEFAULT:
            return None
        if conv.iota_twist == DEFAULT.iota_twist:
            raise TruncationError(2, [(0, 1, 2)])
        raise BoundaryUndefinedError("no corner boundary")

    assert _sweep_stage("probe", STAGE_TWO, fixed, None,
                        domain_errors) == wanted

    def truncated(ws, conv):
        raise TruncationError(2, [(0, 1, 2)])

    with pytest.raises(ResolutionError, match="error: weight cap 2"):
        _sweep_stage("probe", STAGE_TWO, fixed, None, truncated)

    def broken(ws, conv):
        raise TypeError("a programming error")

    with pytest.raises(TypeError, match="a programming error"):
        _sweep_stage("probe", STAGE_TWO, fixed, None, broken)


# -- ledger tampering --------------------------------------------------------------

def test_tampered_ledger_value_fails_verify(tmp_path):
    fixtures = copy_fixtures(tmp_path)
    path = fixtures / "conventions.ledger"
    path.write_text(path.read_text().replace(
        "t_word_sign      = corrected", "t_word_sign      = printed"))
    code, out, _ = run_cli("--fixtures", str(fixtures), "verify", "all")
    assert code == 1
    assert "ledger: FAIL" in out
    assert "t_chain_map: FAIL" in out
    assert "signs: pass" in out


def test_unparseable_ledger_fails_verify(tmp_path):
    fixtures = copy_fixtures(tmp_path)
    (fixtures / "conventions.ledger").write_text("mu2_order = upside_down\n")
    code, out, _ = run_cli("--fixtures", str(fixtures), "verify", "all")
    assert code == 1
    assert "note: conventions.ledger rejected: line 1: mu2_order" in out
    assert "ledger: FAIL" in out


@pytest.mark.parametrize("entry, value, message", [
    ("mu2_order", "paht",
     "line 1: mu2_order: 'paht' not one of ('path', 'antipath')"),
    ("g_parity_s", "2", "line 12: g_parity_s: 2 not one of (0, 1)"),
    ("g_parity_s", "odd", "line 12: g_parity_s must be an integer"),
])
def test_parse_ledger_names_the_line_of_a_bad_value(entry, value, message):
    lines = serialize_ledger(DEFAULT).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(entry))
    lines[at] = f"{entry} = {value}"
    with pytest.raises(LedgerError) as caught:
        parse_ledger("\n".join(lines))
    assert str(caught.value) == message


@pytest.mark.parametrize("value", (True, 1.0))
def test_a_value_equal_to_an_allowed_one_but_of_another_type_is_refused(value):
    # g_parity_s = True would be written out, then refused on reading back
    with pytest.raises(LedgerError) as caught:
        serialize_ledger(replace(DEFAULT, g_parity_s=value))
    assert str(caught.value) == f"g_parity_s: {value!r} not one of (0, 1)"
    odd = replace(DEFAULT, g_parity_s=1)
    assert parse_ledger(serialize_ledger(odd)) == odd


def test_missing_ledger_is_noted_and_fails_only_the_ledger_suite(tmp_path):
    fixtures = copy_fixtures(tmp_path)
    (fixtures / "conventions.ledger").unlink()
    code, out, _ = run_cli("--fixtures", str(fixtures), "verify", "s1")
    assert code == 0
    assert out.startswith("note: conventions.ledger not found")
    code, out, _ = run_cli("--fixtures", str(fixtures), "verify", "all")
    assert code == 1
    assert "ledger: FAIL" in out
    assert "boxquot: pass" in out


# -- report ------------------------------------------------------------------------

def test_report_is_green_and_byte_deterministic():
    code, first, _ = fx("report", "--seed", "7")
    assert code == 0
    code, second, _ = fx("report", "--seed", "7")
    assert code == 0
    assert first == second
    assert first == (GOLDEN / "report-seed7.tsv").read_text()
    assert "artifact bugs: 0" in first
    assert "classified failures: 2226/2226" in first
    # the six pinned counterexamples for identities suspected of misprints
    assert "degrees=(0,) d1=0 r=1" in first
    assert "(1 ; t[1,2])" in first
    assert "(t[1,2]*t[2,0,1])" in first
    assert "(q[1,2|2,0|0,1])" in first
    assert "(q[0,1,2|2,3|3,0])" in first
    assert "face 1(0) commutes (level side)" in first
    assert "circle_cubes\tagree\tconcat=2" in first


def test_report_json_payload():
    code, out, _ = fx("report", "--format", "json")  # seed 7 by default
    assert code == 0
    assert out == (GOLDEN / "report-seed7.json").read_text()
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["artifact_bugs"] == 0
    assert len(payload["suspected_typos"]) == 6
    assert payload["homology"]["rp2"]["1"] == {"rank": 0, "torsion": [2]}
    assert payload["hochschild_circle"]["3"]["rank"] == 4


def test_report_computes_each_circle_rank_once(monkeypatch):
    # the hochschild suite and the report's circle table share them
    calls = []
    compute = cli.hh_truncated

    def counting(algebra, degree, max_weight, **kwargs):
        calls.append((degree, max_weight))
        return compute(algebra, degree, max_weight, **kwargs)

    monkeypatch.setattr(cli, "hh_truncated", counting)
    code, out, _ = fx("report", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "report-seed7.json").read_text()
    assert sorted(calls) == [(0, 1), (0, 2), (0, 3)]


def test_report_decides_each_cube_identity_once(monkeypatch):
    # a decide-step verdict is keyed by (family, index, component
    # dimension, live axes); one report fills each key once, and a
    # second report in the same process fills none
    filled = []

    class Recording(dict):
        def __setitem__(self, key, value):
            filled.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(boxquot, "_decided", Recording())
    code, out, _ = fx("report", "--seed", "7")
    assert code == 0
    assert out == (GOLDEN / "report-seed7.tsv").read_text()
    assert len(filled) == len(set(filled)) == 36
    code, out, _ = fx("report", "--format", "json")
    assert out == (GOLDEN / "report-seed7.json").read_text()
    assert len(filled) == 36


def test_reports_in_one_process_match_fresh_processes():
    # the certificate memo and word_boundary's letter table outlive a
    # command; a report after others in this process must still read
    # byte for byte as one run alone
    runs = [("3", "tsv"), ("13", "json"), ("13", "tsv"), ("3", "json")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for seed, fmt in runs:
        argv = ["--fixtures", str(FIXTURES), "report", "--seed", seed,
                "--format", fmt]
        fresh = subprocess.run([sys.executable, "-m", "loopchains.cli", *argv],
                               env=env, capture_output=True, text=True,
                               check=True, timeout=120)
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert out == fresh.stdout, (seed, fmt)


def test_report_on_empty_fixture_directory(tmp_path):
    for fixtures in (tmp_path, tmp_path / "absent"):
        code, out, _ = run_cli("--fixtures", str(fixtures), "report")
        assert code == 0
        assert out == "no fixtures\n"
        code, out, _ = run_cli("--fixtures", str(fixtures), "report",
                               "--format", "json")
        assert code == 0
        assert out == '{\n  "note": "no fixtures",\n  "ok": true\n}\n'


def test_report_marks_the_certifying_suite_on_tamper(tmp_path):
    fixtures = copy_fixtures(tmp_path)
    path = fixtures / "conventions.ledger"
    path.write_text(path.read_text().replace(
        "pi2_bsplit_sign  = geometric", "pi2_bsplit_sign  = printed"))
    code, out, _ = run_cli("--fixtures", str(fixtures), "report")
    assert code == 1
    assert "[t_chain_map: FAIL]" in out
    assert "failing checks:" in out
    assert "artifact bugs:" not in out


def tsv_section(text, heading):
    """The indented lines under one heading of a tsv report."""
    lines = text.splitlines()
    start = lines.index(heading) + 1
    end = start
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return lines[start:end]


@pytest.mark.parametrize("damage, failing", [("tampered", 5), ("missing", 1)])
def test_report_json_under_a_bad_ledger(tmp_path, damage, failing):
    fixtures = copy_fixtures(tmp_path)
    path = fixtures / "conventions.ledger"
    if damage == "tampered":
        path.write_text(path.read_text().replace(
            "pi2_bsplit_sign  = geometric", "pi2_bsplit_sign  = printed"))
        note = None
    else:
        path.unlink()
        note = f"conventions.ledger not found under {fixtures}"
    code, tsv, _ = run_cli("--fixtures", str(fixtures), "report")
    assert code == 1
    code, out, _ = run_cli("--fixtures", str(fixtures), "report",
                           "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["artifact_bugs"] is None
    assert payload["failing_checks"] == failing
    assert payload["note"] == note
    noted = [line for line in tsv_section(tsv, "conventions")
             if line.startswith("  (")]
    assert noted == ([] if note is None
                     else [f"  ({note}; built-in defaults shown)"])
    *suites, tally = tsv_section(tsv, "suites")
    assert dict(line.strip().split(": ") for line in suites) == {
        name: "pass" if ok else "FAIL"
        for name, ok in payload["suites"].items()}
    assert tally == (f"  failing checks: {failing} "
                     "(ledger mismatch; not classified as artifact bugs)")


# -- coverage audit ----------------------------------------------------------------

def test_suite_covers_are_public_callables_claimed_once():
    claimed = {}
    for suite in SUITES.values():
        for op in suite.covers:
            assert op not in claimed, f"{op} claimed twice"
            claimed[op] = suite.name
    assert len(claimed) == 43
    assert _coverage_problems() == ([], 43)


def test_every_module_contributes_operations():
    prefixes = {op.split(".")[0] for suite in SUITES.values()
                for op in suite.covers}
    assert prefixes == {"exactalg", "signkoszul", "simpcx", "cobarloop",
                        "hochschild", "freeloop", "boxquot", "cli"}


def with_covers(monkeypatch, name, covers):
    monkeypatch.setitem(SUITES, name, replace(SUITES[name], covers=covers))


@pytest.mark.parametrize("bogus, problem", [
    ("boxquot.box_slosh", "no such operation"),
    ("nomodule.box_slash", "no such operation"),
    ("cobarloop.LoopAlgebra.letterz", "no such operation"),
    ("boxquot._certify", "not a public callable of boxquot"),
    ("boxquot.ZERO", "not a public callable of boxquot"),
    ("cli.box_slash", "not a public callable of cli"),
    ("freeloop.normalize", "claimed by freeloop and boxquot"),
])
def test_coverage_audit_rejects_a_bad_cover(monkeypatch, bogus, problem):
    with_covers(monkeypatch, "boxquot", SUITES["boxquot"].covers | {bogus})
    problems, _ = _coverage_problems()
    assert problems == [f"{bogus}: {problem}"]


def test_coverage_audit_rejects_a_renamed_cover_and_a_silent_module(monkeypatch):
    covers = SUITES["boxquot"].covers - {"boxquot.box_dot"}
    with_covers(monkeypatch, "boxquot", covers | {"boxquot.box_dots"})
    with_covers(monkeypatch, "ledger", frozenset())
    problems, count = _coverage_problems()
    assert problems == ["boxquot.box_dots: no such operation",
                        "cli: no operation covered"]
    assert count == 42


# -- bench harness -----------------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["hh-capped", "loop-residuals",
                                      "loop-homology", "report"])
def test_bench_worker_counts_each_workload(workload, monkeypatch):
    # the harness fails a run only when its worker dies outside the checks,
    # as it does when the tracer cannot wrap or restore a layer
    run = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                          "--workload", workload, "--mode", "count"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["restored"] is True
    assert [v["label"] for v in out["verdicts"] if not v["ok"]] == []
    # every name the bench wraps on this workload is still called: a span
    # the program stopped calling would read zero in every run
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    assert sorted(set(layers.expected_spans(workload))
                  - set(out["called"])) == []
