import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clutters
from clutters import InconsistentResult, random_star_selfdual, sets
from clutters.cli import main
from clutters.familyio import format_family

TRIANGLE_T3 = "t: 3\n{1,2}\n{1,3}\n{2,3}\n"
TRIANGLE_T4 = "t: 4\n{1,2}\n{1,3}\n{2,3}\n"
TOP_T3 = "t: 3\n{1,2,3}\n"
SINGLETON_T4 = "t: 4\n{2}\n"
PATH_T4 = "t: 4\n{1,2}\n{2,3}\n{3,4}\n"
COMPLEX_T4 = "t: 4\n{}\n{1}\n{2}\n{3}\n{4}\n{1,2}\n{1,3}\n{2,3}\n"
FACETS_T4 = "t: 4\nclosure: down\n{1,2}\n{1,3}\n{2,3}\n{4}\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_blocker_prints_family_text(capsys, write):
    code, out, _ = run(capsys, "blocker", write("tri.fam", TRIANGLE_T3))
    assert code == 0
    assert out == TRIANGLE_T3


def test_blocker_rejects_non_antichain(capsys, write):
    code, _, err = run(capsys, "blocker", write("bad.fam", "t: 3\n{1}\n{1,2}\n"))
    assert code == 2
    assert "antichain" in err


def test_star_round_trip_through_files(capsys, write, tmp_path):
    src = write("fam.fam", "t: 3\n{2}\n{1,3}\n")
    code, once, _ = run(capsys, "star", src)
    assert code == 0
    mid = write("mid.fam", once)
    code, twice, _ = run(capsys, "star", mid)
    assert code == 0
    # star is an involution; output is the canonical serialization
    assert twice == "t: 3\n{2}\n{1,3}\n"


def test_upset_default_and_list(capsys, write):
    path = write("s.fam", SINGLETON_T4)
    code, out, _ = run(capsys, "upset", path)
    assert code == 0
    assert out == "t: 4\ncount: 8\nf: 0 1 3 3 1\n"
    code, out, _ = run(capsys, "upset", path, "--list")
    assert code == 0
    assert out.startswith("t: 4\n{2}\n{1,2}\n")
    assert out.count("{") == 8


def test_fvector_upset_example(capsys, write):
    code, out, _ = run(capsys, "fvector", "--upset", write("s.fam", SINGLETON_T4))
    assert code == 0
    assert out == "0 1 3 3 1\n"


def test_fvector_plain_complex(capsys, write):
    code, out, _ = run(capsys, "fvector", write("c.fam", COMPLEX_T4))
    assert code == 0
    assert out == "1 4 3 0 0\n"


def test_hvector_examples(capsys, write):
    code, out, _ = run(capsys, "hvector", "--upset", write("t.fam", TRIANGLE_T4))
    assert code == 0
    assert out == "0 0 3 -2 0\n"
    code, out, _ = run(capsys, "hvector", write("c.fam", COMPLEX_T4))
    assert out == "1 0 -3 2 0\n"


def test_vector_json(capsys, write):
    code, out, _ = run(capsys, "fvector", "--json", write("c.fam", COMPLEX_T4))
    assert code == 0
    assert json.loads(out) == {"t": 4, "f": [1, 4, 3, 0, 0]}


def test_member_json_is_json_dumps_indent_2(capsys, write):
    cases = [
        (("star", write("f.fam", "t: 3\n{2}\n{1,3}\n"), "--json"),
         {"t": 3, "members": [[], [1], [1, 2], [3], [2, 3], [1, 2, 3]]}),
        (("blocker", write("tri.fam", TRIANGLE_T3), "--json"),
         {"t": 3, "members": [[1, 2], [1, 3], [2, 3]]}),
        (("blocker", write("e.fam", "t: 2\n{}\n"), "--json"), {"t": 2, "members": []}),
        (("upset", write("s.fam", SINGLETON_T4), "--list", "--json"),
         {"t": 4, "count": 8, "f": [0, 1, 3, 3, 1], "members": [
             [2], [1, 2], [2, 3], [1, 2, 3], [2, 4], [1, 2, 4], [2, 3, 4], [1, 2, 3, 4]]}),
    ]
    for argv, want in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(want, indent=2) + "\n"


def test_check_self_dual_line(capsys, write):
    code, out, _ = run(capsys, "check", write("tri.fam", TRIANGLE_T3))
    assert code == 0
    assert out.splitlines()[0] == "self_dual: true, #upset: 4 = 2^2"
    assert "eq22 pass" in out


def test_check_non_self_dual(capsys, write):
    # computation succeeds; the clutter just is not self-dual, whether its
    # up-set has the half count (the path) or not ({1,2,3})
    for name, text, first in (("p.fam", PATH_T4, "self_dual: false, #upset: 8 = 2^3"),
                              ("top.fam", TOP_T3, "self_dual: false, #upset: 1 != 2^2")):
        code, out, _ = run(capsys, "check", write(name, text))
        assert code == 0
        assert out.splitlines()[0] == first


def test_check_json_schema(capsys, write):
    code, out, _ = run(capsys, "check", "--json", write("tri.fam", TRIANGLE_T3))
    payload = json.loads(out)
    assert payload["t"] == 3
    assert payload["f"] == [0, 0, 3, 0]
    assert payload["self_dual"] is True
    assert payload["criterion"] is True
    assert payload["upset_count"] == 4
    for key in ("eq22", "remark_iii", "remark_iv", "eq19"):
        assert payload["identities"][key] is True
    code, out, _ = run(capsys, "check", "--json", write("top.fam", TOP_T3))
    payload = json.loads(out)
    assert code == 0
    assert payload["self_dual"] is False
    assert payload["criterion"] is False
    assert payload["upset_count"] == 1


def test_check_raises_self_dual_without_criterion_as_a_defect(capsys, monkeypatch, write):
    # self-duality forces #A^v = 2^(t-1), so a self-dual clutter failing
    # the criterion is a defect, raised before anything is printed
    monkeypatch.setattr(sets, "self_dual_criterion", lambda a: False)
    with pytest.raises(InconsistentResult):
        main(["check", write("tri.fam", TRIANGLE_T3)])
    assert capsys.readouterr().out == ""


def test_check_rejects_trivial(capsys, write):
    code, _, err = run(capsys, "check", write("e.fam", "t: 3\n{}\n"))
    assert code == 2
    assert "nontrivial" in err


def test_bounds_table_text(capsys):
    code, out, _ = run(capsys, "bounds", "--t", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t: 4"
    assert any("exact" in ln and ln.strip().startswith("2") for ln in lines)
    assert lines[-1] == "pair sums: f_1+f_3 = 4"


def test_bounds_json_schema(capsys):
    code, out, _ = run(capsys, "bounds", "--t", "6", "--json")
    payload = json.loads(out)
    assert payload["t"] == 6
    assert [r["k"] for r in payload["rows"]] == list(range(7))
    assert payload["rows"][3] == {"k": 3, "exact": 10, "lower": 10, "upper": 10}
    assert payload["rows"][1] == {"k": 1, "exact": None, "lower": 0, "upper": 1}
    assert set(payload["rows"][0]) == {"k", "exact", "lower", "upper"}


def test_bounds_odd_and_small_t(capsys):
    code, out, _ = run(capsys, "bounds", "--t", "5")
    assert code == 0
    assert out.splitlines()[-1] == "pair sums: f_2+f_3 = 10; f_1+f_4 = 5"
    for t in ("1", "2"):
        code, out, _ = run(capsys, "bounds", "--t", t)
        assert code == 0
        assert out.splitlines()[-1] == "pair sums: none"
        assert all(line == line.rstrip() for line in out.splitlines())


@pytest.mark.parametrize("t", ["0", "29", "-3"])
def test_bounds_rejects_t_out_of_range(capsys, t):
    code, out, err = run(capsys, "bounds", "--t", t)
    assert code == 2
    assert out == ""
    assert err == f"error: bound tables defined for 1 <= t <= 28, got {t}\n"


def test_verify_theorem3_pass_and_fail(capsys, write):
    code, out, _ = run(capsys, "verify-theorem3", write("t.fam", TRIANGLE_T4))
    assert code == 0
    assert out.rstrip().endswith("result: PASS")
    code, _, err = run(capsys, "verify-theorem3", write("p.fam", PATH_T4))
    assert code == 1
    assert "blocker" in err
    code, out, _ = run(capsys, "verify-theorem3", write("o.fam", TRIANGLE_T3))
    assert code == 0  # the bounds hold at odd t too
    assert out.rstrip().endswith("result: PASS")


def test_verify_lemma2_full_and_facet_files(capsys, write):
    for name, text in (("full.fam", COMPLEX_T4), ("facets.fam", FACETS_T4)):
        code, out, _ = run(capsys, "verify-lemma2", write(name, text))
        assert code == 0, name
        assert out.rstrip().endswith("result: PASS")


def test_verify_lemma2_rejects_non_complex(capsys, write):
    code, _, err = run(capsys, "verify-lemma2", write("nc.fam", "t: 3\n{1,2}\n"))
    assert code == 2
    assert "downward" in err


def test_verify_lemma2_names_the_missing_subset(capsys, write):
    path = write("nc.fam", "t: 4\n{}\n{1}\n{1,3}\n")
    code, out, err = run(capsys, "verify-lemma2", path)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: not downward closed: face (1, 3) lacks subset (3,)\n"


def test_identities_file(capsys, write):
    # the 8-member up-family of {{2}} on E_4 satisfies F* = F
    path = write("f.fam", "t: 4\n{2}\n{1,2}\n{2,3}\n{2,4}\n{1,2,3}\n{1,2,4}\n{2,3,4}\n{1,2,3,4}\n")
    code, out, _ = run(capsys, "identities", path)
    assert code == 0
    assert "eq28: pass" in out
    assert out.rstrip().endswith("result: PASS")


def test_identities_rejects_non_star_family(capsys, write):
    code, _, err = run(capsys, "identities", write("f.fam", "t: 3\n{1}\n"))
    assert code == 1
    assert "complementary" in err


def test_identities_random_json(capsys):
    code, out, _ = run(
        capsys, "identities", "--random", "--t", "6", "--n", "25", "--seed", "3",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 6 and payload["n"] == 25 and payload["seed"] == 3
    assert payload["checks"]["eq28"] == "pass"
    assert payload["checks"]["eq27_block"] == "n/a"
    assert payload["checks"]["odd_t_block"] == "n/a"


def test_identities_requires_t_with_random(capsys):
    code, _, err = run(capsys, "identities", "--random")
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (("--random", "--t", "4"), "give a family file or --random, not both"),
    (("--t", "8"), "--t requires --random"),
    # --n and --seed choose random families; on a file they are rejected,
    # not ignored, even at their --random defaults
    (("--n", "0"), "--n requires --random"),
    (("--n", "5"), "--n requires --random"),
    (("--n", "1"), "--n requires --random"),
    (("--seed", "9"), "--seed requires --random"),
    (("--seed", "0", "--json"), "--seed requires --random"),
])
def test_identities_rejects_conflicting_input(capsys, write, flags, message):
    path = write("f10.fam", format_family(random_star_selfdual(10, 1).family))
    code, out, err = run(capsys, "identities", path, *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"


def test_identities_random_defaults_to_one_family_from_seed_0(capsys):
    for json_flag in ((), ("--json",)):
        given = run(capsys, "identities", "--random", "--t", "6", *json_flag)
        assert given[0] == 0 and given[2] == ""
        assert given == run(
            capsys, "identities", "--random", "--t", "6", "--n", "1", "--seed", "0", *json_flag)
    assert json.loads(given[1])["n"] == 1 and json.loads(given[1])["seed"] == 0
    assert run(capsys, "identities", "--random", "--t", "6")[1].startswith("t: 6  n: 1  seed: 0\n")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_identities_random_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "identities", "--random", "--t", "4", "--n", n)
    assert code == 2
    assert out == ""
    assert err == f"error: --n must be at least 1, got {n}\n"


def test_enumerate_summary_and_outfile(capsys, tmp_path):
    out_path = tmp_path / "all.fam"
    code, out, _ = run(capsys, "enumerate", "--t", "4", "--verify", "--out", str(out_path))
    assert code == 0
    assert out == "t=4 count=12 verified=pass\n"
    from clutters.familyio import parse_families

    docs = parse_families(out_path.read_text())
    assert len(docs) == 12
    members = [d.masks for d in docs]
    assert all(a < b for a, b in zip(members, members[1:]))


def test_enumerate_unwritable_out(capsys, tmp_path):
    path = tmp_path / "missing" / "x.fam"
    code, out, err = run(capsys, "enumerate", "--t", "3", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


def test_enumerate_without_flags(capsys):
    code, out, err = run(capsys, "enumerate", "--t", "3")
    assert code == 0
    assert out == "t=3 count=4\n"
    assert err == ""


def test_enumerate_t2_verify(capsys):
    code, out, err = run(capsys, "enumerate", "--t", "2", "--verify")
    assert code == 0
    assert out == "t=2 count=2 verified=pass\n"
    assert err == ""


def test_enumerate_failed_certificate_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(sets, "star_invariant", lambda bm, t, n=1: False)
    code, out, err = run(capsys, "enumerate", "--t", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("verification failed: ")
    assert err.count("\n") == 1


def test_enumerate_rejects_t8(capsys):
    code, out, err = run(capsys, "enumerate", "--t", "8")
    assert code == 2
    assert out == ""
    assert err == "error: full enumeration supported for 1 <= t <= 7, got 8\n"


@pytest.mark.parametrize("t", ["0", "-1"])
def test_enumerate_rejects_t_below_one(capsys, t):
    # one message for both ends of the range, not the ground-set limit 1..62
    code, out, err = run(capsys, "enumerate", "--t", t)
    assert code == 2
    assert out == ""
    assert err == f"error: full enumeration supported for 1 <= t <= 7, got {t}\n"


def test_parse_error_exit_code(capsys, write):
    code, _, err = run(capsys, "blocker", write("bad.fam", "t: 3\n{9}\n"))
    assert code == 2
    assert "line 2" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "blocker", "/nonexistent/x.fam")
    assert code == 2
    assert err.startswith("error: /nonexistent/x.fam: cannot read: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-theorem3", "verify-lemma2"])
def test_verify_commands_at_t2(capsys, write, command):
    # the bound tables are defined for 1 <= t <= 28; t = 2 has no pair sums
    text = "t: 2\n{1}\n" if command == "verify-theorem3" else "t: 2\n{}\n{2}\n"
    code, out, err = run(capsys, command, write("t2.fam", text))
    assert code == 0
    assert err == ""
    assert "pair offset" not in out
    assert out.endswith("  2  exact        1        1        0  yes\nresult: PASS\n"
                        if command == "verify-theorem3" else
                        "  2  exact        0        0        0  yes\nresult: PASS\n")


def test_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.fam"
    path.write_bytes(b"t: 3\n{1,\xff}\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_huge_t_exits_2_at_the_header(capsys, write):
    path = write("big.fam", "t: 100000000\n" + "{100000000}\n" * 8)
    code, out, err = run(capsys, "fvector", path)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {path}: line 1: ground set size must be positive and at most 62,"
        " got 100000000\n"
    )


def test_defects_keep_their_traceback(monkeypatch, write):
    # only ValueError is rejected input; anything else is a bug in the package
    def broken(cl):
        raise RuntimeError("kernel defect")

    monkeypatch.setattr(sets, "blocker", broken)
    with pytest.raises(RuntimeError, match="kernel defect"):
        main(["blocker", write("tri.fam", TRIANGLE_T3)])


def test_closed_stdout_pipe_exits_141_quietly(tmp_path):
    # about 140 KB of JSON: more than the pipe holds, so writing outlasts the reader
    path = tmp_path / "f12.fam"
    path.write_text(format_family(random_star_selfdual(12, 4).family))
    src = str(Path(clutters.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "clutters.cli", "star", str(path), "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 141
    assert err == b""


def test_output_is_deterministic(capsys, write):
    path = write("tri.fam", TRIANGLE_T4)
    _, first, _ = run(capsys, "verify-theorem3", path)
    _, second, _ = run(capsys, "verify-theorem3", path)
    assert first == second


FILE_COMMANDS = (
    ("blocker",), ("blocker", "--json"), ("star",), ("star", "--json"),
    ("upset",), ("upset", "--list"), ("upset", "--json"),
    ("fvector",), ("fvector", "--upset"), ("hvector",), ("hvector", "--upset"),
    ("check",), ("check", "--json"), ("verify-theorem3",), ("verify-lemma2",),
    ("identities",), ("identities", "--json"),
)
MALFORMED = (
    "{1,2", "{a}", "{0}", "{7}", "1 x", "---", "t: 3", "t: 0", "t: x", "t: 99",
    "closure: up", "closure: down", "# comment", "", "{,}",
)


@st.composite
def family_files(draw) -> bytes:
    t = draw(st.integers(1, 6))
    lines = [f"t: {t}"] if draw(st.integers(0, 3)) else []
    if draw(st.booleans()):
        lines.append("closure: down")
    members = st.sets(st.integers(1, t)).map(
        lambda s: "{" + ",".join(map(str, sorted(s))) + "}"
    )
    # `members` twice: about two lines in three are well formed
    lines += draw(st.lists(st.one_of(members, members, st.sampled_from(MALFORMED)),
                           max_size=12))
    data = "\n".join(lines).encode()
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    return data


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=family_files())
def test_fuzzed_files_never_escape_main(tmp_path, data):
    # every input is either handled or rejected with one stderr line
    path = tmp_path / "fuzz.fam"
    path.write_bytes(data)
    for command in FILE_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
        assert code in (0, 1, 2), command
        if code:
            assert err.getvalue().count("\n") == 1, (command, err.getvalue())
            assert err.getvalue().startswith(("error: ", "verification failed: "))
