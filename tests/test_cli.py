import dataclasses
import json
import os
import struct
import subprocess
import sys
import time

import pytest

from squareirr import cli
from squareirr import criteria as C
from squareirr import klpoly as K
from squareirr import perm as P
from squareirr.multiseg import parse_multisegment


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env():
    """The environment of a fresh interpreter that imports squareirr from this tree."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_decide_json(capsys):
    code, out, _ = run(capsys, "decide", "[4,5]+[2,4]+[3]+[1,2]", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["square_irreducible"] is False
    assert data["agree"] is True
    assert data["gls"]["value"] is False


def test_decide_text(capsys):
    code, out, _ = run(capsys, "decide", "[3,5]+[2,4]+[1,3]")
    assert code == 0
    assert "square-irreducible: True" in out


def test_nonregular_input_reports_no_kl_one(capsys):
    # square-irreducible (pairwise unlinked), where P(1) of the factorization is 2
    code, out, _ = run(capsys, "decide", "[1]+[1]+[0,1]+[0,1]", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["regular"] is False and data["kl_one"] is None and data["gls"]["value"] is True
    code, out, _ = run(capsys, "criteria", "[1]+[1]+[0,1]+[0,1]")
    assert code == 0
    assert "kl value 1:         None" in out.splitlines()


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "decide", "[4,5]+oops")
    assert code == 2
    assert "position 6" in err


def test_involution_roundtrip(capsys):
    code, out, _ = run(capsys, "involution", "[1,3]")
    assert code == 0
    assert parse_multisegment(out.strip()) == parse_multisegment("[1]+[2]+[3]")


def test_derivative(capsys):
    code, out, _ = run(capsys, "derivative", "[1,3]+[5,6]", "--at", "1", "--side", "l", "--json")
    assert code == 0
    data = json.loads(out)
    assert parse_multisegment(data["result"]) == parse_multisegment("[2,3]+[5,6]")
    assert data["multiplicity"] == 1
    code, out, _ = run(capsys, "derivative", "[1,3]+[2,4]", "--at", "1")
    assert code == 0 and out.strip() == "absent"


def test_kl_text_and_json(capsys):
    code, out, _ = run(capsys, "kl", "1,2,4,3", "4,2,3,1")
    assert code == 0 and out.strip() == "1 + q"
    code, out, _ = run(capsys, "kl", "1243", "4231", "--json")
    assert json.loads(out)["coefficients"] == [1, 1]


def test_kl_cache_file(tmp_path, capsys):
    cache = tmp_path / "kl.bin"
    code, out, _ = run(capsys, "kl", "12345", "53421", "--cache-file", str(cache))
    assert code == 0
    assert cache.exists()
    code, out2, _ = run(capsys, "kl", "12345", "53421", "--cache-file", str(cache))
    assert out2 == out


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "(1,2,3,4 ; 5,4,3,2)", "4231", "--json")
    assert code == 0
    terms = {tuple(t["sigma"]): t["coefficient"] for t in json.loads(out)["terms"]}
    assert terms[(4, 2, 3, 1)] == 1
    assert abs(terms[(1, 2, 4, 3)]) == 2


def test_identity_ok_and_violation_exit(capsys):
    code, out, _ = run(capsys, "identity", "klidnt", "--sigma", "21", "--sigma0", "12", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True
    # precondition failure names the pair
    code, _, err = run(capsys, "identity", "klidnt", "--sigma", "4231", "--sigma0", "2143")
    assert code == 2
    assert "not a smooth pair" in err


def test_family(capsys):
    code, out, _ = run(capsys, "family", "4231", "--k", "4")
    assert code == 0
    assert parse_multisegment(out.strip()) == parse_multisegment("[4,5]+[2,4]+[3]+[1,2]")
    code, _, err = run(capsys, "family", "3412", "--k", "4", "--l", "2")
    assert code == 2


def test_sweep_equivalence(capsys):
    code, out, _ = run(capsys, "sweep", "equivalence", "--k", "3", "--json")
    assert code == 0
    data = json.loads(out.strip().splitlines()[-1])
    assert data["disagreements"] == 0
    assert data["instances"] == 15


def test_sweep_equivalence_limit(capsys):
    code, out, _ = run(capsys, "sweep", "equivalence", "--k", "4", "--limit", "10", "--json")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["instances"] == 10


def test_sweep_equivalence_parallel(capsys):
    code, out, _ = run(capsys, "sweep", "equivalence", "--k", "3", "--par", "2", "--json")
    assert code == 0
    data = json.loads(out.strip().splitlines()[-1])
    assert data["instances"] == 15 and data["disagreements"] == 0


def test_sweep_involution(capsys):
    code, out, _ = run(capsys, "sweep", "involution", "--limit", "50", "--json")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["violations"] == 0


def test_sweep_gls_stability(capsys):
    code, out, _ = run(capsys, "sweep", "gls-stability", "--limit", "25", "--json")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["violations"] == 0


def test_sweep_gls_stability_counts_methods(capsys):
    code, out, _ = run(capsys, "sweep", "gls-stability", "--limit", "10", "--json")
    by_method = json.loads(out.strip().splitlines()[-1])["by_method"]
    assert code == 0
    assert set(by_method) == {"strong-matching", "rank", "certificate"}
    assert sum(by_method.values()) >= 3 * 10  # each instance, its transpose and its dual


def test_sweep_minimal_unbalanced(capsys):
    code, out, _ = run(capsys, "sweep", "minimal-unbalanced", "--k", "4", "--json")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["mismatches"] == 0


def test_sweep_minimal_unbalanced_mismatch_names_both_answers(capsys):
    # the classifier's case and r, and the detachable segment whose removal
    # the brute force found to stay unbalanced
    code, out, _ = run(capsys, "sweep", "minimal-unbalanced", "--k", "5", "--limit", "114")
    assert code == 1
    assert out.splitlines()[0] == (
        "MISMATCH at instance 113: [6,9]+[5,8]+[3,7]+[4,6]+[2,5]: "
        "classifier 4*23*1 r=3; brute force removing [6,9] stays unbalanced"
    )


def test_kl_truncated_cache_file_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(K, "_contexts", {})
    cache = tmp_path / "kl.bin"
    code, out, _ = run(capsys, "kl", "1324", "3412", "--cache-file", str(cache))
    assert code == 0 and out.strip() == "1 + q"
    data = cache.read_bytes()
    # inside the last stored polynomial; inside the first column header
    for size in (len(data) - 3, 6 + 4):
        cache.write_bytes(data[:size])
        code, out, err = run(capsys, "kl", "1324", "3412", "--cache-file", str(cache))
        assert code == 2 and out == ""
        assert "truncated KL cache file" in err


def test_sweep_equivalence_names_the_dissenting_criterion(capsys, monkeypatch):
    real = C.decide_square_irreducible

    def dissent(m, trials=3, seed=0):
        v = real(m, trials=trials, seed=seed)
        return dataclasses.replace(v, kl_one=not v.kl_one, agree=False)

    monkeypatch.setattr(C, "decide_square_irreducible", dissent)
    code, out, _ = run(capsys, "sweep", "equivalence", "--k", "2", "--json")
    lines = out.strip().splitlines()
    assert code == 1
    assert json.loads(lines[-1])["disagreements"] == 3
    disagree = [line for line in lines if line.startswith("DISAGREE")]
    assert len(disagree) == 3
    for line in disagree:
        assert line.endswith("balanced=True pattern_free=True kl_one=False gls=True")


def test_kl_beyond_table_rank_exits_2_quickly(capsys, monkeypatch):
    monkeypatch.setattr(K, "_contexts", {})
    monkeypatch.setattr(K, "_SymContext", lambda n: pytest.fail(f"built the S_{n} context"))
    x = ",".join(str(v) for v in range(1, 13))
    w = ",".join(str(v) for v in range(12, 0, -1))
    start = time.perf_counter()
    code, out, err = run(capsys, "kl", x, w)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "S_12" in err and f"MAX_TABLE_RANK = {K.MAX_TABLE_RANK}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "[4,5]+[2,4]+[3]+[1,2]", "--trials", "0"),
        ("sweep", "gls-stability", "--limit", "300", "--seed", "7", "--trials", "0"),
    ],
)
def test_trials_below_one_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "trials must be at least 1" in err


def test_trials_one_still_works(capsys):
    code, out, _ = run(capsys, "decide", "[4,5]+[2,4]+[3]+[1,2]", "--trials", "1", "--json")
    assert code == 0 and json.loads(out)["agree"] is True
    code, out, _ = run(capsys, "sweep", "gls-stability", "--limit", "10", "--trials", "1", "--json")
    assert code == 0 and json.loads(out.strip().splitlines()[-1])["violations"] == 0


def _no_sweep_work(monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **kw: pytest.fail("started a process pool"))
    monkeypatch.setattr(cli, "_equivalence_instances", lambda k: pytest.fail("built sweep payloads"))


def test_par_bound_is_the_cpu_count_but_at_least_2():
    assert cli.MAX_PAR == max(2, os.cpu_count() or 1)


@pytest.mark.parametrize("par", ["0", "-5", "max+1", "1000000"])
def test_par_out_of_range_exits_2_before_any_work(capsys, monkeypatch, par):
    _no_sweep_work(monkeypatch)
    if par == "max+1":
        par = str(cli.MAX_PAR + 1)
    for which in ("equivalence", "gls-stability"):
        code, out, err = run(capsys, "sweep", which, "--k", "3", "--par", par)
        assert code == 2 and out == ""
        assert f"--par must be between 1 and {cli.MAX_PAR}" in err and f"got {par}" in err


@pytest.mark.parametrize("k", ["-1", "9", "20"])
def test_equivalence_k_out_of_range_exits_2_before_any_work(capsys, monkeypatch, k):
    _no_sweep_work(monkeypatch)
    code, out, err = run(capsys, "sweep", "equivalence", "--k", k)
    assert code == 2 and out == ""
    assert f"--k must be between 0 and {cli.MAX_EQUIVALENCE_K}" in err and f"got {k}" in err


def test_equivalence_k_bounds_are_inclusive(capsys):
    code, out, _ = run(capsys, "sweep", "equivalence", "--k", "0", "--json")
    assert code == 0 and json.loads(out.strip().splitlines()[-1])["instances"] == 1
    code, out, _ = run(capsys, "sweep", "equivalence", "--k", str(cli.MAX_EQUIVALENCE_K), "--limit", "3", "--json")
    assert code == 0 and json.loads(out.strip().splitlines()[-1])["instances"] == 3


@pytest.mark.parametrize("which", ["equivalence", "gls-stability"])
@pytest.mark.parametrize("par", ["1", "2"])
def test_sweep_trials_below_one_exits_2_before_any_work(capsys, monkeypatch, which, par):
    _no_sweep_work(monkeypatch)
    monkeypatch.setattr(C, "gls_check", lambda *a, **kw: pytest.fail("ran gls_check"))
    for trials in ("0", "-1"):
        code, out, err = run(capsys, "sweep", which, "--k", "7", "--trials", trials, "--par", par)
        assert code == 2 and out == ""
        assert f"trials must be at least 1, got {trials}" in err


def test_sweeps_without_trials_ignore_it(capsys):
    for which in ("involution", "minimal-unbalanced"):
        code, out, _ = run(capsys, "sweep", which, "--k", "3", "--limit", "2", "--trials", "0", "--json")
        assert code == 0 and json.loads(out.strip().splitlines()[-1])["instances"] == 2


def _forge_kl_cache(cache, n, w, x, packed):
    """A one-entry cache for the column (n, w); indices as save_cache writes them."""
    blob = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    cache.write_bytes(
        b"SQKL" + struct.pack("<H", 1) + struct.pack("<BII", n, w, 1) + struct.pack("<IH", x, len(blob)) + blob
    )


def test_kl_cache_record_of_a_relabelled_column_exits_2_naming_the_version(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(K, "_contexts", {})
    w = P.lehmer_index((3, 1, 4, 2))  # its inverse 2413 comes first
    cache = tmp_path / "kl.bin"
    _forge_kl_cache(cache, 4, w, 0, 1 + (1 << 16))
    code, out, err = run(capsys, "kl", "1324", "3412", "--cache-file", str(cache))
    assert code == 2 and out == ""
    assert f"KL cache record (4, {w}) is for a non-canonical column" in err and "version 1" in err


@pytest.mark.parametrize("case", ["degree", "index"])
def test_kl_cache_record_failing_its_checks_exits_2(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(K, "_contexts", {})
    ctx = K._ctx(4)
    x, w = P.lehmer_index((1, 3, 2, 4)), P.lehmer_index((3, 4, 1, 2))
    cache = tmp_path / "kl.bin"
    if case == "degree":
        _forge_kl_cache(cache, 4, w, x, 1 + (1 << 16) + (1 << 32))  # 1 + q + q^2
    else:
        _forge_kl_cache(cache, 4, w, ctx.N, 1)
    code, out, err = run(capsys, "kl", "1324", "3412", "--cache-file", str(cache))
    assert code == 2 and out == ""
    assert "corrupt KL cache record" in err


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader is gone before the first line is written, as `| head -1` is
    # for a longer output; this sweep exits 0 when its output is read
    proc = subprocess.Popen(
        [sys.executable, "-m", "squareirr.cli", "sweep", "minimal-unbalanced", "--k", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and err == b""


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import squareirr
from squareirr import klidentity
assert squareirr.decide_square_irreducible(squareirr.parse_multisegment("[4,5]+[2,4]+[3]+[1,2]")).agree
assert str(squareirr.kl_polynomial((1, 2, 3, 4), (3, 4, 1, 2))) == "1 + q"
assert squareirr.verify_klidnt((1, 2, 3), (3, 2, 1)).passed
assert klidentity.tight_violations(5) == []
"""


def test_library_runs_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["kl", "1324", "3412", "--cache-file", "{dir}"],
        ["identity", "klidnt", "--sigma", "12", "--sigma0", "12", "--cache-file", "{dir}/missing/x.bin"],
    ],
)
def test_unusable_cache_file_path_exits_2_before_any_work(tmp_path, argv):
    # a directory, or a file in a missing directory, is refused before the
    # command runs: no result is printed and no traceback follows
    argv = [a.format(dir=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "squareirr.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and f"--cache-file {argv[-1]}" in proc.stderr
    assert not (tmp_path / "missing").exists()
