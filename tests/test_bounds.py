import pytest

import gapfree as gf
from gapfree import ProductKind
from gapfree.errors import BadParameter


def test_t12_example():
    report = gf.bound_report("t12", w_g=2, W_g=3, r=2)
    assert (report.w_upper, report.W_lower) == (4, 6)
    assert report.kind is ProductKind.TENSOR and report.source == "t12"


def test_t13():
    report = gf.bound_report("t13", w_g=2, W_g=3, r=2)
    assert (report.w_upper, report.W_lower) == (6, 9)


def test_t14():
    report = gf.bound_report("t14", w_g=3, W_g=3, r=2)
    assert (report.w_upper, report.W_lower) == (11, 11)


def test_t16():
    report = gf.bound_report("t16", w_g=3, W_g=3, n=2)
    assert (report.w_upper, report.W_lower) == (6, 7)


def test_t17():
    report = gf.bound_report("t17", w_g=3, W_g=4, r=1, n=2)
    assert (report.w_upper, report.W_lower) == (7, 9)


def test_t2():
    report = gf.bound_report("t2", w_g=2, W_g=3, w_h=2, W_h=3)
    assert (report.w_upper, report.W_lower) == (4, 6)


def test_t7_k4():
    # 2n = 4, n = 2 = 1 * 2^1, so the bound is 8 - 2 - 1 - 1 = 4
    report = gf.bound_report("t7", n=2)
    assert report.W_lower == 4 and report.w_upper is None


def test_t7_larger():
    # n = 12 = 3 * 2^2: bound 48 - 2 - 3 - 2 = 41 for the complete graph on 24
    assert gf.bound_report("t7", n=12).W_lower == 41


def test_t6_q3():
    assert gf.bound_report("t6", n=3).W_lower == 6


def test_t5_t44():
    assert gf.bound_report("t5", m=2, n=2).W_lower == 8


def test_t4_cylinder_1_4():
    assert gf.bound_report("t4", m=1, n=2).W_lower == 3


def test_t8():
    report = gf.bound_report("t8", n=2, k=2)
    assert (report.w_upper, report.W_lower) == (6, 8)


def test_t3_families():
    assert gf.bound_report("t3", family="grid", dims=(4, 4)).w_upper == 4
    assert gf.bound_report("t3", family="grid", dims=(2, 2)).w_upper == 2
    assert gf.bound_report("t3", family="cylinder", dims=(2, 4)).w_upper == 3
    assert gf.bound_report("t3", family="cylinder", dims=(1, 4)).w_upper == 2
    assert gf.bound_report("t3", family="torus", dims=(4, 4)).w_upper == 4


def test_t3_out_of_scope_dims():
    with pytest.raises(BadParameter):
        gf.bound_report("t3", family="cylinder", dims=(2, 5))
    with pytest.raises(BadParameter):
        gf.bound_report("t3", family="torus", dims=(3, 4))
    for family, dims in [
        ("grid", ()),  # no dimension
        ("grid", (0, 3)),  # a path needs length >= 1
        ("cylinder", (2,)),
        ("cylinder", (2, 4, 4)),
        ("torus", (4,)),
        ("torus", (4, 4, 4)),
        ("hypercube", (3,)),  # no exact result for this family
    ]:
        with pytest.raises(BadParameter):
            gf.bound_report("t3", family=family, dims=dims)


def test_missing_parameter():
    with pytest.raises(BadParameter, match=r"^missing parameter\(s\) r$"):
        gf.bound_report("t12", w_g=2, W_g=3)
    with pytest.raises(BadParameter, match=r"^missing parameter\(s\) n$"):
        gf.bound_report("t7")
    with pytest.raises(BadParameter, match=r"^missing parameter\(s\) dims$"):
        gf.bound_report("t3", family="grid")


def test_unknown_theorem():
    with pytest.raises(BadParameter):
        gf.bound_report("t99", n=1)


def test_formula_bad_ranges():
    with pytest.raises(BadParameter):
        gf.bound_report("t4", m=0, n=2)
    with pytest.raises(BadParameter):
        gf.bound_report("t5", m=1, n=2)
    with pytest.raises(BadParameter):
        gf.bound_report("t6", n=0)
    with pytest.raises(BadParameter):
        gf.bound_report("t7", n=0)
    with pytest.raises(BadParameter):
        gf.bound_report("t8", n=0, k=1)
    with pytest.raises(BadParameter):
        gf.bound_report("t8", n=1, k=0)
    # composition bounds: each factor needs 1 <= w <= W, and r, n >= 1
    for theorem, params in [
        ("t2", dict(w_g=0, W_g=2, w_h=1, W_h=1)),
        ("t2", dict(w_g=1, W_g=1, w_h=3, W_h=2)),
        ("t12", dict(w_g=2, W_g=3, r=0)),
        ("t12", dict(w_g=-1, W_g=3, r=2)),
        ("t13", dict(w_g=2, W_g=3, r=-1)),
        ("t14", dict(w_g=4, W_g=3, r=2)),
        ("t16", dict(w_g=1, W_g=2, n=0)),
        ("t17", dict(w_g=2, W_g=1, r=2, n=3)),
        ("t17", dict(w_g=2, W_g=3, r=0, n=3)),
        ("t17", dict(w_g=2, W_g=3, r=2, n=0)),
    ]:
        with pytest.raises(BadParameter):
            gf.bound_report(theorem, **params)


def test_bounds_agree_with_oracle_on_small_cases():
    # the evaluated formulas must bracket what the exhaustive search finds
    k4 = gf.oracle(gf.generate("K", 4))
    assert k4.W >= gf.bound_report("t7", n=2).W_lower
    q3 = gf.oracle(gf.generate("Q", 3))
    assert q3.W >= gf.bound_report("t6", n=3).W_lower
    c4 = gf.oracle(gf.generate("C", 4))  # the cylinder C(1,4)
    assert c4.W >= gf.bound_report("t4", m=1, n=2).W_lower


def test_composition_bounds_bracket_oracle_on_small_products():
    p3, k2 = gf.generate("P", 3), gf.generate("K", 2)
    g_res = gf.oracle(p3)
    w_g, W_g = g_res.w, g_res.W
    alpha_w = g_res.witnesses[w_g]
    alpha_k2 = gf.EdgeColoring((1,))

    cases = [
        ("t12", gf.bound_report("t12", w_g=w_g, W_g=W_g, r=1),
         gf.tensor_interval(p3, alpha_w, k2)[0]),
        ("t13", gf.bound_report("t13", w_g=w_g, W_g=W_g, r=1),
         gf.strong_tensor_interval(p3, alpha_w, k2)[0]),
        ("t14", gf.bound_report("t14", w_g=w_g, W_g=W_g, r=1),
         gf.strong_interval(p3, alpha_w, k2)[0]),
        ("t16", gf.bound_report("t16", w_g=w_g, W_g=W_g, n=2),
         gf.lex_empty_interval(p3, alpha_w, 2, "w")[0]),
        ("t17", gf.bound_report("t17", w_g=w_g, W_g=W_g, r=1, n=2),
         gf.lex_regular_interval(p3, alpha_w, k2)[0]),
        ("t2", gf.bound_report("t2", w_g=w_g, W_g=W_g, w_h=1, W_h=1),
         gf.cartesian_interval(p3, alpha_w, k2, alpha_k2)[0]),
    ]
    for label, report, prod in cases:
        bracket = gf.oracle(prod.graph)
        assert bracket.status == "complete", label
        assert bracket.member, label
        assert bracket.w <= report.w_upper, label
        assert bracket.W >= report.W_lower, label


def test_unknown_parameter():
    # a name the formula does not read is an input error, not ignored
    with pytest.raises(BadParameter, match="unknown parameter"):
        gf.bound_report("t12", w_g=1, W_g=2, r=1, extra=3)
    with pytest.raises(BadParameter, match="unknown parameter"):
        gf.bound_report("t3", family="grid", dims=(3, 3), n=2)
    with pytest.raises(BadParameter, match="unknown parameter"):
        gf.bound_report("t7", n=2, **{"": 3})


@pytest.mark.parametrize("argv", [
    "--theorem t3 --family grid --params dims=3",  # dims is not an integer parameter
    "--theorem t3 --params family=1,dims=2",
    "--theorem t4 --params m=1,n=2,m=5",  # a repeated name
    "--theorem t12 --params w_g=1,W_g=2,r=1,extra=3",  # an unknown name
    "--theorem t12 --params w_g=1,W_g=2,r=1,=3",  # an empty name
    "--theorem t7 --params n=2 --family grid",  # t7 reads no family
])
def test_cli_bad_params_exit_3(argv, capsys):
    from gapfree.cli import run

    assert run(["bounds", *argv.split()]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_params_skip_empty_chunks(capsys):
    from gapfree.cli import run

    assert run(["bounds", "--theorem", "t7", "--params", "n=2"]) == 0
    want = capsys.readouterr().out
    for params in ("n=2,", ",n=2", "n=2,,"):
        assert run(["bounds", "--theorem", "t7", "--params", params]) == 0
        assert capsys.readouterr().out == want
