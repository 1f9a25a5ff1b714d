from textrec import selfcheck

CHECKS = [
    "grad/mul",
    "grad/sigmoid",
    "grad/tanh",
    "grad/relu",
    "grad/softmax_rows",
    "grad/linear",
    "grad/conv2d",
    "grad/conv2d_strided",
    "grad/scale_channels",
    "grad/ctc_through_softmax",
    "ctc/oracle_equivalence",
    "ctc/probability_conservation",
    "softmax/rows_sum_to_one",
    "tape/backward_determinism",
    "grad/feature_pipeline_32x32",
    "grad/context_branch",
    "grad/supervision_branch",
    "grad/lstm_scan",
    "eval/untracked_equals_taped",
    "grad/batch_norm",
    "grad/basic_block",
]


def test_every_selfcheck_passes():
    results = selfcheck.run_all()
    # the exact suite in its order, so that a check dropped or moved fails here
    assert [r.name for r in results] == CHECKS
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    # every check draws from its own generator, so each row run alone, last row first,
    # reads as it does in the suite
    for (name, _, check), result in reversed(list(zip(selfcheck.CHECKS, results))):
        assert check(selfcheck._rng(name)) == result.max_error, name


def test_a_result_line_reads_its_status_error_and_tolerance():
    assert selfcheck.CheckResult("grad/x", 2e-7, 1e-6).line() == "PASS  grad/x  max_err=2.000e-07  tol=1e-06"
    assert selfcheck.CheckResult("grad/x", 3e-6, 1e-6).line() == "FAIL  grad/x  max_err=3.000e-06  tol=1e-06"
