from textrec import selfcheck

CHECKS = [
    "grad/mul",
    "grad/sigmoid",
    "grad/tanh",
    "grad/relu",
    "grad/softmax_rows",
    "grad/matmul+bias",
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
    "eval/bn_fold",
    "grad/batch_norm",
    "grad/basic_block",
]


def test_every_selfcheck_passes():
    results = selfcheck.run_all()
    # the exact suite, so that a check dropped while it moves fails here
    assert sorted(r.name for r in results) == sorted(CHECKS)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    # every check draws from its own generator, so one run alone reads as it does in the suite
    alone = selfcheck._ctc_conservation_check()
    assert alone.max_error == {r.name: r.max_error for r in results}[alone.name]
