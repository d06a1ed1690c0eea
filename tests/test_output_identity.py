"""Byte identity of the rendered CLI output.

A fixed matrix of ``analyze``, ``sweep``, ``reproduce`` and ``list-presets``
calls runs in-process in every output format.  The SHA-256 of each call's
exit code and stdout must equal the digest recorded for it, so a refactor
of the pricing or rendering paths that changes a single byte fails here.
If a change is meant to alter output, re-record the digests and explain
every changed digit in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from vla_roofline import cli, commands

COMMANDS = (
    ("analyze",),
    ("analyze", "--model", "pi0-xxl", "--hw", "thor"),
    ("analyze", "--placement", "edge-server", "--net", "5g"),
    ("analyze", "--placement", "collaborative", "--net", "wifi7",
     "--hw", "b100", "--device-hw", "thor"),
    ("analyze", "--placement", "collaborative", "--net", "wifi7",
     "--model", "pi0-xxl", "--hw", "b100", "--device-hw", "rtx4090"),
    ("analyze", "--placement", "cloud-server", "--net", "ethernet-10g",
     "--cloud-net", "fast-cloud", "--async"),
    ("analyze", "--hw", "thor", "--s2-cap", "5"),
    ("analyze", "--hw", "thor", "--s2-cap", "200"),
    ("analyze", "--model", "pi0-xxl", "--hw", "thor", "--s2-cap", "5"),
    ("analyze", "--context-steps", "1000", "--chunk", "10", "--steps", "5"),
    ("analyze", "--decoding", "autoregressive_parallel", "--dof", "7"),
    ("sweep", "--chunk", "10,50,250", "--steps", "1,10"),
    ("sweep", "--model", "pi0-xxl", "--hw", "thor",
     "--decoding", "diffusion,autoregressive,autoregressive_parallel"),
    ("sweep", "--hw", "thor", "--context-steps", "1,100,10000"),
    ("reproduce", "all"),
    ("list-presets",),
)

FORMATS = ("table", "csv", "json")

# Expected digest of each call, keyed by its argv.
DIGESTS = {
    "analyze --format table":
        "d9b0988211d0a0fe6c87cea2fb5ee7872eed6a36a97e72004645831744ad87ff",
    "analyze --format csv":
        "907bf100fdd01469621326aaf7ebdacd6a3c6aefd616266b3a90d3a24559852e",
    "analyze --format json":
        "6c9471fb98d2ced9377d402153702b0dfe8f8cc6c49d9d9ff288fed7028c46d0",
    "analyze --model pi0-xxl --hw thor --format table":
        "4d824a2456e0a41bc04254b0503168cbf4a0f90af5099ee39a102da8fa3c8740",
    "analyze --model pi0-xxl --hw thor --format csv":
        "040792b14c363084f2aa5c56dd6fdc3bd99b66d58b459a139d1d8668eeecc1a7",
    "analyze --model pi0-xxl --hw thor --format json":
        "0becfd6ed27c2135a7240f5d3054351bcff1f4a3d849d4eac81f7bef37219a3b",
    "analyze --placement edge-server --net 5g --format table":
        "782f366865b8cb1a056b5301be132097c16d0fbb4177bbddb15be36ec1c6c28c",
    "analyze --placement edge-server --net 5g --format csv":
        "01f94a127d0065e1a3b3029c647d851a2feb74521684a25f8a680ce7451edf4e",
    "analyze --placement edge-server --net 5g --format json":
        "11b10d90c0f38d2a75a1cec45c8f2682f1ec1c92cee0a40a78f8cb6c92f1ea6c",
    "analyze --placement collaborative --net wifi7 --hw b100 --device-hw thor --format table":
        "d29467d9eb874b1bd75ab0fbd55169dbd9310c24cab05c00d56ef364996e6f61",
    "analyze --placement collaborative --net wifi7 --hw b100 --device-hw thor --format csv":
        "680db89d10ea4bd4503865ae730db763d3640c4dfcfd84029280fda59bc50a6a",
    "analyze --placement collaborative --net wifi7 --hw b100 --device-hw thor --format json":
        "0db7dd63354bf9d113c9bce77a403edeb3949588003299663ba5e02b3c59b7a5",
    "analyze --placement collaborative --net wifi7 --model pi0-xxl --hw b100 --device-hw rtx4090 --format table":
        "0f205635a88b871e191348eba80b169191a012ba0e3f6a586dbfcde73c296236",
    "analyze --placement collaborative --net wifi7 --model pi0-xxl --hw b100 --device-hw rtx4090 --format csv":
        "e789273fcf7f7e62632d843c6fb7da389ebd824ee22b41f82c660b3d8a8bcef1",
    "analyze --placement collaborative --net wifi7 --model pi0-xxl --hw b100 --device-hw rtx4090 --format json":
        "f66f040339d587725d10c8250ad84f5cc24f3e2d0d1154ba2ba1322360929c48",
    "analyze --placement cloud-server --net ethernet-10g --cloud-net fast-cloud --async --format table":
        "15d804f3304ed9fcdd6f93f0c89785ea9324f0336e467c036a202cfd62ef7dcf",
    "analyze --placement cloud-server --net ethernet-10g --cloud-net fast-cloud --async --format csv":
        "99d971341bbbc9f598be99c600d7b42abb2f6b8f5d735b207ae4f9db8c6bf5e2",
    "analyze --placement cloud-server --net ethernet-10g --cloud-net fast-cloud --async --format json":
        "f2edf4354a137658f96de5f22498580f25c2addafb93da1a6c332092d316c6cd",
    "analyze --hw thor --s2-cap 5 --format table":
        "f2cf79615c0b44bed1a1d980a8e9a3ef5bdca9bd3b79fc55a91023a1c221b1aa",
    "analyze --hw thor --s2-cap 5 --format csv":
        "11e004b3bf5756f89083548f78dd8be7f52bb5e1a12efdfb4dd998ad70b5b975",
    "analyze --hw thor --s2-cap 5 --format json":
        "b2406ddf04e3b34306e1276e3b3f8d1d0e5071121263c6a4b7be9d954db7b251",
    "analyze --hw thor --s2-cap 200 --format table":
        "bd4560228bdff718baa7c7e83f847a7905e6a09e4cc67254fa2e0874097c1993",
    "analyze --hw thor --s2-cap 200 --format csv":
        "711ea16558215710b7a83a25aaf9c0c2ffe207ab49b9042c6e17609d61a5e693",
    "analyze --hw thor --s2-cap 200 --format json":
        "9f680df3238a2eced449d9b6e95a0f97f2aed2b14302faa83e1be66e91b8a812",
    "analyze --model pi0-xxl --hw thor --s2-cap 5 --format table":
        "ac4e26d0ebc49e58744823f5dc58f45b6842b0eb179381e3ae6023f0db91e2ab",
    "analyze --model pi0-xxl --hw thor --s2-cap 5 --format csv":
        "da93e46c78308cc736ea986c9c0f220e6c759c0cea5a3a38438b90eba133a4bd",
    "analyze --model pi0-xxl --hw thor --s2-cap 5 --format json":
        "bba575290b594125d432941ef04dd504cf896ada332b4b569466fa48a71d7f8e",
    "analyze --context-steps 1000 --chunk 10 --steps 5 --format table":
        "35f06a75d2e11cbfb5fc3b7baa7b6b0de17e94e3cda4b1d974a09f9885a23a89",
    "analyze --context-steps 1000 --chunk 10 --steps 5 --format csv":
        "86fcf5ab8066e0deeb7282c019e2323f08119ad0c860701988a54e3eea22b8a7",
    "analyze --context-steps 1000 --chunk 10 --steps 5 --format json":
        "9c8f47f510f52712b192faffaf433ee03776103156644fd077a6a637634bfc04",
    "analyze --decoding autoregressive_parallel --dof 7 --format table":
        "6cab4c697e18c6f0feccf96e5d2d2c7ae9af35b64b554308341328fe8c3fc395",
    "analyze --decoding autoregressive_parallel --dof 7 --format csv":
        "16566175e281c2af5ceb6308ba35f0b514e4e050b806b1c0dae44d164052f892",
    "analyze --decoding autoregressive_parallel --dof 7 --format json":
        "ea587b212fc6d30aeab124d71cc37853d76330d116b79a9b3e5e0d894d1ce6be",
    "sweep --chunk 10,50,250 --steps 1,10 --format table":
        "28ee5edfedc512397cb09717a1aa2cce92878f4b3aa1e351504cc8921b2f4afb",
    "sweep --chunk 10,50,250 --steps 1,10 --format csv":
        "477bff7cadc98bb960af201ad7b3521739358007338fb92a8689cf66f9e51476",
    "sweep --chunk 10,50,250 --steps 1,10 --format json":
        "c5ee1580b431a38e4e1aac225656aec1d065f0d1e947950ee2c6fdcf2455fca5",
    "sweep --model pi0-xxl --hw thor --decoding diffusion,autoregressive,autoregressive_parallel --format table":
        "deefc040b1a76260833db7c2fac4b0d5154bfed4968e8f9c520e7e8252662a91",
    "sweep --model pi0-xxl --hw thor --decoding diffusion,autoregressive,autoregressive_parallel --format csv":
        "9d1a580c6d008fe8102b6357b9dcb19a61a1ff16d676795770bad598eb35e64b",
    "sweep --model pi0-xxl --hw thor --decoding diffusion,autoregressive,autoregressive_parallel --format json":
        "4924600ce8ee82644de7929b999f4c9d6046a2697b0e0a6fa18a89a955115b09",
    "sweep --hw thor --context-steps 1,100,10000 --format table":
        "4cb02e21efd535fdec6829048044923be8fb669fcfee889ab09bb57ea9051638",
    "sweep --hw thor --context-steps 1,100,10000 --format csv":
        "4bea4bf1ce311dd242198e036542c823922abae02a29e8bff061b3e198dcff8a",
    "sweep --hw thor --context-steps 1,100,10000 --format json":
        "1d444672cef362dfcfecb66d2f6aa2b93fb43e83b97844a4b8365d5c0e406783",
    "reproduce all --format table":
        "46c8feddebc11d29da258d19884b24ceb19b1a80512f2b7e47b5436d70fe6eb6",
    "reproduce all --format csv":
        "c46d249f7201347a167cfef550742a72cf93b7f680d0bf76c097224150fc19b6",
    "reproduce all --format json":
        "40209f6ef70fea99bbf3a093b90db6d8bfedd14282ba6ca0ef80b5122b85ab38",
    "list-presets --format table":
        "553af70bc040866691dc74ea3d949c25f6de435bdfe7ff8b29011d65020a8d41",
    "list-presets --format csv":
        "f6715a414651ffb56de2361f0b05c15be4a35083c0c731e9ff9a861c15ee3347",
    "list-presets --format json":
        "94f639e73cc1fe1101938cc3321ff57d031668d2de6dd319b59d4592c5ee2d4e",
}


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_output_matches_recorded_digest(command, fmt):
    argv = (*command, "--format", fmt)
    assert _digest(argv) == DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("fmt", ("table", "csv"))
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_no_table_or_csv_line_ends_in_whitespace(command, fmt):
    """A table pads every column but its last, so no line ends in a pad."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([*command, "--format", fmt])
    assert [line for line in out.getvalue().splitlines()
            if line != line.rstrip()] == []


def test_a_failed_call_leaves_the_next_call_unchanged():
    """The parser is built once per process, so a call that fails to parse
    must leave nothing behind for the next call."""
    assert commands.build_parser() is commands.build_parser()
    with contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as failed:
        cli.main(["analyze", "--chunk", "10", "--format", "csv",
                  "--no-such-flag"])
    assert failed.value.code == 1
    argv = ("analyze", "--format", "json")
    assert _digest(argv) == DIGESTS[" ".join(argv)]
