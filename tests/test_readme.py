"""README.md states the public contract: every public name, every config key, the
exit codes, and a minimal config the CLI reads; no private name."""

import json
import re
from pathlib import Path

import pspb
from pspb import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SPANS = re.findall(r"`([^`\n]+)`", README)


def key_paths(table, prefix=""):
    """Each key of a config table, nested tables included, as its dotted path."""
    for key, (_, read) in table.items():
        yield prefix + key
        if isinstance(read, dict):
            yield from key_paths(read, f"{prefix}{key}.")


def test_readme_is_short():
    assert README.count("\n") <= 260


def test_every_public_name_is_listed():
    listed = {re.match(r"\w*", span).group() for span in SPANS}
    assert [name for name in pspb.__all__ if name not in listed] == []


def test_every_config_key_is_named():
    reference = {"reference": (None, {**cli.CSV, **cli.SINUSOID})}
    paths = [*key_paths(cli.CONFIG), *key_paths(reference)]
    # A midpoints segment key is named by itself: "0", "1" or "2".
    missing = [path for path in paths
               if (f'"{path.rsplit(".", 1)[-1]}"' if path[-1].isdigit() else path) not in SPANS]
    assert missing == []


def test_exit_codes_are_listed_with_their_meanings():
    codes = {cli.EXIT_OK: "success", cli.EXIT_CONFIG: "config error",
             cli.EXIT_NUMERICAL: "numerical failure", cli.EXIT_IO: "I/O error"}
    assert sorted(codes) == [0, 2, 3, 4]
    for code, meaning in codes.items():
        assert re.search(rf"^\| {code} \| {meaning} \| .*`", README, re.M), code


def test_no_private_name():
    assert [span for span in SPANS if re.search(r"(^|\W)_[A-Za-z]", span)] == []


def test_the_minimal_config_is_read():
    block = README.split("Minimal config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    config = cli.RunConfig(json.loads(block))
    assert config.schemes == list(pspb.SCHEME_NAMES) and config.samples == 101
