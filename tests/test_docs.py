"""Docs-consistency gate as tests (same checks as tools/check_docs.py).

Each check (and each catalogue row) is its own test so a dead link and
a drifted CLI block fail separately; the CI ``docs`` job runs the
standalone script, this keeps plain ``pytest`` honest too.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))

import check_docs  # noqa: E402


def test_no_dead_relative_links():
    assert check_docs.check_links() == []


def test_cli_blocks_match_live_help():
    assert check_docs.check_cli_blocks() == []


def test_example_inventory_in_sync():
    assert check_docs.check_example_inventory() == []


@pytest.mark.parametrize("name", sorted(check_docs.CATALOGUES))
def test_catalogue_in_sync(name):
    assert check_docs.check_catalogue(check_docs.CATALOGUES[name]) == []
