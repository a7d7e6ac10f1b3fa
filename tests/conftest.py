"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from pacn.train import Dataset, extract_features, manifest_rows, read_clips


def load_whole_set(manifest, correction=None) -> Dataset:
    """Every clip a manifest lists, with its features, in one ``Dataset``.

    This is the whole-set reference that chunked and split loaders are
    compared against; it warns of no device and fits no correction.
    """
    rows = manifest_rows(manifest)
    clips = read_clips(manifest, rows)
    return Dataset(clips=clips, features=extract_features(clips, correction),
                   labels=np.array([r.label_index for r in rows], dtype=np.int64),
                   devices=tuple(r.device_id for r in rows),
                   names=tuple(r.filename for r in rows))


@pytest.fixture(scope="session")
def whole_set():
    """``load_whole_set``, for tests and fixtures of any scope."""
    return load_whole_set
