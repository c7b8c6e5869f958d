"""Shared pytest set-up."""

import os
import tempfile

from hypothesis import configuration

# Hypothesis caches what it learns under its home directory, by default
# .hypothesis/ in the working directory; keep that out of the checkout.
configuration.set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "vmkit-hypothesis"))
