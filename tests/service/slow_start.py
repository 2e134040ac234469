"""A fleet runner module whose import takes a full second.

Stands in for a worker's interpreter start-up (numpy, ``repro``) being
slow, so tests can check that start-up never counts against a cell's
timeout.  Kept apart from :mod:`tests.service.helpers` so that only the
start-up test pays the sleep.
"""

import time

from .helpers import fake_run

time.sleep(1.0)

__all__ = ["fake_run"]
