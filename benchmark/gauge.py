"""Speed gauge for set-up time: how long this machine takes, right now, to
import a fixed set of installed modules in a fresh process.

Usage: python3 gauge.py   (prints one JSON line with import_s)

It imports numpy and standard-library modules only, never gindexlab, so no
change to the program moves it.  The set mixes a compiled extension (numpy)
with pure-Python packages, like the program's own set-up does.  run.py runs it
right before each set-up sample and divides the sample by it: on a shared
host, how fast a process can import swings by a factor of two over minutes
(file-system and cache contention from neighbours), and the gauge swings with
it while the ratio stays put.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402,F401
import dataclasses  # noqa: E402,F401
import decimal  # noqa: E402,F401
import email.parser  # noqa: E402,F401
import fractions  # noqa: E402,F401
import hashlib  # noqa: E402,F401
import json  # noqa: E402
import pathlib  # noqa: E402,F401
import typing  # noqa: E402,F401
import xml.dom.minidom  # noqa: E402,F401

import numpy  # noqa: E402,F401

print(json.dumps({"import_s": time.perf_counter() - T_START}))
