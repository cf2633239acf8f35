"""Machine-speed calibration: fixed work timed between requests.

The benchmark runs on shared machines whose speed changes by up to 1.7x
from one second to the next as other tenants come and go; within one run a
request's repeats fall partly in fast and partly in slow spells. Timing a
fixed piece of work between the requests measures the same mix of spells
the requests ran in; run.py scales the times of a worker by (the work's
reference time) / (its mean time in that worker), which reports them at the
speed the reference figures were taken at. The work uses only the standard
library, so no change to fraclift changes its time.

In-process workers time `loop()` (Fraction and float arithmetic, a dict,
calls into math, much like the program's own work) every EVERY_S seconds of
work, and report the mean. The cli worker, whose requests are cold
interpreter starts, times a cold interpreter that imports standard-library
modules (COLD_IMPORT) after each call, and reports the mean.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# Usual times of loop() and of a COLD_IMPORT interpreter on the machine the
# README figures were taken on (2-vCPU Xeon, Python 3.11.7).
REFERENCE_MS = 1.7
COLD_REFERENCE_MS = 215.0
EVERY_S = 0.05
COLD_IMPORT = ("import asyncio, decimal, email.parser, http.client, "
               "xml.etree.ElementTree, unittest, logging, argparse, json, "
               "fractions, statistics, inspect, dataclasses, typing")


def loop():
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(1, i)
        table[i * 0.5] = math.lgamma(i * 0.37 + 0.5) * math.pow(0.9, i * 0.25)
    return acc, table


class Calibrator:
    def __init__(self):
        self.samples = []
        self.last = time.perf_counter()

    def sample(self):
        t0 = time.perf_counter()
        loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def due(self):
        """Sample when EVERY_S seconds have passed since the last one."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def mean_ms(self):
        return statistics.fmean(self.samples) * 1e3
