#!/usr/bin/env python3
"""Random-system soundness sweep: measured block correlations vs every bound.

Usage: python scripts/sweep_bounds.py [count]
"""
import sys

from rhomix.acceptance import _bound_slacks, _event_violation

count = int(sys.argv[1]) if len(sys.argv) > 1 else 200

nm, simple, zz = zip(*(_bound_slacks(k) for k in range(count)))
print(f"{count} random systems")
print(f"  worst nm slack     {min(nm):+.3e}")
print(f"  worst simple slack {min(simple):+.3e}")
print(f"  worst zz slack     {min(zz):+.3e}")
print(f"  worst event chain  {max(_event_violation(k) for k in range(count)):+.3e}  (<= 0 is sound)")
