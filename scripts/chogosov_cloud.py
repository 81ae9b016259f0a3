#!/usr/bin/env python3
"""Sample the Chogosov law and dump the cloud plus its operator-norm report.

Usage: python scripts/chogosov_cloud.py [eps] [n] [out.csv]
"""
import sys

from rhomix import events, io

eps = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
n = int(sys.argv[2]) if len(sys.argv) > 2 else 2048
out = sys.argv[3] if len(sys.argv) > 3 else "chogosov_cloud.csv"

model = events.ChogosovModel(eps)
cloud = events.chogosov_sample(model, n, seed=0)
with open(out, "w") as fh:
    fh.write(io.csv_lines(
        "chogosov sample cloud: p, q, branch (-1 lower curve, 0 interior, +1 upper curve)",
        ["p", "q", "branch"],
        [(r[0], r[1], int(r[2])) for r in cloud],
    ))
rep = events.chogosov_opnorm(model, 1024)
print(f"wrote {n} points to {out}")
print(f"grid operator norm {rep.rho_hat:.6f} vs Lambda({eps}) = {events.lambda_fn(eps):.6f}")
print(f"lower-curve fraction {float((cloud[:, 2] == -1).mean()):.4f} "
      f"(closed form {events.curve_atom_fraction(model):.4f})")
