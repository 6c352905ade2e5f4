"""Reference twins: plain implementations kept as oracles for the product code.

A twin is the straightforward version of something ``src/`` does in a faster
or lazier way.  It lives here, not in the package, and the differential
tests run both and compare their outputs.
"""
