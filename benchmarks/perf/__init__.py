"""The simulator-speed benchmark: how fast the simulated cluster runs on
the host, end to end and layer by layer.  See README.md in this directory.
"""
