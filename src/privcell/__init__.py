"""Privacy-preserving uplink channel estimation for cell-free hybrid MIMO.

Switch-sampled observations at the APs are completed into full channel
blocks by two jointly private distributed algorithms (an iterative
Frank-Wolfe scheme and a one-shot spectral scheme), with every AP-to-CPU
message limited to noisy Gram releases or locally detected payload.
"""
