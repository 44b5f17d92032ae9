"""The chain stacks of permlemma._chain_walk built one permutation at a
time by permlemma.ma_chains, the dict-based builder that criterion 6 once
ran on each permutation, as the kernel's oracle."""

import numpy as np

from negmono.permlemma import ma_chains


def chain_walk(images):
    """_chain_walk of the 0-based stack of the 1-based image tuples images,
    all of one length d, from ma_chains on each: the flat positions
    k * d + i - 1 of the chain heads and members of the k-th, chain by
    chain."""
    heads, nodes = [], []
    for k, img in enumerate(images):
        d = len(img)
        for chain in ma_chains(img):
            heads += [k * d + chain[0] - 1] * len(chain)
            nodes += [k * d + i - 1 for i in chain]
    return np.array(heads, dtype=np.intp), np.array(nodes, dtype=np.intp)
