"""The dict-based chain builder that criterion 6 once ran on each
permutation, kept as the oracle of permlemma._chain_walk and ma_chains."""

import itertools

import numpy as np


def ma_chains(img):
    """The maximal ascending chains of a valid 1-based image tuple, ordered
    by their first elements, which it does not check."""
    asc = {i: p for i, p in enumerate(img, 1) if p > i}  # keys ascending
    ends = set(asc.values())
    chains = []
    for i in asc:
        if i in ends:  # not a start: it has an ascending predecessor
            continue
        chain = [i]
        while i in asc:
            i = asc[i]
            chain.append(i)
        chains.append(tuple(chain))
    return chains


def chain_walk(d):
    """_chain_walk(_perm_array(d)) from ma_chains on each permutation of
    S_d in lexicographic order: the flat positions k * d + i - 1 of the
    chain heads and members of the k-th, chain by chain."""
    heads, nodes = [], []
    for k, img in enumerate(itertools.permutations(range(1, d + 1))):
        for chain in ma_chains(img):
            heads += [k * d + chain[0] - 1] * len(chain)
            nodes += [k * d + i - 1 for i in chain]
    return np.array(heads, dtype=np.intp), np.array(nodes, dtype=np.intp)
