"""Nothing writes an array it was given: a step's gradients feed both its
fold and its step, its inputs are kept for the trace flush, and a block's
matrix is a view of the stack its log-det read, so a fold, a log-det and a
step may write only arrays they made."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sedfosgd import optim
from sedfosgd.fisher import FisherBlock, ema_update
from sedfosgd.harness import ExperimentConfig
from sedfosgd.mathkit import logdet_plus

from test_optim import step_inputs

SCALE = ExperimentConfig(problem="ar", optimizer="2sedfosgd", iterations=1).curvature[0]


def held(*arrays):
    """(array, copy of its bytes) for each array and the array it views."""
    out = {}
    for a in arrays:
        for v in (a, getattr(a, "base", None)):
            if isinstance(v, np.ndarray):
                out[id(v)] = (v, v.tobytes())
    return list(out.values())


def assert_unwritten(pairs):
    for a, before in pairs:
        assert a.tobytes() == before


@settings(max_examples=120, deadline=None)
@given(dim=st.integers(1, 12), seeds=st.integers(1, 3), before=st.integers(0, 30),
       chunk=st.integers(1, 6), mode=st.sampled_from(["full", "diagonal"]),
       normalized=st.booleans(), decay=st.floats(0.05, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_ema_update_leaves_what_the_block_held(dim, seeds, before, chunk, mode, normalized,
                                               decay, seed):
    # `before` folds put a full block in its Gram (fewer than dim) or dense
    # state; the next chunk must leave every array the block held untouched
    rng = np.random.default_rng(seed)
    block = FisherBlock.zeros(0, dim, decay, mode=mode, stack=(seeds,))
    if before:
        ema_update(block, rng.standard_normal((before, seeds, dim)), SCALE, normalized)
    grads = rng.standard_normal((chunk, seeds, dim))
    grads[:, rng.random(seeds) < 0.3] = 0.0  # a blown seed folds zeros
    kept = held(block.matrix, block.rows, grads)
    ema_update(block, grads, SCALE, normalized)
    assert_unwritten(kept)


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 40), stack=st.lists(st.integers(1, 3), max_size=2),
       diagonal=st.booleans(), zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_logdet_plus_leaves_m(dim, stack, diagonal, zeros, seed):
    rng = np.random.default_rng(seed)
    if diagonal:
        m = rng.random(tuple(stack) + (dim,)) * (not zeros)
    else:
        a = rng.standard_normal(tuple(stack) + (dim, dim))
        m = a @ np.swapaxes(a, -1, -2) * (not zeros)
    kept = held(m)
    logdet_plus(m, SCALE, diagonal)
    assert_unwritten(kept)


@settings(max_examples=150, deadline=None)
@given(step_inputs())
def test_step_leaves_its_inputs(drawn):
    # and returns arrays of its own, so no later in-place update reaches its inputs
    layers, steps, grads, mu, alphas, c = drawn
    kept = held(*layers, *steps, *grads)
    with np.errstate(all="ignore"):
        new_layers, new_steps = optim.step(layers, steps, grads, mu, alphas, c)
    assert_unwritten(kept)
    for out in new_layers + new_steps:
        assert not any(np.shares_memory(out, v) for v in layers + steps + grads)
