"""Independent Rule-30 reference for the benchmark's output checks.

A plain numpy stepper over a periodic ring, written from the rule itself
(``new = left XOR (centre OR right)``) and the sensor geometry the paper
describes: a ring of ``rows + cols`` cells whose first ``rows`` cells drive
the row selection lines and the rest the column lines, pixel ``(r, c)``
selected iff ``S_r XOR S_c``.  It imports nothing from the program, so a
fault in the program's CA engine, Φ builder or seed-chain walk cannot hide
behind a check that runs the same code.
"""

from __future__ import annotations

import numpy as np

RULE_NUMBER = 30


def rule30_step(state: np.ndarray) -> np.ndarray:
    """One generation of Rule 30 on a periodic ring of 0/1 cells."""
    left = np.roll(state, 1)
    right = np.roll(state, -1)
    return left ^ (state | right)


def pattern_states(
    seed_state: np.ndarray,
    n_samples: int,
    *,
    steps_per_sample: int,
    warmup_steps: int,
) -> np.ndarray:
    """The ``(n_samples, n_cells)`` ring states that select each sample.

    Pattern 0 is the seed after ``warmup_steps`` generations; every later
    pattern is ``steps_per_sample`` generations on.
    """
    state = np.asarray(seed_state, dtype=np.uint8).copy()
    for _ in range(int(warmup_steps)):
        state = rule30_step(state)
    states = np.empty((int(n_samples), state.size), dtype=np.uint8)
    for index in range(int(n_samples)):
        if index:
            for _ in range(int(steps_per_sample)):
                state = rule30_step(state)
        states[index] = state
    return states


def next_seed(
    seed_state: np.ndarray,
    n_samples: int,
    *,
    steps_per_sample: int,
    warmup_steps: int,
) -> np.ndarray:
    """The seed of the following frame: this frame's last pattern.

    The sensor's CA free-runs across frames, so consecutive frames overlap by
    one pattern and the chain continues one pattern per sample.
    """
    return pattern_states(
        seed_state,
        n_samples,
        steps_per_sample=steps_per_sample,
        warmup_steps=warmup_steps,
    )[-1]


def measurement_matrix(states: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Φ as a float ``(n_samples, rows * cols)`` 0/1 matrix, raster order."""
    row_lines = states[:, :rows]
    col_lines = states[:, rows:]
    if col_lines.shape[1] != cols:
        raise ValueError(
            f"ring of {states.shape[1]} cells does not fit a {rows}x{cols} array"
        )
    phi = row_lines[:, :, None] ^ col_lines[:, None, :]
    return phi.reshape(states.shape[0], rows * cols).astype(np.float64)
