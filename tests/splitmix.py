"""SplitMix64 one output at a time, in Python integers: the reference for
`pgsurf.surface.uniform_draws`, which computes the same outputs as uint64
arrays."""

_MASK = 2**64 - 1


def splitmix64(seed, count):
    """The first `count` outputs of SplitMix64 seeded with `seed`."""
    state, out = seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def uniforms(seed, count, low, high):
    """The `count` draws on [low, high] of `uniform_draws`, one by one."""
    return [low + (high - low) * ((z >> 11) * 2.0**-53) for z in splitmix64(seed, count)]
