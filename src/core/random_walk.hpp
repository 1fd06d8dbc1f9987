#pragma once

#include <cstdint>

#include "sim/agent.hpp"

/// Randomized rendezvous baseline.
///
/// The paper's conclusion: "the synchronous randomized counterpart of
/// our problem is straightforward, and follows from the fact that two
/// random walks meet with high probability in time polynomial in the
/// size of the graph [39]". This module supplies that baseline: agents
/// with independent randomness (distinct seeds — randomness IS the
/// symmetry breaker) performing random walks. Runs remain
/// bit-reproducible: the "randomness" is a SplitMix64 stream from an
/// explicit seed.
namespace rdv::core {

/// Lazy random walk: with probability stay_permille/1000 stay put,
/// otherwise move through a uniformly random port. Laziness destroys
/// parity invariants, so two independent lazy walks meet with high
/// probability on every connected graph. With stay_permille 0 it is the
/// plain walk: on bipartite graphs two plain walks preserve the parity
/// of their distance and can provably never meet (they only cross).
[[nodiscard]] sim::AgentProgram lazy_random_walk_program(
    std::uint64_t seed, std::uint32_t stay_permille = 500);

}  // namespace rdv::core
