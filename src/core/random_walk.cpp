#include "core/random_walk.hpp"

#include <stdexcept>

#include "support/splitmix.hpp"

namespace rdv::core {

using sim::Mailbox;
using sim::Observation;
using sim::Proc;

namespace {

Proc walk_body(Mailbox& mb, std::uint64_t seed,
               std::uint32_t stay_permille) {
  support::SplitMix64 rng(seed);
  for (;;) {
    if (stay_permille > 0 && rng.next_below(1000) < stay_permille) {
      co_await mb.wait(1);
      continue;
    }
    const graph::Port degree = mb.last().degree;
    co_await mb.move(static_cast<graph::Port>(rng.next_below(degree)));
  }
}

}  // namespace

sim::AgentProgram lazy_random_walk_program(std::uint64_t seed,
                                           std::uint32_t stay_permille) {
  if (stay_permille >= 1000) {
    throw std::invalid_argument(
        "lazy_random_walk_program: stay_permille must be < 1000");
  }
  return [seed, stay_permille](Mailbox& mb, Observation) -> Proc {
    return walk_body(mb, seed, stay_permille);
  };
}

}  // namespace rdv::core
