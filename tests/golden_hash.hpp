#pragma once

#include <cstdint>
#include <string_view>

#include "sim/trace.hpp"

/// FNV-1a over 64-bit words, for golden pins: a test folds every field
/// of a simulation result into one constant, so any change to the
/// engine's observable behaviour changes the constant.
namespace rdv::tests {

class GoldenHash {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xFFu;
      state_ *= 0x100000001B3ULL;
    }
  }
  void add(std::string_view text) {
    add(text.size());
    for (const char c : text) add(static_cast<unsigned char>(c));
  }
  void add(const sim::Trace& trace) {
    add(trace.events().size());
    add(trace.truncated() ? 1 : 0);
    for (const sim::TraceEvent& e : trace.events()) {
      add(e.round);
      add(e.agent);
      add(e.node);
      add(e.via_port);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

}  // namespace rdv::tests
