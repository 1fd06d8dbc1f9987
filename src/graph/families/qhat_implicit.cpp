#include "graph/families/qhat_implicit.hpp"

#include <array>
#include <cassert>
#include <stdexcept>

namespace rdv::graph::families {
namespace {

constexpr std::array<Step, 4> kUnresolved{Step{kNoNode, 0}, Step{kNoNode, 0},
                                          Step{kNoNode, 0}, Step{kNoNode, 0}};

std::string key_of(std::span<const Dir> path) {
  std::string key;
  key.reserve(path.size());
  for (Dir d : path) key.push_back(static_cast<char>(d));
  return key;
}

}  // namespace

QhatImplicitTopology::QhatImplicitTopology(std::uint32_t h) : h_(h) {
  if (h < 2 || h > 39) {
    throw std::invalid_argument(
        "QhatImplicitTopology: h must be in [2, 39]");
  }
  x_ = qhat_leaves_per_type(h);
  // dp_[r][c][l]; dp_[0][c][l] = (c == l).
  dp_.resize(h_);
  for (std::uint8_t c = 0; c < 4; ++c) {
    for (std::uint8_t l = 0; l < 4; ++l) dp_[0][c][l] = (c == l) ? 1 : 0;
  }
  for (std::uint32_t r = 1; r < h_; ++r) {
    for (std::uint8_t c = 0; c < 4; ++c) {
      for (std::uint8_t l = 0; l < 4; ++l) {
        std::uint64_t total = 0;
        for (std::uint8_t d = 0; d < 4; ++d) {
          if (static_cast<Dir>(d) == opposite(static_cast<Dir>(c))) continue;
          total += dp_[r - 1][d][l];
        }
        dp_[r][c][l] = total;
      }
    }
  }
  // Materialize the root.
  paths_.emplace_back();
  index_.emplace(std::string{}, 0);
  adjacency_.push_back(kUnresolved);
}

Port QhatImplicitTopology::degree(Node v) const {
  assert(v < paths_.size());
  (void)v;
  return 4;  // Q-hat is 4-regular by construction.
}

std::string QhatImplicitTopology::name() const {
  return "qhat_implicit(" + std::to_string(h_) + ")";
}

const std::vector<Dir>& QhatImplicitTopology::path_of(Node v) const {
  assert(v < paths_.size());
  return paths_[v];
}

Node QhatImplicitTopology::node_at(std::span<const Dir> path) const {
  if (path.size() > h_) {
    throw std::invalid_argument("node_at: path longer than height");
  }
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0 && path[i] == opposite(path[i - 1])) {
      throw std::invalid_argument("node_at: path steps back to parent");
    }
  }
  return intern(std::vector<Dir>(path.begin(), path.end()));
}

Node QhatImplicitTopology::intern(const std::vector<Dir>& path) const {
  auto [it, inserted] = index_.try_emplace(
      key_of(path), static_cast<Node>(paths_.size()));
  if (inserted) {
    paths_.push_back(path);
    adjacency_.push_back(kUnresolved);
  }
  return it->second;
}

std::uint64_t QhatImplicitTopology::completions(std::uint32_t remaining,
                                                Dir at, Dir last) const {
  return dp_[remaining][static_cast<std::uint8_t>(at)]
            [static_cast<std::uint8_t>(last)];
}

std::uint64_t QhatImplicitTopology::leaf_rank(
    std::span<const Dir> path) const {
  assert(path.size() == h_);
  const Dir last = path.back();
  std::uint64_t rank = 1;
  for (std::uint32_t j = 0; j < h_; ++j) {
    for (std::uint8_t c = 0; c < static_cast<std::uint8_t>(path[j]); ++c) {
      const Dir dir = static_cast<Dir>(c);
      if (j > 0 && dir == opposite(path[j - 1])) continue;
      rank += completions(h_ - 1 - j, dir, last);
    }
  }
  return rank;
}

std::vector<Dir> QhatImplicitTopology::leaf_unrank(
    Dir last, std::uint64_t rank) const {
  assert(rank >= 1 && rank <= x_);
  std::vector<Dir> path;
  path.reserve(h_);
  for (std::uint32_t j = 0; j < h_; ++j) {
    for (std::uint8_t c = 0; c < 4; ++c) {
      const Dir dir = static_cast<Dir>(c);
      if (j > 0 && dir == opposite(path.back())) continue;
      const std::uint64_t count = completions(h_ - 1 - j, dir, last);
      if (rank <= count) {
        path.push_back(dir);
        break;
      }
      rank -= count;
    }
    assert(path.size() == j + 1);
  }
  assert(rank == 1);
  return path;
}

Step QhatImplicitTopology::step(Node v, Port p) const {
  assert(v < paths_.size());
  assert(p < 4);
  if (adjacency_[v][p].to != kNoNode) return adjacency_[v][p];
  const Step s = resolve(v, p);
  adjacency_[v][p] = s;
  adjacency_[s.to][s.entry_port] = Step{v, p};
  return s;
}

Step QhatImplicitTopology::resolve(Node v, Port p) const {
  // Every read of `path` happens before intern(), which may reallocate
  // paths_.
  const std::vector<Dir>& path = paths_[v];
  const Dir port = static_cast<Dir>(p);

  // Tree edge toward the parent (the root has none).
  if (!path.empty() && port == opposite(path.back())) {
    std::vector<Dir> parent(path.begin(), path.end() - 1);
    const Dir came_from = path.back();
    return Step{intern(parent), to_port(came_from)};
  }

  // Tree edge toward a child.
  if (path.size() < h_) {
    std::vector<Dir> child = path;
    child.push_back(port);
    return Step{intern(child), to_port(opposite(port))};
  }

  // Leaf-to-leaf edge: resolve through the shared Section-4 wiring rule.
  const Dir type = opposite(path.back());
  assert(port != type);  // type == tree-edge port, handled above
  const std::uint64_t index = leaf_rank(path);
  const LeafLink link = leaf_link(type, index, x_, port);
  // A leaf of type T has final direction opposite(T).
  std::vector<Dir> target = leaf_unrank(opposite(link.type), link.index);
  return Step{intern(target), to_port(link.entry)};
}

}  // namespace rdv::graph::families
